#include "replay/checkpoint.h"

#include <algorithm>

#include "replay/replayer.h"
#include "rt/policy.h"
#include "support/logging.h"
#include "support/trace.h"

namespace portend::replay {

CheckpointLadder
CheckpointLadder::build(const ir::Program &prog,
                        const ScheduleTrace &trace,
                        const std::vector<Target> &targets,
                        const rt::ExecOptions &eo,
                        const std::vector<rt::SemanticPredicate> &preds)
{
    obs::Span span("ladder", "build");
    span.arg("targets", static_cast<std::int64_t>(targets.size()));

    CheckpointLadder ladder;
    ladder.inputs_ = trace.concreteInputs();

    // Collapse duplicate targets (clusters racing on the same cell
    // can share a first accessor) onto one pending slot each.
    std::vector<Target> pending;
    for (const Target &t : targets) {
        const bool dup = std::any_of(
            pending.begin(), pending.end(), [&](const Target &p) {
                return p.tid == t.tid && p.cell == t.cell &&
                       p.occurrence == t.occurrence;
            });
        if (!dup)
            pending.push_back(t);
    }
    if (pending.empty())
        return ladder;

    rt::ExecOptions opts = eo;
    opts.concrete_inputs = ladder.inputs_;
    rt::Interpreter interp(prog, opts);

    // The exact pre-race replay every analyzer runs (strict trace
    // following, rotate fallback past the end).
    rt::RotatePolicy rotate;
    TracePolicy follow(trace, TracePolicy::Mode::Strict, &rotate);
    interp.setPolicy(&follow);

    rt::SemanticMonitor sem(interp, preds);
    interp.addSink(&sem);

    while (!pending.empty() && !interp.state().finished()) {
        rt::Interpreter::StopSpec spec;
        for (const Target &t : pending)
            spec.before_cell.push_back({t.tid, t.cell, t.occurrence});
        interp.run(spec);
        if (!interp.stopped())
            break; // replay over: remaining targets stay rung-less

        const std::size_t rung_idx = ladder.rungs_.size();
        Rung rung;
        rung.state = interp.state(); // COW checkpoint: O(pages)
        rung.semantics = sem.snapshot();
        ladder.rungs_.push_back(std::move(rung));

        // Map every target this stop satisfies onto the rung and
        // drop it from the pending set (descending erase keeps the
        // fired indices valid).
        std::vector<std::size_t> fired = interp.firedCellStops();
        PORTEND_ASSERT(!fired.empty(),
                       "ladder stop without a fired cell point");
        for (auto it = fired.rbegin(); it != fired.rend(); ++it) {
            const Target &t = pending[*it];
            ladder.index_[Key{t.tid, t.cell, t.occurrence}] = rung_idx;
            ladder.covered_steps_ += interp.state().global_step;
            pending.erase(pending.begin() +
                          static_cast<std::ptrdiff_t>(*it));
        }
    }

    // Replay the tail once for every consumer (see end()).
    if (!ladder.rungs_.empty()) {
        if (!interp.state().finished())
            interp.run();
        ladder.end_ = Rung{interp.state(), sem.snapshot()};
    }

    ladder.build_steps_ = interp.state().global_step;
    return ladder;
}

const CheckpointLadder::Rung *
CheckpointLadder::find(rt::ThreadId tid, int cell,
                       std::uint64_t occurrence) const
{
    auto it = index_.find(Key{tid, cell, occurrence});
    return it == index_.end() ? nullptr : &rungs_[it->second];
}

} // namespace portend::replay
