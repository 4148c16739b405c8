#include "portend/analyzer.h"

#include <algorithm>
#include <cstdio>

#include "portend/outputcmp.h"
#include "support/logging.h"
#include "support/observe.h"
#include "support/stats.h"
#include "support/trace.h"

namespace portend::core {

namespace {

/** Concrete input vector for a symbolic env log under a model. */
std::vector<std::int64_t>
concretizeEnvLog(const std::vector<rt::VmState::EnvRead> &log,
                 const sym::Model &model)
{
    std::vector<std::int64_t> out;
    out.reserve(log.size());
    for (const auto &r : log) {
        if (!r.symbolic) {
            out.push_back(r.value);
        } else if (model.values.count(r.sym_id)) {
            out.push_back(model.values.at(r.sym_id));
        } else {
            // Unconstrained symbol: any domain value works; use the
            // lower bound for determinism.
            out.push_back(r.lo);
        }
    }
    return out;
}

/**
 * Named witness bindings for the symbolic entries of an env log,
 * using the same model/fallback rule as concretizeEnvLog so the
 * witness names exactly the values replay will consume.
 */
std::vector<WitnessInput>
witnessOf(const std::vector<rt::VmState::EnvRead> &log,
          const sym::Model &model)
{
    std::vector<WitnessInput> out;
    for (const auto &r : log) {
        if (!r.symbolic)
            continue;
        WitnessInput w;
        w.name = r.name.empty() ? "sym" + std::to_string(r.sym_id)
                                : r.name;
        w.value = model.values.count(r.sym_id)
                      ? model.values.at(r.sym_id)
                      : r.lo;
        out.push_back(std::move(w));
    }
    return out;
}

} // namespace

bool
PrimarySearchPolicy::racePassed(const rt::VmState &state,
                                const race::RaceReport &race)
{
    if (state.cellAccessCount(race.first.tid, race.cell) <
        race.first.cell_occurrence) {
        return false;
    }
    return state.cellAccessCount(race.second.tid, race.cell) >=
           race.second.cell_occurrence;
}

rt::ThreadId
PrimarySearchPolicy::pick(const rt::VmState &state,
                          const std::vector<rt::ThreadId> &runnable)
{
    const std::uint64_t idx = state.stats.preemption_points;
    const bool passed = racePassed(state, race);

    if (idx < trace.decisions.size()) {
        const replay::SchedDecision &d = trace.decisions[idx];
        for (rt::ThreadId t : runnable) {
            if (t == d.tid)
                return t;
        }
        if (!passed)
            return -1; // strict pre-race: prune divergent path
    } else if (!passed) {
        return -1; // trace exhausted without reaching the race
    }

    // Tolerant post-race: rotate through runnable threads so that
    // busy-wait phases keep making progress (a keep-current policy
    // would spin one thread forever).
    for (rt::ThreadId t : runnable) {
        if (t > state.current)
            return t;
    }
    return runnable.front();
}

RaceAnalyzer::RaceAnalyzer(const ir::Program &prog,
                           const PortendOptions &opts)
    : prog(prog), opts(opts),
      owned_static(std::make_unique<rt::StaticInfo>(prog)),
      static_info(*owned_static)
{}

RaceAnalyzer::RaceAnalyzer(const ir::Program &prog,
                           const PortendOptions &opts,
                           const rt::StaticInfo &shared_static)
    : prog(prog), opts(opts), static_info(shared_static)
{}

rt::ExecOptions
RaceAnalyzer::replayOptions(const PortendOptions &opts)
{
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    eo.max_steps = opts.max_steps;
    return eo;
}

rt::ExecOptions
RaceAnalyzer::baseOptions() const
{
    return replayOptions(opts);
}

const replay::CheckpointLadder::Rung *
RaceAnalyzer::usableRung(const replay::CheckpointLadder *ladder,
                         const race::RaceReport &race,
                         const std::vector<std::int64_t> &inputs) const
{
    if (!ladder || ladder->inputs() != inputs)
        return nullptr;
    const replay::CheckpointLadder::Rung *rung = ladder->find(
        race.first.tid, race.cell, race.first.cell_occurrence);
    // A rung past this analyzer's budget is unusable: a from-0
    // replay under the (possibly tighter, sliced) budget would have
    // timed out before reaching it, and the ladder must never change
    // verdicts.
    if (rung && rung->state.global_step >= opts.max_steps)
        return nullptr;
    return rung;
}

const replay::CheckpointLadder::Rung *
RaceAnalyzer::usableEnd(const replay::CheckpointLadder *ladder) const
{
    const replay::CheckpointLadder::Rung *end =
        ladder ? ladder->end() : nullptr;
    // Only a run that ended on its own, inside this analyzer's
    // budget, is the state a (possibly sliced) tail replay reaches.
    if (!end || end->state.outcome == rt::RunOutcome::TimedOut ||
        end->state.global_step >= opts.max_steps)
        return nullptr;
    return end;
}

ViolationKind
RaceAnalyzer::violationOf(rt::RunOutcome o) const
{
    switch (o) {
      case rt::RunOutcome::CrashOob:
      case rt::RunOutcome::CrashDivZero:
        return ViolationKind::Crash;
      case rt::RunOutcome::Deadlock:
        return ViolationKind::Deadlock;
      case rt::RunOutcome::AssertFail:
        return ViolationKind::SemanticAssert;
      case rt::RunOutcome::TimedOut:
        return ViolationKind::InfiniteLoop;
      default:
        return ViolationKind::None;
    }
}

bool
RaceAnalyzer::diagnoseInfiniteLoop(const rt::VmState &state) const
{
    // A timed-out execution spins in its runnable threads. If some
    // other live thread may still write a global the spinner reads,
    // the loop is ad-hoc synchronization held back by the enforced
    // schedule; otherwise the exit condition is invariant and this
    // is an infinite loop (paper §3.2, [60]).
    // Only threads that executed recently are spinners; threads the
    // enforcement policy held back are runnable but idle, and their
    // (empty) read sets must not be mistaken for invariant loops.
    const std::uint64_t activity_cutoff = 512;
    for (const auto &spinner : state.threads) {
        if (!spinner.runnable())
            continue;
        if (spinner.last_step + activity_cutoff < state.global_step)
            continue;
        std::set<ir::GlobalId> read_globals;
        for (int cell : spinner.recent_reads) {
            ir::GlobalId g = prog.cellGlobal(cell);
            if (g >= 0)
                read_globals.insert(g);
        }
        bool someone_can_write = false;
        for (const auto &other : state.threads) {
            if (other.tid == spinner.tid ||
                other.status == rt::ThreadStatus::Exited) {
                continue;
            }
            std::set<ir::GlobalId> writes =
                static_info.mayWriteOnStack(state, other.tid);
            for (ir::GlobalId g : read_globals) {
                if (writes.count(g)) {
                    someone_can_write = true;
                    break;
                }
            }
            if (someone_can_write)
                break;
        }
        if (!someone_can_write)
            return true; // invariant exit condition
    }
    return false;
}

namespace {

/** Collect globals loaded into the defining chain of @p reg. */
void
collectChainLoads(const std::vector<ir::Inst> &insts, int from,
                  ir::Reg reg, std::set<ir::GlobalId> &out,
                  int depth = 0)
{
    if (depth > 16 || reg < 0)
        return;
    for (int i = from; i >= 0; --i) {
        const ir::Inst &inst = insts[i];
        if (inst.dst != reg)
            continue;
        if (inst.op == ir::Op::Load || inst.op == ir::Op::AtomicRmW) {
            out.insert(inst.gid);
            return;
        }
        for (const ir::Operand *o : {&inst.a, &inst.b, &inst.c}) {
            if (o->isReg()) {
                collectChainLoads(insts, i - 1, o->reg, out,
                                  depth + 1);
            }
        }
        return;
    }
}

} // namespace

bool
RaceAnalyzer::crashInvolvesRaceCell(const rt::VmState &final_state,
                                    const race::RaceReport &race) const
{
    const int pc = final_state.outcome_pc;
    if (pc < 0 || pc >= prog.numInsts())
        return true; // no faulting site: attribute conservatively
    ir::GlobalId race_global = prog.cellGlobal(race.cell);
    ir::Program::PcLoc loc = prog.pcLoc(pc);
    const auto &insts =
        prog.functions[loc.func].blocks[loc.block].insts;
    const ir::Inst &fault = insts[loc.index];

    // Direct access to the racing global at the faulting site.
    if ((fault.op == ir::Op::Load || fault.op == ir::Op::Store ||
         fault.op == ir::Op::AtomicRmW) &&
        fault.gid == race_global) {
        return true;
    }

    std::set<ir::GlobalId> chain;
    for (const ir::Operand *o : {&fault.a, &fault.b, &fault.c}) {
        if (o->isReg())
            collectChainLoads(insts, loc.index - 1, o->reg, chain);
    }
    if (chain.empty())
        return true; // nothing to pin the crash on: attribute
    return chain.count(race_global) > 0;
}

void
RaceAnalyzer::absorbStats(AnalysisStats &stats, const rt::VmState &s)
{
    stats.preemptions += s.stats.preemption_points;
    stats.sym_branches += s.stats.symbolic_branches;
    stats.steps += s.stats.steps;
}

void
RaceAnalyzer::setAlternateBudget(rt::ExecOptions &eo,
                                 std::uint64_t pre_steps,
                                 const PrimaryEnd &primary) const
{
    const std::uint64_t body = primary.step > pre_steps
                                   ? primary.step - pre_steps
                                   : 1000;
    eo.cycle_test_from = pre_steps + body;
    // A crash truncated the primary, so its length is no yardstick:
    // an alternate that avoids the crash legitimately runs longer,
    // and only a genuine spin may time out.
    eo.max_steps = primary.crashed
                       ? opts.max_steps
                       : std::min(opts.max_steps,
                                  pre_steps +
                                      opts.timeout_factor * body + 2000);
}

/**
 * Enforce the alternate ordering from a pre-race state and observe
 * the consequences. Returns OutSame with the alternate's outputs
 * when the alternate completed normally (the caller compares
 * outputs), or the violating/blocking verdict otherwise.
 */
RaceAnalyzer::SingleResult
RaceAnalyzer::runAlternateFromState(
    const rt::VmState &pre, const race::RaceReport &race,
    const std::vector<std::int64_t> &inputs,
    const explore::PostSpec &post, const PrimaryEnd &primary,
    const rt::VmState *post_primary,
    const replay::ScheduleTrace *post_trace,
    std::uint64_t primary_second_count, AnalysisStats &stats) const
{
    SingleResult r;

    rt::ExecOptions eo = baseOptions();
    eo.concrete_inputs = inputs;
    rt::Interpreter alt(prog, eo);
    alt.setState(pre);
    // The checkpoint was taken mid-segment of the held thread; the
    // alternate must start with a fresh scheduling decision so the
    // enforcement policy can exclude that thread.
    alt.state().resume_in_segment = false;
    if (post.kind == explore::PostSpec::Kind::Random)
        alt.state().rng = Rng(post.seed * 0x9e3779b97f4a7c15ull + 1);

    setAlternateBudget(alt.options(), pre.global_step, primary);

    SemanticMonitor sem(alt, opts.semantic_predicates);
    alt.addSink(&sem);

    // Post-race scheduling per the spec: the Trace kind keeps
    // following the original trace after enforcement (stage 1's
    // deterministic alternate, preserving orderings unrelated to
    // the race, with rotation past the trace so spin loops
    // progress); Random samples from the reseeded state RNG; Guided
    // applies an explorer-issued decision prefix and completes with
    // deterministic rotation. Random and Guided runs are observed
    // through a GuidedPolicy so the explorer learns the schedule
    // they actually realized.
    rt::RotatePolicy rotate;
    rt::RandomPolicy rnd;
    const bool observed = post.kind != explore::PostSpec::Kind::Trace;
    rt::GuidedPolicy guided(
        post.prefix,
        post.kind == explore::PostSpec::Kind::Random
            ? static_cast<rt::SchedulePolicy *>(&rnd)
            : static_cast<rt::SchedulePolicy *>(&rotate));
    rt::SchedulePolicy *postp =
        observed ? static_cast<rt::SchedulePolicy *>(&guided)
                 : static_cast<rt::SchedulePolicy *>(&rotate);
    replay::AlternatePolicy pol(race, postp,
                                observed ? nullptr : post_trace);
    alt.setPolicy(&pol);

    // Snapshot the state right after both racing accesses completed
    // in the alternate order (second accessor, then first).
    int stage = 0;
    rt::Interpreter::StopSpec spec;
    const auto kind_of = [](bool is_write) {
        return is_write ? rt::EventKind::MemWrite
                        : rt::EventKind::MemRead;
    };
    spec.after_event = [&](const rt::Event &ev) {
        if (ev.cell != race.cell)
            return false;
        if (stage == 0 && ev.tid == race.second.tid &&
            ev.kind == kind_of(race.second.is_write)) {
            stage = 1;
            return false;
        }
        return stage == 1 && ev.tid == race.first.tid &&
               ev.kind == kind_of(race.first.is_write);
    };
    spec.cycle_key = [&stage](std::vector<std::uint64_t> &out) {
        out.push_back(static_cast<std::uint64_t>(stage));
    };

    rt::RunOutcome oc = alt.run(spec);
    if (alt.stopped()) {
        if (post_primary) {
            // Compare the memory the racing threads can reach; other
            // threads' private progress is scheduling noise, not
            // race effect. Fall back to the full image when a racing
            // thread is not alive at the checkpoint.
            const auto nthreads =
                static_cast<rt::ThreadId>(pre.threads.size());
            bool scoped = race.first.tid < nthreads &&
                          race.second.tid < nthreads;
            std::set<ir::GlobalId> scope;
            if (scoped) {
                scope = static_info.mayWriteOnStack(pre,
                                                    race.first.tid);
                std::set<ir::GlobalId> more =
                    static_info.mayWriteOnStack(pre,
                                                race.second.tid);
                scope.insert(more.begin(), more.end());
            }
            bool differ = false;
            for (std::size_t i = 0;
                 i < post_primary->mem.size() && !differ; ++i) {
                if (scoped &&
                    !scope.count(
                        prog.cellGlobal(static_cast<int>(i)))) {
                    continue;
                }
                differ = !post_primary->mem[i].equals(
                    alt.state().mem[i]);
            }
            r.states_differ = differ;
        }
        oc = alt.run();
    }
    absorbStats(stats, alt.state());
    // Every return below carries the explorer feedback: the schedule
    // this run realized (post-race only; the enforcement phase is
    // not a scheduling choice) and whether enforcement succeeded at
    // all — a starved alternate witnessed no post-race schedule.
    r.alternate_enforced = pol.enforced();
    if (observed)
        r.observation = guided.takeObservation();

    if (!sem.violation().empty()) {
        // Attribute only when the violated property concerns the
        // racing global (unrelated violations are queued separately).
        if (sem.violationCell() < 0 ||
            prog.cellGlobal(sem.violationCell()) ==
                prog.cellGlobal(race.cell)) {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = ViolationKind::SemanticAssert;
            r.detail = sem.violation();
            return r;
        }
        r.kind = SingleResult::Kind::Skipped;
        r.detail = "unrelated semantic violation during alternate: " +
                   sem.violation();
        return r;
    }

    switch (oc) {
      case rt::RunOutcome::Aborted:
        if (pol.starved()) {
            // Paper case (b): the second accessor cannot reach its
            // access while the first is held — synchronization
            // enforces a single ordering.
            if (opts.adhoc_detection) {
                r.kind = SingleResult::Kind::SingleOrd;
                r.detail = "alternate starved: ordering enforced by "
                           "synchronization";
            } else {
                r.kind = SingleResult::Kind::SpecViol;
                r.viol = ViolationKind::ReplayFailure;
                r.detail = "replay failure (alternate starved)";
            }
        } else {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = ViolationKind::ReplayFailure;
            r.detail = "alternate schedule aborted";
        }
        return r;

      case rt::RunOutcome::TimedOut:
        if (diagnoseInfiniteLoop(alt.state())) {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = ViolationKind::InfiniteLoop;
            r.detail = "loop with invariant exit condition in "
                       "alternate execution";
        } else if (opts.adhoc_detection) {
            r.kind = SingleResult::Kind::SingleOrd;
            r.detail = "busy-wait ad-hoc synchronization prevents the "
                       "alternate ordering";
        } else {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = ViolationKind::ReplayFailure;
            r.detail = "replay failure (alternate timed out)";
        }
        return r;

      case rt::RunOutcome::Deadlock:
        r.kind = SingleResult::Kind::SpecViol;
        r.viol = ViolationKind::Deadlock;
        r.detail = alt.state().outcome_detail;
        return r;

      case rt::RunOutcome::CrashOob:
      case rt::RunOutcome::CrashDivZero:
        if (!crashInvolvesRaceCell(alt.state(), race)) {
            // An unrelated bug surfaced by the perturbed schedule;
            // the paper queues such discoveries as separate reports.
            r.kind = SingleResult::Kind::Skipped;
            r.detail = "unrelated failure during alternate (queued "
                       "as separate report): " +
                       alt.state().outcome_detail;
            return r;
        }
        r.kind = SingleResult::Kind::SpecViol;
        r.viol = ViolationKind::Crash;
        r.detail = alt.state().outcome_detail;
        return r;

      case rt::RunOutcome::AssertFail:
        r.kind = SingleResult::Kind::SpecViol;
        r.viol = ViolationKind::SemanticAssert;
        r.detail = alt.state().outcome_detail;
        return r;

      case rt::RunOutcome::Exited: {
        if (!pol.enforced()) {
            // The second accessor never touched the cell on this
            // path: nothing was tested.
            r.kind = SingleResult::Kind::Skipped;
            r.detail = "alternate ordering not exercised on this path";
            return r;
        }
        // Busy-wait signature: the second thread re-executed its
        // racing access more often than the primary did — it looped
        // back through the read waiting for the held writer, so the
        // two accesses admit only one real ordering.
        if (primary_second_count > 0) {
            std::uint64_t alt_count = alt.state().accessCount(
                race.second.tid, race.second.pc);
            if (alt_count > primary_second_count) {
                if (opts.adhoc_detection) {
                    r.kind = SingleResult::Kind::SingleOrd;
                    r.detail =
                        "second accessor retried its racing access "
                        "(busy-wait ad-hoc synchronization)";
                } else {
                    r.kind = SingleResult::Kind::SpecViol;
                    r.viol = ViolationKind::ReplayFailure;
                    r.detail = "replay diverged (access re-executed)";
                }
                return r;
            }
        }
        r.kind = SingleResult::Kind::OutSame;
        r.alternate_out = alt.state().output;
        return r;
      }

      default:
        r.kind = SingleResult::Kind::Skipped;
        r.detail = "alternate run ended in unexpected state";
        return r;
    }
}

RaceAnalyzer::SingleResult
RaceAnalyzer::singleClassify(const race::RaceReport &race,
                             const replay::ScheduleTrace &trace,
                             const std::vector<std::int64_t> &inputs,
                             const explore::PostSpec &post,
                             const replay::CheckpointLadder *ladder,
                             AnalysisStats &stats) const
{
    SingleResult r;

    rt::ExecOptions eo = baseOptions();
    eo.concrete_inputs = inputs;
    rt::Interpreter interp(prog, eo);
    SemanticMonitor sem(interp, opts.semantic_predicates);
    interp.addSink(&sem);

    rt::RotatePolicy rotate;
    replay::TracePolicy tp(trace, replay::TracePolicy::Mode::Strict,
                           &rotate);
    interp.setPolicy(&tp);

    const replay::CheckpointLadder::Rung *rung =
        usableRung(ladder, race, inputs);
    if (rung) {
        // Fork from the cached pre-race checkpoint instead of
        // replaying the prefix; the rung state carries the prefix's
        // step counters (so the ledger stays identical) and the
        // monitor adopts the prefix's predicate state.
        OBS_SPAN("ladder", "fork");
        if (obs::Collector *col = obs::collector())
            col->add(obs::Counter::LadderForks, 1);
        interp.setState(rung->state);
        sem.restore(rung->semantics);
    } else {
        rt::Interpreter::StopSpec pre;
        pre.before_cell.push_back(
            {race.first.tid, race.cell, race.first.cell_occurrence});
        rt::RunOutcome pre_oc = interp.run(pre);

        if (!interp.stopped()) {
            absorbStats(stats, interp.state());
            if (rt::isSpecViolation(pre_oc)) {
                r.kind = SingleResult::Kind::SpecViol;
                r.viol = violationOf(pre_oc);
                r.detail = interp.state().outcome_detail;
            } else {
                r.kind = SingleResult::Kind::NotReached;
                r.detail = "race point not reached during replay";
            }
            return r;
        }
    }

    rt::VmState pre_ckpt = interp.state();
    rt::RunOutcome oc = rt::RunOutcome::Running;

    // Post-race primary snapshot: first accessor, then second.
    int stage = 0;
    rt::Interpreter::StopSpec post_stop;
    const auto kind_of = [](bool is_write) {
        return is_write ? rt::EventKind::MemWrite
                        : rt::EventKind::MemRead;
    };
    post_stop.after_event = [&](const rt::Event &ev) {
        if (ev.cell != race.cell)
            return false;
        if (stage == 0 && ev.tid == race.first.tid &&
            ev.kind == kind_of(race.first.is_write)) {
            stage = 1;
            return false;
        }
        return stage == 1 && ev.tid == race.second.tid &&
               ev.kind == kind_of(race.second.is_write);
    };
    oc = interp.run(post_stop);
    const bool have_post_primary = interp.stopped();
    rt::VmState post_primary;
    if (have_post_primary)
        post_primary = interp.state();

    if (!interp.state().finished()) {
        // Forked from a rung, the primary replays the ladder's own
        // tail: adopt its end rung rather than replaying it again.
        const replay::CheckpointLadder::Rung *end =
            rung ? usableEnd(ladder) : nullptr;
        if (end) {
            OBS_SPAN("ladder", "tail-fork");
            if (obs::Collector *col = obs::collector())
                col->add(obs::Counter::LadderTailForks, 1);
            interp.setState(end->state);
            sem.restore(end->semantics);
            oc = end->state.outcome;
        } else {
            oc = interp.run();
        }
    }
    absorbStats(stats, interp.state());

    if (!sem.violation().empty()) {
        r.kind = SingleResult::Kind::SpecViol;
        r.viol = ViolationKind::SemanticAssert;
        r.detail = sem.violation();
        return r;
    }
    if (rt::isSpecViolation(oc)) {
        const bool crash = oc == rt::RunOutcome::CrashOob ||
                           oc == rt::RunOutcome::CrashDivZero;
        if (!crash || crashInvolvesRaceCell(interp.state(), race)) {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = violationOf(oc);
            r.detail = interp.state().outcome_detail;
            return r;
        }
        // The primary replay died of a bug unrelated to this race
        // (e.g. another race in the same recording crashed first);
        // the paper queues such finds as separate reports instead of
        // blaming the race under analysis. The alternate ordering is
        // still probed from the pre-race checkpoint — it can reveal
        // ad-hoc synchronization or an attributable crash — but the
        // primary's truncated output admits no output comparison.
        std::uint64_t primary_second_count =
            interp.state().accessCount(race.second.tid,
                                       race.second.pc);
        SingleResult a = runAlternateFromState(
            pre_ckpt, race, inputs, post,
            {interp.state().global_step, true}, nullptr, &trace,
            primary_second_count, stats);
        if (a.kind == SingleResult::Kind::SpecViol ||
            a.kind == SingleResult::Kind::SingleOrd) {
            return a;
        }
        r.kind = SingleResult::Kind::Skipped;
        r.detail = "unrelated failure during primary replay (queued "
                   "as separate report): " +
                   interp.state().outcome_detail;
        return r;
    }
    if (oc != rt::RunOutcome::Exited) {
        r.kind = SingleResult::Kind::NotReached;
        r.detail = std::string("primary replay ended with ") +
                   rt::runOutcomeName(oc);
        return r;
    }

    r.primary_out = interp.state().output;
    r.primary_steps = interp.state().global_step;
    std::uint64_t primary_second_count = interp.state().accessCount(
        race.second.tid, race.second.pc);

    SingleResult a = runAlternateFromState(
        pre_ckpt, race, inputs, post, {r.primary_steps, false},
        have_post_primary ? &post_primary : nullptr, &trace,
        primary_second_count, stats);
    r.states_differ = a.states_differ;
    if (a.kind != SingleResult::Kind::OutSame) {
        a.states_differ = r.states_differ;
        a.primary_out = r.primary_out;
        a.primary_steps = r.primary_steps;
        return a;
    }

    r.alternate_enforced = a.alternate_enforced;
    r.observation = std::move(a.observation);
    r.alternate_out = a.alternate_out;
    OutputComparison cmp = compareConcreteOutputs(
        r.primary_out, a.alternate_out, race.first.tid,
        race.second.tid);
    if (!cmp.match) {
        r.kind = SingleResult::Kind::OutDiff;
        r.output_diff = cmp.diff;
    } else {
        r.kind = SingleResult::Kind::OutSame;
    }
    return r;
}

RaceAnalyzer::SingleResult
RaceAnalyzer::runAlternate(const race::RaceReport &race,
                           const replay::ScheduleTrace &trace,
                           const std::vector<std::int64_t> &inputs,
                           const explore::PostSpec &post,
                           std::uint64_t primary_steps,
                           const replay::CheckpointLadder *ladder,
                           AnalysisStats &stats) const
{
    // The rung is valid here too: on the faithful pre-race prefix
    // the PrimarySearchPolicy follows the trace decision-for-
    // decision exactly like the ladder's strict TracePolicy did.
    if (const replay::CheckpointLadder::Rung *rung =
            usableRung(ladder, race, inputs)) {
        OBS_SPAN("ladder", "fork");
        if (obs::Collector *col = obs::collector())
            col->add(obs::Counter::LadderForks, 1);
        absorbStats(stats, rung->state);
        return runAlternateFromState(rung->state, race, inputs, post,
                                     {primary_steps, false}, nullptr,
                                     &trace, 0, stats);
    }

    rt::ExecOptions eo = baseOptions();
    eo.concrete_inputs = inputs;
    rt::Interpreter interp(prog, eo);
    PrimarySearchPolicy pol(trace, race);
    interp.setPolicy(&pol);

    rt::Interpreter::StopSpec pre;
    pre.before_cell.push_back(
        {race.first.tid, race.cell, race.first.cell_occurrence});
    rt::RunOutcome oc = interp.run(pre);
    absorbStats(stats, interp.state());

    SingleResult r;
    if (!interp.stopped()) {
        if (rt::isSpecViolation(oc)) {
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = violationOf(oc);
            r.detail = interp.state().outcome_detail;
        } else {
            r.kind = SingleResult::Kind::Skipped;
            r.detail = "pre-race replay did not reach the race";
        }
        return r;
    }
    return runAlternateFromState(interp.state(), race, inputs, post,
                                 {primary_steps, false}, nullptr, &trace,
                                 0, stats);
}

std::uint64_t
RaceAnalyzer::recordedSteps(const replay::ScheduleTrace &trace) const
{
    return trace.decisions.empty() ? opts.max_steps
                                   : trace.decisions.back().step + 1;
}

RaceAnalyzer::EvidenceReplay
RaceAnalyzer::replayEvidence(const race::RaceReport &race,
                             const replay::ScheduleTrace &trace,
                             const Classification &verdict) const
{
    EvidenceReplay out;
    AnalysisStats scratch;
    const std::vector<std::int64_t> inputs =
        verdict.evidence_inputs.empty() ? trace.concreteInputs()
                                        : verdict.evidence_inputs;

    if (!verdict.evidence_alternate) {
        // The primary ordering itself is the evidence: replay it.
        rt::ExecOptions eo = baseOptions();
        eo.concrete_inputs = inputs;
        rt::Interpreter interp(prog, eo);
        PrimarySearchPolicy pol(trace, race);
        interp.setPolicy(&pol);
        out.outcome = interp.run();
        out.detail = interp.state().outcome_detail;
        out.output = interp.state().output;
        return out;
    }

    // Rebuild the post-race schedule the evidence names: an
    // explorer-issued decision prefix replays exactly (guided runs
    // are prefix + deterministic fallback), a seed replays the
    // random sampler, and neither means the stage-1 trace-following
    // alternate.
    explore::PostSpec spec;
    if (!verdict.evidence_schedule.empty()) {
        spec = explore::PostSpec::guided(
            {verdict.evidence_schedule.begin(),
             verdict.evidence_schedule.end()});
    } else if (verdict.evidence_seed != 0) {
        spec = explore::PostSpec::random(verdict.evidence_seed);
    } else {
        spec = explore::PostSpec::trace();
    }
    SingleResult r = runAlternate(race, trace, inputs, spec,
                                  recordedSteps(trace), nullptr,
                                  scratch);
    switch (r.kind) {
      case SingleResult::Kind::SpecViol:
        // Reconstruct the concrete outcome class from the verdict.
        out.outcome =
            r.viol == ViolationKind::Deadlock
                ? rt::RunOutcome::Deadlock
                : r.viol == ViolationKind::InfiniteLoop
                      ? rt::RunOutcome::TimedOut
                      : r.viol == ViolationKind::SemanticAssert
                            ? rt::RunOutcome::AssertFail
                            : rt::RunOutcome::CrashOob;
        break;
      default:
        out.outcome = rt::RunOutcome::Exited;
        break;
    }
    out.detail = r.detail;
    out.output = r.alternate_out;
    return out;
}

namespace {

const char *
postSpecKind(const explore::PostSpec &s)
{
    switch (s.kind) {
      case explore::PostSpec::Kind::Trace:
        return "trace";
      case explore::PostSpec::Kind::Random:
        return "random";
      case explore::PostSpec::Kind::Guided:
        return "guided";
    }
    return "?";
}

/** `--progress jsonl`: one line per explored post-race schedule. */
void
emitScheduleEvent(const explore::PostSpec &spec, int path, bool fresh,
                  int distinct, int schedules)
{
    if (!obs::progress())
        return;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "{\"event\": \"schedule\", \"kind\": \"%s\", "
                  "\"path\": %d, \"fresh\": %s, \"distinct\": %d, "
                  "\"schedules_explored\": %d}",
                  postSpecKind(spec), path, fresh ? "true" : "false",
                  distinct, schedules);
    obs::progressLine(buf);
}

} // namespace

void
RaceAnalyzer::setVerdict(Classification &c, const SingleResult &r,
                         const Evidence *ev)
{
    switch (r.kind) {
      case SingleResult::Kind::SpecViol:
        c.cls = RaceClass::SpecViolated;
        break;
      case SingleResult::Kind::OutDiff:
        c.cls = RaceClass::OutputDiffers;
        break;
      case SingleResult::Kind::SingleOrd:
        c.cls = RaceClass::SingleOrdering;
        break;
      case SingleResult::Kind::NotReached:
      case SingleResult::Kind::Skipped:
        c.cls = RaceClass::Unclassified;
        break;
      case SingleResult::Kind::OutSame:
        PORTEND_PANIC("an equivalent output decides no verdict");
    }
    c.viol = r.viol;
    c.detail = r.detail;
    c.output_diff = r.output_diff;
    if (!ev || (r.kind != SingleResult::Kind::SpecViol &&
                r.kind != SingleResult::Kind::OutDiff)) {
        return;
    }
    c.evidence_inputs = ev->inputs;
    c.evidence_witness = ev->witness;
    c.evidence_alternate = ev->alternate;
    c.evidence_seed = ev->post.seed;
    c.evidence_schedule.assign(ev->post.prefix.begin(),
                               ev->post.prefix.end());
    c.evidence_signature = ev->signature;
}

bool
RaceAnalyzer::runSchedules(Classification &c, int &witnesses,
                           Evidence &ev, int path,
                           std::set<std::string> *known,
                           const Judge &judge) const
{
    // Multi-schedule: the explorer issues the post-race schedules —
    // Ma seeded samples, then systematic bounded-preemption
    // backtracking until Ma *distinct* interleaving classes were
    // witnessed. Without it the one schedule is the trace-following
    // alternate, whose evidence seed stays 0 so that replayEvidence
    // rebuilds exactly that schedule.
    std::optional<explore::ScheduleExplorer> explorer;
    if (opts.multi_schedule) {
        explore::ExplorerOptions xopts;
        xopts.budget = opts.ma;
        xopts.preemption_bound = opts.preemption_bound;
        // Legacy seed layout: seed j of path p is p * 16 + j.
        xopts.seed_base = static_cast<std::uint64_t>(path) * 16;
        if (known)
            xopts.known = *known;
        explorer.emplace(std::move(xopts));
    }

    bool decided = false;
    for (std::optional<explore::PostSpec> spec =
             explorer ? explorer->next() : explore::PostSpec::trace();
         spec; spec = explorer ? explorer->next() : std::nullopt) {
        std::optional<obs::Span> cand_span;
        if (explorer) {
            cand_span.emplace("explore", "dpor-candidate");
            if (path > 0)
                cand_span->arg("path", path);
        }
        c.stats.schedules_explored += 1;
        SingleResult r = judge(*spec);
        // Only an enforced alternate witnessed a post-race schedule;
        // everything else teaches the explorer nothing.
        bool fresh = false;
        if (explorer) {
            fresh = r.alternate_enforced && explorer->record(r.observation);
            emitScheduleEvent(*spec, path, fresh, explorer->distinct(),
                              c.stats.schedules_explored);
        }
        if (r.kind == SingleResult::Kind::SpecViol ||
            r.kind == SingleResult::Kind::OutDiff) {
            ev.post = *spec;
            // An OutDiff always comes from an enforced alternate.
            if (explorer && r.alternate_enforced)
                ev.signature = explorer->lastSignature();
            setVerdict(c, r, &ev);
            decided = true;
            break;
        }
        // A witness is a *distinct* interleaving class.
        if (r.kind == SingleResult::Kind::OutSame && (!explorer || fresh)) {
            witnesses += 1;
        }
    }
    if (explorer) {
        c.stats.distinct_schedules += explorer->distinct();
        if (known)
            *known = explorer->signatures();
    }
    return decided;
}

Classification
RaceAnalyzer::classify(const race::RaceReport &race,
                       const replay::ScheduleTrace &trace,
                       const replay::CheckpointLadder *ladder) const
{
    obs::Span cls_span("classify", "classify-race");
    cls_span.arg("cell", race.cell);
    Stopwatch sw;
    Classification c;
    std::optional<exec::Executor> paths_ex;
    classifyStages(c, paths_ex, race, trace, ladder);
    // The one exit: output comparison issues solver queries up to the
    // verdict, so the ledger is read only here.
    if (paths_ex)
        c.stats.solver_queries = paths_ex->solver().stats().queries;
    c.stats.seconds = sw.seconds();
    return c;
}

void
RaceAnalyzer::classifyStages(Classification &c,
                             std::optional<exec::Executor> &paths_ex,
                             const race::RaceReport &race,
                             const replay::ScheduleTrace &trace,
                             const replay::CheckpointLadder *ladder) const
{
    const std::vector<std::int64_t> inputs0 = trace.concreteInputs();

    // ---- Stage 1: single-pre/single-post (Algorithm 1). ----
    SingleResult s1;
    {
        OBS_SPAN("classify", "stage1");
        s1 = singleClassify(race, trace, inputs0,
                            explore::PostSpec::trace(), ladder, c.stats);
    }
    c.states_differ = s1.states_differ;
    Evidence recorded_ev;
    recorded_ev.inputs = inputs0;
    if (s1.kind != SingleResult::Kind::OutSame) {
        setVerdict(c, s1, &recorded_ev);
        return;
    }

    int witnesses = 1; // stage 1 matched
    c.stats.schedules_explored = 1;

    // ---- Stage 2+3: multi-path, multi-schedule (k = paths x
    // schedules). Each primary path's schedules are judged by an
    // alternate against its symbolic outputs; without multi-path,
    // Algorithm 1 reruns on the recorded inputs per schedule. ----
    if (!opts.multi_path) {
        if (opts.multi_schedule &&
            runSchedules(c, witnesses, recorded_ev, 0, nullptr,
                         [&](const explore::PostSpec &spec) {
                             return singleClassify(race, trace, inputs0,
                                                   spec, ladder,
                                                   c.stats);
                         })) {
            return;
        }
    } else {
        rt::ExecOptions eo = baseOptions();
        eo.input_mode = rt::InputMode::Symbolic;
        eo.max_symbolic_inputs = opts.max_symbolic_inputs;
        eo.sym_inputs = opts.sym_inputs;
        rt::Interpreter sym_interp(prog, eo);

        exec::ExecutorOptions xo;
        xo.max_paths = opts.mp;
        xo.max_states = opts.executor_max_states;
        xo.solver = opts.solver;
        exec::Executor &ex = paths_ex.emplace(xo);
        // Whether decisive verdicts carry a named input witness.
        const bool named = !opts.sym_inputs.empty();

        SemanticMonitor sem(sym_interp, opts.semantic_predicates);
        sym_interp.addSink(&sem);

        std::vector<exec::PathResult> paths;
        {
            OBS_SPAN("sym", "explore-paths");
            paths = ex.explore(
                sym_interp,
                [&] {
                    return std::make_unique<PrimarySearchPolicy>(trace,
                                                                 race);
                },
                [&](const rt::VmState &s) {
                    return PrimarySearchPolicy::racePassed(s, race);
                });
        }
        c.stats.paths_explored = static_cast<int>(paths.size());
        c.stats.states_created = ex.statesCreated();
        absorbStats(c.stats, sym_interp.state());

        const auto pathEvidence = [&](const exec::PathResult &p) {
            Evidence ev;
            ev.inputs = concretizeEnvLog(p.state.env_log, p.model);
            if (named)
                ev.witness = witnessOf(p.state.env_log, p.model);
            return ev;
        };

        // A primary path itself violating the specification is
        // direct evidence of harm (when attributable to this race).
        for (const auto &p : paths) {
            const rt::RunOutcome oc = p.state.outcome;
            if (!rt::isSpecViolation(oc) ||
                ((oc == rt::RunOutcome::CrashOob ||
                  oc == rt::RunOutcome::CrashDivZero) &&
                 !crashInvolvesRaceCell(p.state, race))) {
                continue;
            }
            SingleResult r;
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = violationOf(oc);
            r.detail = p.state.outcome_detail;
            Evidence ev = pathEvidence(p);
            ev.alternate = false;
            setVerdict(c, r, &ev);
            return;
        }
        if (!sem.violation().empty()) {
            SingleResult r;
            r.kind = SingleResult::Kind::SpecViol;
            r.viol = ViolationKind::SemanticAssert;
            r.detail = sem.violation();
            setVerdict(c, r, nullptr);
            return;
        }

        const std::uint64_t recorded = recordedSteps(trace);

        // Under named symbolic inputs the distinct-schedule budget
        // is shared: each path's explorer inherits the interleaving
        // classes earlier paths witnessed (per-path budgeting).
        std::set<std::string> known_sigs;

        int path_index = 0;
        for (const auto &p : paths) {
            path_index += 1;
            // Only cleanly-completed primaries have comparable
            // output streams (crashed ones were handled above).
            if (p.state.outcome != rt::RunOutcome::Exited)
                continue;
            Evidence ev = pathEvidence(p);
            const auto judge = [&](const explore::PostSpec &spec) {
                SingleResult a = runAlternate(race, trace, ev.inputs, spec,
                                              recorded, ladder, c.stats);
                if (a.kind == SingleResult::Kind::OutDiff) {
                    PORTEND_PANIC("alternate runner cannot produce "
                                  "OutDiff directly");
                }
                if (a.kind != SingleResult::Kind::OutSame)
                    return a;
                OutputComparison cmp = compareSymbolicOutputs(
                    p.state.output, p.state.path.constraints(),
                    a.alternate_out, ex.solver(), race.first.tid,
                    race.second.tid);
                if (!cmp.match) {
                    a.kind = SingleResult::Kind::OutDiff;
                    a.output_diff = cmp.diff;
                    a.detail = "outputs diverge on an explored "
                               "path/schedule";
                }
                return a;
            };
            if (runSchedules(c, witnesses, ev, path_index,
                             named ? &known_sigs : nullptr, judge)) {
                return;
            }
        }
    }

    c.cls = RaceClass::KWitnessHarmless;
    c.k = witnesses;
    c.detail = "outputs equivalent across " +
               std::to_string(witnesses) +
               " path-schedule combinations";
}

} // namespace portend::core
