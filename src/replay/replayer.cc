#include "replay/replayer.h"

#include "rt/decode.h"
#include "support/logging.h"

namespace portend::replay {

namespace {

/** Program counter of the next instruction of @p tid. */
int
nextPc(const ir::Program &prog, const rt::VmState &state,
       rt::ThreadId tid)
{
    const rt::ThreadState &t = state.thread(tid);
    if (t.stack->empty())
        return -1;
    const rt::Frame &f = t.stack->back();
    return rt::framePc(prog.function(f.func), f.ip);
}

} // namespace

rt::ThreadId
RecordingPolicy::pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable)
{
    rt::ThreadId tid = inner->pick(state, runnable);
    if (tid >= 0) {
        SchedDecision d;
        d.tid = tid;
        d.pc = nextPc(prog, state, tid);
        d.step = state.global_step;
        out->decisions.push_back(d);
    }
    return tid;
}

void
RecordingPolicy::captureInputs(const rt::VmState &state,
                               ScheduleTrace *out)
{
    out->inputs = state.env_log;
}

rt::ThreadId
TracePolicy::pick(const rt::VmState &state,
                  const std::vector<rt::ThreadId> &runnable)
{
    // Cursor derives from the state so forked/restored states resume
    // replay at the correct decision without policy-side bookkeeping.
    std::uint64_t idx = state.stats.preemption_points;
    if (idx < trace.decisions.size()) {
        const SchedDecision &d = trace.decisions[idx];
        for (rt::ThreadId t : runnable) {
            if (t == d.tid)
                return t;
        }
        // Recorded thread not runnable: divergence.
        diverged += 1;
        if (mode == Mode::Strict)
            return -1;
        PORTEND_ASSERT(fallback, "tolerant TracePolicy needs fallback");
        return fallback->pick(state, runnable);
    }
    // Past the end of the trace.
    if (mode == Mode::Strict && !fallback)
        return -1;
    if (fallback)
        return fallback->pick(state, runnable);
    return runnable.front();
}

std::uint64_t
AlternatePolicy::postTraceCursor(const rt::VmState &state) const
{
    // Shifted past the decisions the hold phase consumed. One extra
    // slot is re-issued: the pre-race stop consumed the held
    // thread's scheduling slot without executing its segment.
    const std::uint64_t skip = hold_picks + 1;
    return state.stats.preemption_points >= skip
               ? state.stats.preemption_points - skip
               : 0;
}

bool
AlternatePolicy::cycleKey(const rt::VmState &state,
                          std::vector<std::uint64_t> &out) const
{
    out.push_back(released);
    if (!released) {
        out.push_back(
            state.cellAccessCount(race.second.tid, race.cell));
        return true;
    }
    if (post_trace &&
        postTraceCursor(state) < post_trace->decisions.size()) {
        return false;
    }
    return post->cycleKey(state, out);
}

rt::ThreadId
AlternatePolicy::pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable)
{
    if (released) {
        // Post-race: prefer the original trace, so orderings
        // unrelated to the reversed pair stay as recorded.
        if (post_trace) {
            const std::uint64_t idx = postTraceCursor(state);
            if (idx < post_trace->decisions.size()) {
                rt::ThreadId want = post_trace->decisions[idx].tid;
                for (rt::ThreadId t : runnable) {
                    if (t == want)
                        return t;
                }
            }
        }
        return post->pick(state, runnable);
    }

    // Hold the original first accessor; drive the second accessor
    // toward its racing access.
    hold_picks += 1;
    std::vector<rt::ThreadId> allowed;
    for (rt::ThreadId t : runnable) {
        if (t != race.first.tid)
            allowed.push_back(t);
    }
    if (allowed.empty()) {
        starved_ = true;
        return -1;
    }
    for (rt::ThreadId t : allowed) {
        if (t == race.second.tid)
            return t;
    }
    return allowed.front();
}

void
AlternatePolicy::onEvent(const rt::Event &ev)
{
    if (released) {
        post->onEvent(ev);
        return;
    }
    // Tolerant matching (paper §3.3): the second thread's access to
    // the racing cell counts as the alternate-ordered access even at
    // a different program counter, but it must reach the recorded
    // dynamic occurrence — earlier accesses to the same cell were
    // already ordered before the held access in the primary.
    std::uint64_t want = race.second.cell_occurrence > 0
                             ? race.second.cell_occurrence
                             : 1;
    if ((ev.kind == rt::EventKind::MemRead ||
         ev.kind == rt::EventKind::MemWrite) &&
        ev.tid == race.second.tid && ev.cell == race.cell &&
        ev.cell_occurrence >= want) {
        released = true;
    }
}

} // namespace portend::replay
