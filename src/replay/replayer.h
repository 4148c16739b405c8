/**
 * @file
 * Record/replay scheduling policies.
 *
 * Three policies make up Portend's record/replay engine:
 *
 *  - RecordingPolicy decorates any policy and writes the schedule
 *    trace while the program runs.
 *  - TracePolicy replays a recorded trace. Its cursor is derived
 *    from the VM state's preemption-point counter, so a forked or
 *    checkpointed state resumes replay at exactly the right
 *    decision. Strict mode aborts on divergence (used pre-race);
 *    Tolerant mode falls back to an inner policy (used post-race,
 *    paper §3.3's partial trace matching).
 *  - AlternatePolicy enforces the *alternate* ordering of a racing
 *    access pair (Algorithm 1 line 6): it holds the original first
 *    accessor until the second accessor touches the racing cell,
 *    then hands over to a configurable post-race policy.
 */

#ifndef PORTEND_REPLAY_REPLAYER_H
#define PORTEND_REPLAY_REPLAYER_H

#include "ir/program.h"
#include "race/report.h"
#include "replay/trace.h"
#include "rt/policy.h"

namespace portend::replay {

/**
 * Wraps an inner policy, recording every decision into a trace.
 */
class RecordingPolicy : public rt::SchedulePolicy
{
  public:
    /**
     * @param prog  program being executed (to resolve next pcs)
     * @param inner the decision maker (non-owning)
     * @param out   trace receiving decisions (non-owning)
     */
    RecordingPolicy(const ir::Program &prog, rt::SchedulePolicy *inner,
                    ScheduleTrace *out)
        : prog(prog), inner(inner), out(out)
    {}

    rt::ThreadId pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable) override;

    void
    onEvent(const rt::Event &ev) override
    {
        inner->onEvent(ev);
    }

    /** Copy the environment log into the trace after the run. */
    static void captureInputs(const rt::VmState &state,
                              ScheduleTrace *out);

  private:
    const ir::Program &prog;
    rt::SchedulePolicy *inner;
    ScheduleTrace *out;
};

/**
 * Replays a schedule trace.
 */
class TracePolicy : public rt::SchedulePolicy
{
  public:
    /** Divergence handling. */
    enum class Mode {
        Strict,   ///< abort the execution on any divergence
        Tolerant, ///< fall back to the inner policy and continue
    };

    /**
     * @param trace    decisions to follow
     * @param mode     divergence handling
     * @param fallback policy used past the trace end or (in
     *                 Tolerant mode) on divergence; non-owning;
     *                 may be null only in Strict mode
     */
    TracePolicy(const ScheduleTrace &trace, Mode mode,
                rt::SchedulePolicy *fallback = nullptr)
        : trace(trace), mode(mode), fallback(fallback)
    {}

    rt::ThreadId pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable) override;

    /** Number of decisions that could not be followed. */
    int divergences() const { return diverged; }

  private:
    const ScheduleTrace &trace;
    Mode mode;
    rt::SchedulePolicy *fallback;
    int diverged = 0;
};

/**
 * Enforces the alternate ordering of one racing pair, starting from
 * a state stopped just before the first racing access.
 *
 * After the ordering is enforced, the post-race schedule can either
 * continue following the original trace (shifted past the decisions
 * consumed while holding — the deterministic single-alternate of
 * Algorithm 1, which keeps orderings unrelated to the race intact)
 * or hand over to an arbitrary policy (randomized multi-schedule
 * analysis, §3.4).
 */
class AlternatePolicy : public rt::SchedulePolicy
{
  public:
    /**
     * @param race       race whose access order is reversed
     * @param post       policy for post-race decisions the trace
     *                   cannot answer (non-owning)
     * @param post_trace original schedule trace to keep following
     *                   after enforcement (may be null)
     */
    AlternatePolicy(const race::RaceReport &race,
                    rt::SchedulePolicy *post,
                    const ScheduleTrace *post_trace = nullptr)
        : race(race), post(post), post_trace(post_trace)
    {}

    rt::ThreadId pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable) override;

    void onEvent(const rt::Event &ev) override;

    /**
     * While holding, picks depend on the runnable set alone and the
     * release on the second accessor's occurrence count at the racing
     * cell, which is keyed. After the release, keyed once the
     * post-race trace cursor has run off its trace (it counts
     * decisions); from then on every pick is the post policy's.
     */
    bool cycleKey(const rt::VmState &state,
                  std::vector<std::uint64_t> &out) const override;

    /** The hold phase's history is its pick count; afterwards the
     *  post policy's. */
    HistoryMark
    historyMark() const override
    {
        return released ? post->historyMark()
                        : HistoryMark{hold_picks, 0};
    }

    void
    repeatHistory(const HistoryMark &mark, std::uint64_t times) override
    {
        if (released)
            post->repeatHistory(mark, times);
        else
            hold_picks += times * (hold_picks - mark.decisions);
    }

    /** True once the second accessor touched the racing cell. */
    bool enforced() const { return released; }

    /** True when holding starved the schedule (paper case (b)). */
    bool starved() const { return starved_; }

  private:
    /** Index into post_trace of the next post-race decision. */
    std::uint64_t postTraceCursor(const rt::VmState &state) const;

    race::RaceReport race;
    rt::SchedulePolicy *post;
    const ScheduleTrace *post_trace;
    std::uint64_t hold_picks = 0;
    bool released = false;
    bool starved_ = false;
};

} // namespace portend::replay

#endif // PORTEND_REPLAY_REPLAYER_H
