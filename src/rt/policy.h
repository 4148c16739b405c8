/**
 * @file
 * Thread scheduling policies.
 *
 * The interpreter is a single-processor cooperative scheduler (paper
 * §3.1/§6): at every preemption point it asks its SchedulePolicy
 * which runnable thread runs next. Policies also observe the event
 * stream, which is how the replayer enforces racy-access orderings.
 */

#ifndef PORTEND_RT_POLICY_H
#define PORTEND_RT_POLICY_H

#include <cstdint>
#include <utility>
#include <vector>

#include "rt/events.h"
#include "rt/vmstate.h"

namespace portend::rt {

/**
 * Scheduling decision provider.
 */
class SchedulePolicy
{
  public:
    virtual ~SchedulePolicy() = default;

    /**
     * Choose the next thread to run.
     *
     * @param state     current VM state
     * @param runnable  non-empty ascending list of runnable tids
     * @return a tid from @p runnable, or -1 to abort the execution
     *         (reported as RunOutcome::Aborted)
     */
    virtual ThreadId pick(const VmState &state,
                          const std::vector<ThreadId> &runnable) = 0;

    /** Observe an event (default: ignore). */
    virtual void onEvent(const Event &ev) { (void)ev; }

    /**
     * Cycle test support (rt/cycle.h, Interpreter::run). Append the
     * policy state that future pick() calls depend on beyond
     * @p state's own cycle key, and return true. Return false when
     * future picks are not a function of such a key right now — a
     * random policy, a cursor still walking a recorded trace — which
     * skips the test at this decision point. The default opts out.
     */
    virtual bool
    cycleKey(const VmState &state, std::vector<std::uint64_t> &out) const
    {
        (void)state;
        (void)out;
        return false;
    }

    /** Position in the history a recording policy keeps. */
    struct HistoryMark
    {
        std::size_t decisions = 0;
        std::size_t events = 0;
    };

    /** Where this policy's recorded history ends now. */
    virtual HistoryMark historyMark() const { return {}; }

    /**
     * The interpreter proved that the decisions and events since
     * @p mark repeat forever and skipped @p times further repetitions
     * of them; a policy that records what it saw appends them
     * @p times, so its record matches the uncut run's.
     */
    virtual void
    repeatHistory(const HistoryMark &mark, std::uint64_t times)
    {
        (void)mark;
        (void)times;
    }
};

/**
 * Run the current thread as long as possible; otherwise the lowest
 * runnable tid. Deterministic; the default for plain execution.
 */
class FifoPolicy : public SchedulePolicy
{
  public:
    ThreadId
    pick(const VmState &state,
         const std::vector<ThreadId> &runnable) override
    {
        for (ThreadId t : runnable) {
            if (t == state.current)
                return t;
        }
        return runnable.front();
    }
};

/**
 * Uniformly random choice at every preemption point, from the seeded
 * RNG carried in the VM state (so forks replay deterministically).
 */
class RandomPolicy : public SchedulePolicy
{
  public:
    ThreadId
    pick(const VmState &state,
         const std::vector<ThreadId> &runnable) override
    {
        // The RNG lives in the state; pick() is conceptually part of
        // the execution, so we cast away the observer constness here
        // deliberately (documented exception).
        auto &rng = const_cast<VmState &>(state).rng;
        return runnable[rng.below(runnable.size())];
    }
};

/**
 * Round-robin rotation at every preemption point: always yields to
 * the next runnable thread after the current one. Maximizes
 * interleaving for race *detection* runs.
 */
class RotatePolicy : public SchedulePolicy
{
  public:
    ThreadId
    pick(const VmState &state,
         const std::vector<ThreadId> &runnable) override
    {
        for (ThreadId t : runnable) {
            if (t > state.current)
                return t;
        }
        return runnable.front();
    }

    /** Stateless: picks depend on the VM state alone. */
    bool
    cycleKey(const VmState &, std::vector<std::uint64_t> &) const override
    {
        return true;
    }
};

/**
 * What one guided (or observed) execution actually did: the raw
 * material for dependence analysis between schedules. Every
 * scheduling decision is recorded with the runnable set it chose
 * from, and every observable event is mapped onto a *site* — the
 * accessed cell for memory events, a pseudo-site for sync objects,
 * thread lifecycle, and outputs — so two events conflict iff they
 * touch the same site and at least one writes it (or share a
 * thread, i.e. program order).
 */
struct ScheduleObservation
{
    /** One observed event, reduced to its dependence footprint. */
    struct Access
    {
        ThreadId tid = -1;
        int site = 0;     ///< cell id, or a negative pseudo-site
        bool write = false;
        int pick = -1;    ///< index of the decision that scheduled
                          ///< the segment containing this event
                          ///< (-1: before the first observed pick)
    };

    std::vector<Access> accesses;

    /** Chosen thread per decision point, in decision order. */
    std::vector<ThreadId> picks;

    /** Runnable set offered at each decision point. */
    std::vector<std::vector<ThreadId>> enabled;

    bool empty() const { return accesses.empty() && picks.empty(); }

    /** Dependence footprint of one event (see struct comment). */
    static Access
    accessOf(const Event &ev, int pick)
    {
        Access a;
        a.tid = ev.tid;
        a.pick = pick;
        switch (ev.kind) {
          case EventKind::MemRead:
            a.site = ev.cell;
            a.write = false;
            break;
          case EventKind::MemWrite:
            a.site = ev.cell;
            a.write = true;
            break;
          case EventKind::MutexLock:
          case EventKind::MutexUnlock:
          case EventKind::CondWait:
          case EventKind::CondSignal:
          case EventKind::BarrierWait:
            // All operations on one sync object conflict.
            a.site = -(2 + ev.sid);
            a.write = true;
            break;
          case EventKind::ThreadCreate:
          case EventKind::ThreadJoin:
            // Lifecycle events order against the peer thread.
            a.site = -(100000 + ev.other);
            a.write = true;
            break;
          case EventKind::ThreadStart:
          case EventKind::ThreadExit:
            a.site = -(100000 + ev.tid);
            a.write = true;
            break;
          case EventKind::Output:
            // One console: cross-thread output order is observable.
            a.site = -1;
            a.write = true;
            break;
        }
        return a;
    }

    /** True when two accesses may not be reordered. */
    static bool
    dependent(const Access &a, const Access &b)
    {
        return a.tid == b.tid ||
               (a.site == b.site && (a.write || b.write));
    }
};

/**
 * Replays an explorer-issued schedule: consumes an explicit list of
 * thread choices at successive preemption points, then delegates to
 * a fallback policy, recording everything it saw either way. A
 * guided run is fully deterministic (deterministic fallback assumed;
 * a seeded RandomPolicy fallback is deterministic per seed), so any
 * schedule the explorer found interesting replays from its prefix
 * alone — this is what makes explorer evidence replayable.
 *
 * The prefix is consumed by this policy instance's own cursor, not
 * the VM state, so construct a fresh GuidedPolicy per run.
 */
class GuidedPolicy : public SchedulePolicy
{
  public:
    /**
     * @param prefix   thread to schedule at the first, second, ...
     *                 decision point this policy is consulted for
     * @param fallback decision maker past the prefix (non-owning);
     *                 also consulted when a prefix thread is not
     *                 runnable (a diverged replay)
     */
    GuidedPolicy(std::vector<ThreadId> prefix, SchedulePolicy *fallback)
        : prefix(std::move(prefix)), fallback(fallback)
    {}

    ThreadId
    pick(const VmState &state,
         const std::vector<ThreadId> &runnable) override
    {
        const std::size_t idx = obs.picks.size();
        ThreadId chosen = -2;
        if (idx < prefix.size()) {
            for (ThreadId t : runnable) {
                if (t == prefix[idx])
                    chosen = t;
            }
        }
        if (chosen == -2)
            chosen = fallback->pick(state, runnable);
        obs.enabled.push_back(runnable);
        obs.picks.push_back(chosen);
        return chosen;
    }

    void
    onEvent(const Event &ev) override
    {
        obs.accesses.push_back(ScheduleObservation::accessOf(
            ev, static_cast<int>(obs.picks.size()) - 1));
        fallback->onEvent(ev);
    }

    /** Past its prefix the policy is its fallback (which records
     *  no history of its own: rotate or random). */
    bool
    cycleKey(const VmState &state,
             std::vector<std::uint64_t> &out) const override
    {
        return obs.picks.size() >= prefix.size() &&
               fallback->cycleKey(state, out);
    }

    HistoryMark
    historyMark() const override
    {
        return {obs.picks.size(), obs.accesses.size()};
    }

    /** Replicate the observation's last period @p times over. */
    void
    repeatHistory(const HistoryMark &mark, std::uint64_t times) override
    {
        const std::size_t np = obs.picks.size() - mark.decisions;
        const std::size_t na = obs.accesses.size() - mark.events;
        obs.picks.reserve(obs.picks.size() + times * np);
        obs.enabled.reserve(obs.enabled.size() + times * np);
        obs.accesses.reserve(obs.accesses.size() + times * na);
        for (std::uint64_t r = 1; r <= times; ++r) {
            for (std::size_t i = 0; i < np; ++i) {
                obs.picks.push_back(obs.picks[mark.decisions + i]);
                obs.enabled.push_back(obs.enabled[mark.decisions + i]);
            }
            for (std::size_t i = 0; i < na; ++i) {
                ScheduleObservation::Access a =
                    obs.accesses[mark.events + i];
                a.pick += static_cast<int>(r * np);
                obs.accesses.push_back(a);
            }
        }
    }

    /** Everything this run did, for explorer feedback. */
    const ScheduleObservation &observation() const { return obs; }

    /** Move the observation out (the policy is dead afterwards). */
    ScheduleObservation takeObservation() { return std::move(obs); }

  private:
    std::vector<ThreadId> prefix;
    SchedulePolicy *fallback;
    ScheduleObservation obs;
};

} // namespace portend::rt

#endif // PORTEND_RT_POLICY_H
