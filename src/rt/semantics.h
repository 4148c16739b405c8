/**
 * @file
 * Semantic predicates and their event-stream monitor.
 *
 * A semantic predicate is the paper's "high level" specification
 * (§3.5): a callback invoked on every event of an analysis run that
 * returns a non-empty violation description when the property is
 * broken (e.g. "fmm timestamps must not go backwards"). The scratch
 * map is private to one execution, letting predicates express
 * stateful properties like monotonicity without leaking state across
 * replays.
 *
 * This lives in rt/ (not portend/) because the replay layer's
 * checkpoint ladder must snapshot and restore monitor state: a run
 * resumed from a cached mid-execution checkpoint has to behave as if
 * its monitor had observed the whole prefix, so the ladder stores a
 * SemanticSnapshot per rung and the resuming analyzer seeds its
 * monitor from it.
 */

#ifndef PORTEND_RT_SEMANTICS_H
#define PORTEND_RT_SEMANTICS_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "rt/events.h"

namespace portend::rt {

class Interpreter;

/**
 * One semantic predicate: returns a non-empty violation description
 * when the specification is broken at this event.
 */
using SemanticPredicate = std::function<std::string(
    const Interpreter &, const Event &,
    std::map<std::string, std::int64_t> &scratch)>;

/**
 * Everything a SemanticMonitor accumulates over a run; captured at
 * checkpoint-ladder rungs and restored on resume.
 */
struct SemanticSnapshot
{
    std::map<std::string, std::int64_t> scratch;
    std::string violation;
    int violation_cell = -1;
};

/**
 * Event sink evaluating semantic predicates during a run.
 */
class SemanticMonitor : public EventSink
{
  public:
    SemanticMonitor(const Interpreter &interp,
                    const std::vector<SemanticPredicate> &preds)
        : interp(interp), preds(preds)
    {}

    /** Predicates sample live interpreter state (memory cells), so
     *  batching would show them post-segment values; opt out. */
    bool immediate() const override { return true; }

    void
    onEvent(const Event &ev) override
    {
        if (!state_.violation.empty())
            return;
        for (const auto &p : preds) {
            std::string msg = p(interp, ev, state_.scratch);
            if (!msg.empty()) {
                state_.violation = msg;
                state_.violation_cell = ev.cell;
                return;
            }
        }
    }

    /** Without predicates the monitor never reacts to an event. A
     *  predicate is opaque (it may read any counter), so a monitor
     *  with one keeps every event. */
    bool
    cycleKey(std::vector<std::uint64_t> &) const override
    {
        return preds.empty();
    }

    /** Non-empty when a predicate was violated. */
    const std::string &violation() const { return state_.violation; }

    /** Cell of the violating event (-1 when not cell-related). */
    int violationCell() const { return state_.violation_cell; }

    /** Accumulated monitor state (checkpoint capture). */
    const SemanticSnapshot &snapshot() const { return state_; }

    /**
     * Adopt the monitor state a prefix run accumulated; the monitor
     * then observes a resumed execution exactly as if it had watched
     * the prefix itself.
     */
    void restore(const SemanticSnapshot &s) { state_ = s; }

  private:
    const Interpreter &interp;
    const std::vector<SemanticPredicate> &preds;
    SemanticSnapshot state_;
};

} // namespace portend::rt

#endif // PORTEND_RT_SEMANTICS_H
