/**
 * @file
 * The shared replay-prefix checkpoint ladder.
 *
 * Classifying one detection run's race clusters replays the same
 * recorded schedule prefix over and over: every cluster's Algorithm 1
 * (and each of its Ma multi-schedule repetitions) re-executes the
 * trace from step 0 just to reach its pre-race point. The ladder
 * eliminates that redundancy: one replay of the trace stops at every
 * cluster's pre-race point in turn and caches the interpreter state
 * there as a *rung* — a copy-on-write VmState checkpoint, so each
 * rung costs O(pages), not O(state). Analyzers then fork from their
 * rung instead of replaying the prefix.
 *
 * Equivalence contract: a rung is byte-identical to the state the
 * analyzer's own from-0 replay would have produced, because both use
 * the same deterministic interpreter, the same concrete inputs, and
 * schedule policies that agree decision-for-decision on a faithful
 * replay (the policy cursor is derived from the VmState, so a
 * restored rung resumes the trace at exactly the right decision).
 * Each rung also carries a SemanticSnapshot: the monitor state at
 * the stop, so semantic predicates observe a resumed run exactly as
 * they would a full one. Classification with a ladder is therefore
 * byte-identical to classification without one — only faster.
 *
 * Past its last target the build keeps replaying until the run ends
 * and caches that final state as the *end rung*. The strict replay
 * with its rotate fallback picks from the VmState alone, so every
 * cluster's primary of the same trace replays the same tail to the
 * same final state; an analyzer whose budget admits the whole run
 * adopts the end rung instead of replaying the tail again.
 *
 * Sharing contract: after build() the ladder is immutable. Scheduler
 * workers read it concurrently and *copy* rung states (cheap COW
 * copies; the copy only touches atomic reference counts). Nobody
 * mutates a rung.
 */

#ifndef PORTEND_REPLAY_CHECKPOINT_H
#define PORTEND_REPLAY_CHECKPOINT_H

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "ir/program.h"
#include "race/report.h"
#include "replay/trace.h"
#include "rt/interpreter.h"
#include "rt/semantics.h"
#include "rt/vmstate.h"

namespace portend::replay {

/**
 * Cached pre-race checkpoints over one (program, trace) pair.
 */
class CheckpointLadder
{
  public:
    /**
     * One requested checkpoint location: stop *before* the
     * occurrence-th access of (tid, cell) — the same cell-based
     * addressing Interpreter::StopSpec::CellPoint uses (robust
     * against path divergence, paper §3.3).
     */
    struct Target
    {
        rt::ThreadId tid = -1;
        int cell = -1;
        std::uint64_t occurrence = 1;
    };

    /** The pre-race point of one race report (Algorithm 1's stop). */
    static Target
    targetFor(const race::RaceReport &race)
    {
        return {race.first.tid, race.cell,
                race.first.cell_occurrence};
    }

    /** Pre-race points of every cluster representative, in order. */
    static std::vector<Target>
    targetsFor(const std::vector<race::RaceCluster> &clusters)
    {
        std::vector<Target> targets;
        targets.reserve(clusters.size());
        for (const race::RaceCluster &c : clusters)
            targets.push_back(targetFor(c.representative));
        return targets;
    }

    /** One cached checkpoint. */
    struct Rung
    {
        /** Interpreter state stopped just before the target access
         *  (resume flags included, so setState + run continues it). */
        rt::VmState state;

        /** Monitor state at the stop (see rt/semantics.h). */
        rt::SemanticSnapshot semantics;
    };

    CheckpointLadder() = default;

    /**
     * Build the ladder: replay @p trace once (strict trace policy
     * with a rotate fallback — the same pre-race replay every
     * analyzer runs), stopping at each target in dynamic order and
     * caching a rung there. Targets the replay never reaches (e.g.
     * the execution crashes first) simply get no rung; lookups miss
     * and callers fall back to their own replay. Once at least one
     * rung exists, the build replays on to the end of the run and
     * caches the final state as the end rung.
     *
     * @param prog    finalized program under test
     * @param trace   recorded schedule trace (its inputs drive the
     *                replay)
     * @param targets requested checkpoint locations (duplicates
     *                collapse onto one rung)
     * @param eo      interpreter options; must match the options the
     *                consuming analyzers replay with (see
     *                core::RaceAnalyzer::replayOptions)
     * @param preds   semantic predicates monitored during the build
     */
    static CheckpointLadder
    build(const ir::Program &prog, const ScheduleTrace &trace,
          const std::vector<Target> &targets, const rt::ExecOptions &eo,
          const std::vector<rt::SemanticPredicate> &preds);

    /**
     * The rung for (tid, cell, occurrence), or nullptr when the
     * build never reached that point.
     */
    const Rung *find(rt::ThreadId tid, int cell,
                     std::uint64_t occurrence) const;

    /** Concrete inputs the build replayed with; a consumer must
     *  replay the same inputs for its rung to be valid. */
    const std::vector<std::int64_t> &inputs() const { return inputs_; }

    /**
     * The end rung: the replay's final state (finished, possibly
     * TimedOut under the build's budget) and the monitor state
     * there, or nullptr when the build cached no pre-race rung.
     */
    const Rung *end() const { return end_ ? &*end_ : nullptr; }

    /** Number of cached pre-race rungs (the end rung not included). */
    std::size_t size() const { return rungs_.size(); }

    /** Interpreter steps the one shared build replay executed, the
     *  tail it replays to the end rung included. */
    std::uint64_t buildSteps() const { return build_steps_; }

    /**
     * Replay-prefix steps the ladder saves its consumers: for each
     * requested target that got a rung, the prefix length that no
     * longer needs re-execution (one count per *target*, though
     * stage 3 reuses each rung Ma more times).
     */
    std::uint64_t prefixStepsCovered() const { return covered_steps_; }

  private:
    using Key = std::tuple<rt::ThreadId, int, std::uint64_t>;

    std::vector<Rung> rungs_;
    std::optional<Rung> end_;
    std::map<Key, std::size_t> index_;
    std::vector<std::int64_t> inputs_;
    std::uint64_t build_steps_ = 0;
    std::uint64_t covered_steps_ = 0;
};

} // namespace portend::replay

#endif // PORTEND_REPLAY_CHECKPOINT_H
