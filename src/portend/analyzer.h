/**
 * @file
 * Portend's race analysis engine.
 *
 * Implements the paper's analysis pipeline per race:
 *
 *  1. Single-pre/single-post analysis (Algorithm 1): replay the
 *     recorded trace to just before the first racing access, take
 *     the pre-race checkpoint, finish the primary, then enforce the
 *     alternate ordering from the checkpoint and observe the
 *     consequences (crash, deadlock, hang/ad-hoc sync, output
 *     difference).
 *  2. Multi-path analysis (Algorithm 2): explore up to Mp primary
 *     paths that still satisfy the schedule trace but take different
 *     input-dependent branches (symbolic inputs), recording
 *     symbolic outputs.
 *  3. Multi-schedule analysis: for each primary, run Ma alternate
 *     executions with randomized post-race schedules and compare
 *     their concrete outputs against the primary's symbolic outputs.
 *
 * The verdict is one of the four taxonomy categories; "k-witness
 * harmless" verdicts carry k, the number of successful path x
 * schedule witnesses.
 */

#ifndef PORTEND_PORTEND_ANALYZER_H
#define PORTEND_PORTEND_ANALYZER_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "explore/explorer.h"
#include "ir/program.h"
#include "portend/classify.h"
#include "race/report.h"
#include "replay/checkpoint.h"
#include "replay/replayer.h"
#include "replay/trace.h"
#include "rt/interpreter.h"
#include "rt/semantics.h"
#include "rt/staticinfo.h"

namespace portend::core {

/**
 * A semantic predicate: invoked on every event of an analysis run;
 * returns a non-empty violation description when the "high level"
 * specification is broken (paper §3.5, e.g. "fmm timestamps must
 * not go backwards"). Defined in rt/semantics.h (with its monitor)
 * so the replay layer's checkpoint ladder can snapshot and restore
 * monitor state; aliased here for the public API.
 */
using SemanticPredicate = rt::SemanticPredicate;

/** Which race detector feeds the classifier. */
enum class DetectorKind : std::uint8_t {
    HappensBefore,        ///< vector-clock detector (default)
    HappensBeforeNoMutex, ///< HB blind to mutexes (imperfect detector)
    Lockset,              ///< Eraser-style lockset detector
};

/** Portend configuration (the paper's dials). */
struct PortendOptions
{
    int mp = 5;                 ///< primary paths (Mp)

    /**
     * Alternate schedules per primary (Ma). Stage 3 first runs Ma
     * seeded random schedules, then keeps issuing systematic ones
     * until Ma Mazurkiewicz-inequivalent post-race interleavings
     * were witnessed (or the space/run cap is exhausted).
     */
    int ma = 2;
    bool adhoc_detection = true;   ///< classify hangs as single ordering
    bool multi_path = true;        ///< enable stage 2
    bool multi_schedule = true;    ///< enable stage 3
    int max_symbolic_inputs = 2;   ///< inputs made symbolic in stage 2

    /**
     * Named symbolic-input selection for stage 2 (CLI --sym-input).
     * When non-empty, only Input instructions whose label matches an
     * entry become symbolic (max_symbolic_inputs is ignored), stage
     * 3's distinct-schedule budget is shared across primary paths,
     * and decisive verdicts record a named witness
     * (Classification::evidence_witness). Empty = legacy positional
     * selection.
     */
    std::vector<rt::SymInputSpec> sym_inputs;

    /**
     * Hang threshold of an alternate run. With `pre` the global step
     * of the pre-race checkpoint and `end` the global step at which
     * the primary ended (stage 1), or the recorded trace's length
     * (stages 2-3 and evidence replay), the alternate's body is
     * `end - pre` (1000 when `end <= pre`) and it times out at
     *
     *     min(max_steps, pre + timeout_factor * body + 2000)
     *
     * A primary that crashed is no yardstick, so its alternate gets
     * max_steps outright. A timed-out alternate is an infinite loop
     * or busy-wait ad-hoc synchronization (paper §3.2). Past
     * `pre + body` (the crash step, for a crashed primary), the
     * interpreter skips the repeats of a provable spin loop and ends
     * the run in the state the budget would reach anyway
     * (rt::Interpreter::run).
     */
    std::uint64_t timeout_factor = 5;

    /**
     * Absolute step budget: no interpreter run of an analysis goes
     * past global step max_steps, the pre-race prefix included.
     * Every alternate budget is clamped to it (see timeout_factor).
     */
    std::uint64_t max_steps = 2000000;
    std::uint64_t detection_seed = 1;  ///< seed for detection run
    DetectorKind detector = DetectorKind::HappensBefore;

    /** Unread; kept because perfbench/driver.cc still copies it. */
    explore::ExploreMode explore = explore::ExploreMode::Dpor;

    /**
     * Preemption bound of the stage-3 explorer: systematic candidates
     * carrying more injected preemptions than this are not generated
     * (CHESS-style bounding; the random phase is unbounded).
     */
    int preemption_bound = 4;

    std::vector<SemanticPredicate> semantic_predicates;
    sym::SolverOptions solver;
    int executor_max_states = 512;

    /**
     * Classification worker threads used by the scheduler
     * (0 = one per hardware thread). Purely a throughput dial:
     * verdicts are byte-identical for every value.
     */
    int jobs = 1;

    /**
     * Run-global symbolic-state budget shared by every cluster of
     * one classification batch. The scheduler slices it into fixed
     * per-cluster caps (cluster count known up front, so slices are
     * independent of worker interleaving and results stay
     * deterministic); a slice never exceeds executor_max_states but
     * also never drops below 1, so with more clusters than budget
     * the aggregate may exceed the nominal total (every cluster is
     * always allowed to make progress). 0 = no global cap: each
     * cluster gets executor_max_states.
     */
    int total_state_budget = 0;

    /**
     * Run-global interpreter-step budget across all clusters of one
     * batch, sliced per cluster like total_state_budget (against
     * max_steps, same floor of 1). 0 = no global cap.
     */
    std::uint64_t total_step_budget = 0;
};

/** Event sink evaluating semantic predicates (see rt/semantics.h). */
using SemanticMonitor = rt::SemanticMonitor;

/**
 * Schedule policy for multi-path primary exploration: follows the
 * recorded trace strictly until the racing accesses have happened
 * (pruning divergent paths, Fig. 5), then tolerantly.
 */
class PrimarySearchPolicy : public rt::SchedulePolicy
{
  public:
    PrimarySearchPolicy(const replay::ScheduleTrace &trace,
                        const race::RaceReport &race)
        : trace(trace), race(race)
    {}

    rt::ThreadId pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable) override;

    /** True once both racing accesses reached their occurrence. */
    static bool racePassed(const rt::VmState &state,
                           const race::RaceReport &race);

  private:
    const replay::ScheduleTrace &trace;
    const race::RaceReport &race;
};

/**
 * Classifies one race at a time; construct once per program (or one
 * per scheduler worker, sharing one StaticInfo).
 *
 * Thread compatibility: classify() is const and touches only the
 * (immutable) program, the shared read-only StaticInfo, and
 * analyzer-local interpreters/solvers, so distinct RaceAnalyzer
 * instances may classify concurrently on different threads.
 */
class RaceAnalyzer
{
  public:
    /** Own a freshly computed StaticInfo (single-analyzer use). */
    RaceAnalyzer(const ir::Program &prog, const PortendOptions &opts);

    /**
     * Share an already-computed StaticInfo (scheduler workers):
     * @p shared_static must outlive the analyzer and is only read.
     */
    RaceAnalyzer(const ir::Program &prog, const PortendOptions &opts,
                 const rt::StaticInfo &shared_static);

    /**
     * Classify @p race given the recorded @p trace of the execution
     * that exposed it.
     *
     * @param ladder optional shared replay-prefix checkpoint ladder
     *        built over the same (program, trace, options); the
     *        analyzer forks pre-race states from its rung instead of
     *        replaying the prefix from step 0. Verdicts and ledger
     *        stats are byte-identical with or without a ladder —
     *        only wall-clock time changes.
     */
    Classification
    classify(const race::RaceReport &race,
             const replay::ScheduleTrace &trace,
             const replay::CheckpointLadder *ladder = nullptr) const;

    /**
     * The interpreter options every replay-based analysis run uses
     * (and a CheckpointLadder build must match): preempt on every
     * memory access, @p opts' step budget, default RNG seed.
     */
    static rt::ExecOptions replayOptions(const PortendOptions &opts);

    /** Result of replaying a classification's evidence (§3.6). */
    struct EvidenceReplay
    {
        rt::RunOutcome outcome = rt::RunOutcome::Running;
        std::string detail;
        rt::OutputLog output;
    };

    /**
     * Deterministically re-execute the interleaving a verdict's
     * evidence describes (inputs + enforced alternate ordering +
     * post-race schedule seed). For a "spec violated" verdict the
     * replay reproduces the crash/deadlock/hang; this is the
     * replayable trace the paper hands to the developer's debugger.
     */
    EvidenceReplay replayEvidence(const race::RaceReport &race,
                                  const replay::ScheduleTrace &trace,
                                  const Classification &verdict) const;

  private:
    /** Outcome of one primary/alternate pair (Algorithm 1). */
    struct SingleResult
    {
        enum class Kind {
            SpecViol,
            OutDiff,
            OutSame,
            SingleOrd,
            NotReached, ///< replay did not reach the race
            Skipped,    ///< alternate unenforceable on this path
        };

        Kind kind = Kind::NotReached;
        ViolationKind viol = ViolationKind::None;
        std::string detail;
        std::string output_diff;
        bool states_differ = false;
        std::uint64_t primary_steps = 0;
        rt::OutputLog primary_out;
        rt::OutputLog alternate_out;

        /**
         * What the alternate did after enforcement (Random/Guided
         * post specs only): the explorer's feedback. Valid only when
         * alternate_enforced — a starved or never-exercised alternate
         * witnessed no post-race schedule and must not be recorded.
         */
        rt::ScheduleObservation observation;
        bool alternate_enforced = false;
    };

    /** Full Algorithm 1 on concrete inputs. */
    SingleResult singleClassify(const race::RaceReport &race,
                                const replay::ScheduleTrace &trace,
                                const std::vector<std::int64_t> &inputs,
                                const explore::PostSpec &post,
                                const replay::CheckpointLadder *ladder,
                                AnalysisStats &stats) const;

    /**
     * Alternate-only analysis for a multi-path primary: replays
     * concretized inputs to the pre-race point, enforces the
     * alternate ordering, and returns its outcome and outputs.
     * The post-race schedule is whatever @p post prescribes —
     * stage 3 feeds explorer-issued specs through here.
     */
    SingleResult runAlternate(const race::RaceReport &race,
                              const replay::ScheduleTrace &trace,
                              const std::vector<std::int64_t> &inputs,
                              const explore::PostSpec &post,
                              std::uint64_t primary_steps,
                              const replay::CheckpointLadder *ladder,
                              AnalysisStats &stats) const;

    /** The replayable evidence behind a decisive verdict (§3.6). */
    struct Evidence
    {
        std::vector<std::int64_t> inputs;
        std::vector<WitnessInput> witness; ///< named symbolic inputs only
        bool alternate = true;  ///< the harmful ordering is the alternate
        explore::PostSpec post; ///< post-race schedule (trace = stage 1's)
        std::string signature;  ///< its interleaving class, if observed
    };

    /**
     * The one place a verdict other than k-witness harmless is
     * written: @p r's class, violation, detail and output diff, plus
     * @p ev as the evidence of a spec-violated or output-differs
     * verdict (null: no replayable evidence).
     */
    static void setVerdict(Classification &c, const SingleResult &r,
                           const Evidence *ev);

    /** Stages 1-3 (the caller records the solver and time ledgers). */
    void classifyStages(Classification &c,
                        std::optional<exec::Executor> &paths_ex,
                        const race::RaceReport &race,
                        const replay::ScheduleTrace &trace,
                        const replay::CheckpointLadder *ladder) const;

    /** Judges one post-race schedule on one input vector. */
    using Judge = std::function<SingleResult(const explore::PostSpec &)>;

    /**
     * The stage-2/3 schedule loop for one input vector: under
     * multi-schedule, every schedule a ScheduleExplorer issues (seeds
     * from path * 16; inheriting and updating @p known when non-null),
     * otherwise exactly one trace-following alternate. Each OutSame
     * judgement is a witness (under an explorer, only a fresh
     * interleaving class). A SpecViol or OutDiff sets the verdict with @p ev as
     * its evidence and ends the loop.
     *
     * @return true when a schedule decided the verdict
     */
    bool runSchedules(Classification &c, int &witnesses, Evidence &ev,
                      int path, std::set<std::string> *known,
                      const Judge &judge) const;

    /** The recorded execution's length in steps: the primary length
     *  of stage 2-3 alternates (max_steps when nothing was recorded). */
    std::uint64_t recordedSteps(const replay::ScheduleTrace &trace) const;

    /** Where the primary an alternate is measured against ended. */
    struct PrimaryEnd
    {
        std::uint64_t step = 0; ///< global step at the primary's end
        bool crashed = false;   ///< ended in an unrelated crash
    };

    /**
     * The one derivation of every alternate's step limits: set
     * @p eo's max_steps and cycle_test_from from the pre-race step
     * and the primary's end, as documented on
     * PortendOptions::timeout_factor.
     */
    void setAlternateBudget(rt::ExecOptions &eo, std::uint64_t pre_steps,
                            const PrimaryEnd &primary) const;

    /**
     * The ladder rung for @p race's pre-race point, or nullptr when
     * @p ladder is absent, was built over different inputs, or its
     * rung lies beyond this analyzer's step budget (a tighter budget
     * must time out exactly as a from-0 replay would).
     */
    const replay::CheckpointLadder::Rung *
    usableRung(const replay::CheckpointLadder *ladder,
               const race::RaceReport &race,
               const std::vector<std::int64_t> &inputs) const;

    /**
     * The ladder's end rung when a primary forked from a usable rung
     * may adopt it in place of replaying the tail, or nullptr: the
     * replay must have ended on its own (not TimedOut) below this
     * analyzer's max_steps, which a sliced budget can set beneath
     * the ladder's.
     */
    const replay::CheckpointLadder::Rung *
    usableEnd(const replay::CheckpointLadder *ladder) const;

    /**
     * Core of Algorithm 1 lines 5-22: enforce the alternate ordering
     * from a pre-race state and observe the consequences.
     *
     * @param pre            state stopped just before the first
     *                       racing access
     * @param primary        where the primary ended (the alternate's
     *                       yardstick, see setAlternateBudget)
     * @param post_primary   primary's post-race snapshot for the
     *                       state-diff criterion (may be null)
     * @param post_trace     original trace for deterministic
     *                       post-race scheduling (null = policy only)
     * @param primary_second_count  dynamic executions of the second
     *                       racing instruction in the primary; when
     *                       non-zero and the alternate re-executes
     *                       it more often, the second thread looped
     *                       back through its racing access — the
     *                       busy-wait signature of ad-hoc
     *                       synchronization ("single ordering")
     */
    SingleResult runAlternateFromState(
        const rt::VmState &pre, const race::RaceReport &race,
        const std::vector<std::int64_t> &inputs,
        const explore::PostSpec &post, const PrimaryEnd &primary,
        const rt::VmState *post_primary,
        const replay::ScheduleTrace *post_trace,
        std::uint64_t primary_second_count, AnalysisStats &stats) const;

    /** Base interpreter options for analysis runs. */
    rt::ExecOptions baseOptions() const;

    /**
     * Infinite-loop vs ad-hoc-sync diagnosis at a timeout: true when
     * no live thread can write the cells the spinners read.
     */
    bool diagnoseInfiniteLoop(const rt::VmState &state) const;

    /** Map a final run outcome to a violation kind. */
    ViolationKind violationOf(rt::RunOutcome o) const;

    /**
     * Attribution check: does the crash at the final state's
     * outcome pc involve the racing cell's global in the value
     * chains of its operands? A crash whose faulting data has
     * nothing to do with the analyzed race is an *unrelated* bug
     * surfaced by schedule perturbation; the paper queues such
     * finds as separate reports (§6) rather than blaming the race
     * under analysis. Deadlocks and hangs are global conditions and
     * are always attributed.
     */
    bool crashInvolvesRaceCell(const rt::VmState &final_state,
                               const race::RaceReport &race) const;

    /** Fold a run's counters into @p stats. */
    static void absorbStats(AnalysisStats &stats, const rt::VmState &s);

    const ir::Program &prog;
    PortendOptions opts;

    /** Set by the owning constructor only; workers leave it null. */
    std::unique_ptr<rt::StaticInfo> owned_static;

    /** The may-write facts consulted during classification
     *  (read-only; points at owned_static or the shared copy). */
    const rt::StaticInfo &static_info;
};

} // namespace portend::core

#endif // PORTEND_PORTEND_ANALYZER_H
