/**
 * @file
 * The PIL interpreter — this repository's Cloud9.
 *
 * A deterministic single-processor cooperative interpreter for
 * multi-threaded PIL programs. Preemption points are synchronization
 * operations, thread operations, yields, and memory accesses to
 * watched (racy) cells; at each one the schedule policy picks the
 * next runnable thread (paper §3.1). Values are symbolic expressions;
 * a ForkHook (implemented by exec::Executor) resolves symbolic
 * control decisions, enabling KLEE-style state forking.
 *
 * The interpreter detects the paper's "basic" specification
 * violations natively: out-of-bounds accesses, division by zero,
 * deadlocks (all live threads blocked, including self-deadlock),
 * failed semantic assertions, and step-budget timeouts (the raw
 * material for infinite-loop vs ad-hoc-synchronization diagnosis).
 */

#ifndef PORTEND_RT_INTERPRETER_H
#define PORTEND_RT_INTERPRETER_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "ir/program.h"
#include "rt/cycle.h"
#include "rt/decode.h"
#include "rt/events.h"
#include "rt/policy.h"
#include "rt/vmstate.h"

namespace portend::rt {

class Interpreter;

/**
 * Instruction dispatch strategy of the step loop. Threaded dispatch
 * (computed goto, a GNU extension) is the fast path; Switch is the
 * portable fallback; Auto resolves to the process-wide default (see
 * setDefaultDispatchMode), which is Threaded when available.
 */
enum class DispatchMode : std::uint8_t { Auto, Switch, Threaded };

/** True when this build can execute with threaded dispatch. */
bool threadedDispatchAvailable();

/** Set the process-wide dispatch default that Auto resolves to
 *  (CLI --dispatch; differential tests flip it per run). */
void setDefaultDispatchMode(DispatchMode m);

/** The current process-wide dispatch default. */
DispatchMode defaultDispatchMode();

/** Printable mode name ("threaded" / "switch" / "auto"). */
const char *dispatchModeName(DispatchMode m);

/**
 * Process-wide switch for the cycle test of Interpreter::run (on by
 * default). Differential tests turn it off to run every spin to its
 * full budget and compare.
 */
void setCycleTestEnabled(bool on);

/** True unless setCycleTestEnabled(false) is in effect. */
bool cycleTestEnabled();

/** Where a symbolic decision arose. */
enum class DecisionKind : std::uint8_t {
    Branch,   ///< conditional branch on symbolic data
    Bounds,   ///< in-bounds check of a symbolic index
    DivZero,  ///< divisor-is-nonzero check
    Assert,   ///< semantic predicate
};

/**
 * Resolver for symbolic control decisions.
 *
 * When the interpreter must decide a symbolic I1 condition, it asks
 * the hook which way *this* execution goes; the hook may clone the
 * interpreter's state beforehand to explore the other way (forking).
 * The interpreter then records the matching path constraint itself.
 */
class ForkHook
{
  public:
    virtual ~ForkHook() = default;

    /**
     * Decide symbolic condition @p cond.
     *
     * @return true when this execution should proceed as if the
     *         condition held
     */
    virtual bool decide(Interpreter &interp, const sym::ExprPtr &cond,
                        DecisionKind kind) = 0;

    /**
     * Choose a concrete value for symbolic @p val (KLEE-style
     * address concretization); the interpreter adds val == result
     * to the path condition.
     */
    virtual std::int64_t concretize(Interpreter &interp,
                                    const sym::ExprPtr &val) = 0;
};

/** How Input instructions produce values. */
enum class InputMode : std::uint8_t {
    Concrete, ///< fixed values (explicit list, else the domain lo)
    Replay,   ///< replay the recorded input log
    Symbolic, ///< fresh symbols with the declared domains
};

/**
 * One named symbolic-input request (see ExecOptions::sym_inputs).
 * Matches Input instructions by their declared label; an optional
 * range overrides the instruction's declared domain.
 */
struct SymInputSpec
{
    std::string name;
    bool has_range = false; ///< when set, [lo, hi] replaces the decl
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/** Interpreter configuration. */
struct ExecOptions
{
    InputMode input_mode = InputMode::Concrete;

    /** Values consumed in order by Input in Concrete mode. */
    std::vector<std::int64_t> concrete_inputs;

    /** Step budget; exceeding it sets RunOutcome::TimedOut. */
    std::uint64_t max_steps = 2000000;

    /**
     * Global step from which run() tests for a provable cycle and, on
     * finding one, skips to the budget instead of interpreting the
     * repeats (see Interpreter::run). The default never tests.
     * Analysis sets it where a normally completing run would already
     * have ended, so such runs pay nothing.
     */
    std::uint64_t cycle_test_from = UINT64_MAX;

    /** Cells whose accesses become preemption points. */
    std::set<int> watched_cells;

    /**
     * Make every global-memory access a preemption point. Portend
     * uses this for detection and analysis runs so that recorded
     * schedule traces align decision-for-decision with replays
     * regardless of which cells are racy.
     */
    bool preempt_on_memory = false;

    /**
     * How many Input instructions become symbolic in Symbolic mode;
     * later inputs take their concrete domain lower bound (the
     * paper's "number of symbolic inputs" dial, §3.3). Ignored when
     * sym_inputs selects inputs by name.
     */
    int max_symbolic_inputs = INT32_MAX;

    /**
     * Named symbolic-input selection. When non-empty (and input_mode
     * is Symbolic), an Input instruction becomes symbolic iff its
     * label matches an entry here — the positional
     * max_symbolic_inputs cap does not apply — and an entry with
     * has_range overrides the instruction's declared domain. When
     * empty, the legacy positional rule applies unchanged.
     */
    std::vector<SymInputSpec> sym_inputs;

    /** Make every Output instruction a preemption point. */
    bool preempt_on_output = false;

    /** Seed for the state-carried RNG. */
    std::uint64_t rng_seed = 1;

    /** Ring size of per-thread recent reads (spin diagnosis). */
    int spin_window = 64;

    /** Step-loop dispatch strategy (Auto = process default). */
    DispatchMode dispatch = DispatchMode::Auto;
};

/**
 * Drives a VmState over a finalized PIL program.
 *
 * The interpreter itself holds no analysis logic; detectors and
 * recorders observe the event stream, and the schedule policy and
 * fork hook steer execution.
 */
class Interpreter
{
  public:
    /** Stop conditions for partial runs (checkpoint placement). */
    struct StopSpec
    {
        /** Stop *before* the given dynamic instruction execution. */
        struct Point
        {
            ThreadId tid;
            int pc;
            std::uint64_t occurrence; ///< 1-based per (tid, pc)
        };

        std::vector<Point> before;

        /**
         * Stop *before* the given (thread, cell) access. Cell-based
         * stops are robust against path divergence moving the racing
         * access to a different pc (paper §3.3, Fig. 4).
         */
        struct CellPoint
        {
            ThreadId tid;
            int cell;
            std::uint64_t occurrence; ///< 1-based per (tid, cell)
        };

        std::vector<CellPoint> before_cell;

        /** Stop once an emitted event satisfies this predicate. */
        std::function<bool(const Event &)> after_event;

        /**
         * Append the state after_event depends on to a cycle key
         * (see run()). The predicate must read only that state and
         * the event's kind, thread, site, and pc — no counters. A
         * spec with before points or an after_event but no key
         * disables the cycle test.
         */
        std::function<void(std::vector<std::uint64_t> &)> cycle_key;

        bool
        empty() const
        {
            return before.empty() && before_cell.empty() &&
                   !after_event;
        }
    };

    /**
     * @param p     finalized program (kept by reference)
     * @param opts  execution configuration
     */
    Interpreter(const ir::Program &p, ExecOptions opts);

    /** Rebuild the initial state (main thread ready at entry). */
    void reset();

    /** Mutable access to the current state (checkpoint = copy). */
    VmState &state() { return st; }
    const VmState &state() const { return st; }

    /** Replace the state (restore a checkpoint / adopt a fork). */
    void setState(VmState s) { st = std::move(s); }

    /** Install the scheduling policy (non-owning; default FIFO). */
    void setPolicy(SchedulePolicy *p) { policy = p; }

    /** Install the symbolic-decision hook (non-owning). */
    void setForkHook(ForkHook *h) { hook = h; }

    /** Attach an event sink (non-owning). */
    void addSink(EventSink *s) { sinks.push_back(s); }

    /** Detach all event sinks. */
    void clearSinks() { sinks.clear(); }

    /**
     * Run to completion (or budget/abort).
     *
     * Past ExecOptions::cycle_test_from, a run with no fork hook,
     * and a policy, sinks, and stop spec that expose cycle keys hashes
     * (VM state, policy state, sink state) at each scheduling decision
     * and runs Brent's cycle detection over it. Keys that match
     * word for word prove the run periodic: the interpreter then adds
     * the counters' per-period growth for every whole period that
     * fits under max_steps, has the policy replicate its history, and
     * interprets only the final partial period. The run ends in
     * exactly the state, counters included, that interpreting to the
     * budget would reach; only interp.steps and interp.preemptions
     * (work done) are lower.
     */
    RunOutcome run();

    /**
     * Run until a stop condition fires or execution finishes.
     *
     * @return the outcome; RunOutcome::Running means a stop
     *         condition fired and the state is resumable
     */
    RunOutcome run(const StopSpec &stop);

    /** True when the last run() returned because a stop fired. */
    bool stopped() const { return stopped_at_spec; }

    /**
     * Indices into the last StopSpec's before_cell list that matched
     * when the run stopped (empty unless stopped() and the stop came
     * from a cell point). Checkpoint-ladder construction uses this
     * to learn which of many requested pre-race points a shared
     * replay just reached.
     */
    const std::vector<std::size_t> &
    firedCellStops() const
    {
        return fired_before_cell;
    }

    /** The program being executed. */
    const ir::Program &program() const { return prog; }

    /** The decoded form of the program (shared across interpreters). */
    const DecodedProgram &decoded() const { return *dec; }

    /** Number of decoded instruction sites (stats ledger). */
    int decodedSites() const { return dec->num_insts; }

    /** The dispatch mode this interpreter executes with. */
    DispatchMode dispatchMode() const
    { return use_threaded ? DispatchMode::Threaded
                          : DispatchMode::Switch; }

    /** The execution options. */
    const ExecOptions &options() const { return opts; }
    ExecOptions &options() { return opts; }

    /**
     * Evaluate an operand in a thread's top frame (pure; boxes
     * concrete values — analysis-side convenience, not the hot path).
     */
    sym::ExprPtr evalOperand(const ThreadState &t,
                             const ir::Operand &o) const;

    /** Evaluate an operand in a thread's top frame as a Value. */
    Value evalValue(const ThreadState &t, const ir::Operand &o) const;

  private:
    /** How one scheduling segment ended. */
    enum class SegExit : std::uint8_t {
        Blocked,    ///< thread blocked/exited/finished/budget
        Preempt,    ///< hit a preemption point (scheduler's turn)
        StopBefore, ///< a before/before_cell stop point matched
        StopEvent,  ///< the after_event predicate fired
    };

    /** Run thread @p tid until its segment ends (switch dispatch). */
    SegExit segmentSwitch(ThreadId tid, bool first);

    /** Run thread @p tid until its segment ends (threaded dispatch;
     *  compiled only when the GNU computed-goto extension exists). */
    SegExit segmentThreaded(ThreadId tid, bool first);

    /** Decoded next instruction of thread @p t. */
    const DecodedInst &
    fetchD(const ThreadState &t) const
    {
        const Frame &f = t.stack->back();
        return dec->funcs[static_cast<std::size_t>(f.func)]
            .insts[static_cast<std::size_t>(f.ip)];
    }

    /** Evaluate decoded operand (@p slot, @p imm) in @p t's frame. */
    Value
    readOperand(const ThreadState &t, int reg_base, std::int32_t slot,
                std::int64_t imm) const
    {
        if (slot >= 0)
            return (*t.regs)[static_cast<std::size_t>(reg_base + slot)];
        return Value::ofConst(imm);
    }

    /** True when @p di is a preemption point for @p t. */
    bool isPreemptionPoint(const ThreadState &t,
                           const DecodedInst &di) const;

    /** Stop-spec check before executing @p di; true when a point
     *  matched (resume state must then be saved). */
    bool checkStops(ThreadId tid, const DecodedInst &di);

    /** Execute one cold (sync/thread/env) instruction. */
    void executeSlow(ThreadId tid, const DecodedInst &di);

    /** Advance past the current instruction of @p t. */
    void advance(ThreadState &t);

    /** Stage @p ev: deliver to immediate sinks and the after_event
     *  stop predicate now, buffer for batched sinks and the policy. */
    void publish(Event ev);

    /** Drain the event buffer to batched sinks and the policy. */
    void flushEvents();

    /** Resolve a symbolic I1 decision (hook / forced queue). */
    bool decideCondition(const sym::ExprPtr &cond, DecisionKind kind);

    /** Resolve a possibly-symbolic index to a concrete value. */
    bool resolveIndex(ThreadId tid, const DecodedInst &di,
                      const Value &idx, int size, std::int64_t &out);

    /** Set a final outcome. */
    void finish(RunOutcome o, ThreadId tid, int pc,
                const std::string &detail);

    /** Mutex acquisition step; true when acquired. */
    bool tryLock(ThreadId tid, ir::SyncId m);

    /** Release @p m, waking one waiter (barging semantics). */
    void unlockMutex(ThreadId tid, ir::SyncId m, int pc,
                     const ir::SourceLoc &loc);

    /** Thread exit bookkeeping: wake joiners, maybe end program. */
    void exitThread(ThreadId tid);

    /**
     * One cycle-test probe before a scheduling decision: key the
     * state, feed the detector, and on a match skip whole periods.
     * @return the steps skipped once a cycle matched (the run needs
     *         no further probes), nullopt while none has
     */
    std::optional<std::uint64_t> cycleProbe(SchedulePolicy &pol);

    /** Add zeroed counter rows for a newly created thread. */
    void addCounterRows();
    VmState buildPristine() const;

    const ir::Program &prog;
    std::shared_ptr<const DecodedProgram> dec;
    ExecOptions opts;
    VmState st;
    bool use_threaded = false;

    SchedulePolicy *policy = nullptr;
    FifoPolicy default_policy;
    ForkHook *hook = nullptr;
    std::vector<EventSink *> sinks;

    const StopSpec *active_stop = nullptr;
    bool stopped_at_spec = false;
    bool stop_event_fired = false;
    std::vector<std::size_t> fired_before_cell;

    /** True while any consumer wants events this run (sinks, an
     *  installed policy, or an after_event stop); when false the hot
     *  loop skips Event construction entirely. */
    bool record_events = false;
    std::vector<EventSink *> immediate_sinks;
    std::vector<EventSink *> batched_sinks;
    /** Reusable staging buffer for batched event delivery. */
    std::vector<Event> event_buf;
    /** Reusable runnable-thread scratch for the scheduler loop. */
    std::vector<ThreadId> runnable_scratch;

    /** Cycle test state of the current run() call. */
    CycleDetector cycle;
    CycleKey cycle_key;
    /** Counters at the detector's reference point: a match's
     *  per-period growth is "now minus these". */
    struct CycleRef
    {
        std::uint64_t global_step = 0;
        std::uint64_t steps = 0;
        std::uint64_t preemptions = 0;
        std::vector<std::uint64_t> thread_steps;
        std::vector<std::vector<std::uint64_t>> counts;
        SchedulePolicy::HistoryMark history;
    } cycle_ref;
};

} // namespace portend::rt

#endif // PORTEND_RT_INTERPRETER_H
