/**
 * @file
 * Value-semantic virtual machine state with copy-on-write internals.
 *
 * Everything the interpreter mutates lives in VmState, and VmState is
 * plainly copyable: copying it is Portend's checkpoint primitive
 * (pre-race / post-race checkpoints of Algorithm 1) and the fork
 * primitive of multi-path exploration. The heavy containers — the
 * paged memory image, per-thread frame stacks, and the dynamic
 * access-count maps — are structurally shared between copies
 * (support/cow.h): a checkpoint costs O(pages + threads), and a
 * resumed fork pays per touched page/stack/map, never for the whole
 * state. Expression nodes were always immutable and shared.
 */

#ifndef PORTEND_RT_VMSTATE_H
#define PORTEND_RT_VMSTATE_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/program.h"
#include "rt/events.h"
#include "rt/value.h"
#include "support/cow.h"
#include "support/hash.h"
#include "support/rng.h"
#include "sym/solver.h"

namespace portend::rt {

/**
 * The flat global-memory image, split into fixed-size pages that
 * copies share until written (the checkpoint write barrier lives in
 * write()). Reads never unshare.
 */
class MemImage
{
  public:
    /** Cells per page: small enough that a barrier copy is cheap,
     *  large enough that the page vector stays short. */
    static constexpr std::size_t kPageCells = 64;

    MemImage() = default;

    /**
     * Bulk-build the image from initial cell values. Pages are
     * assembled locally and moved in whole, so construction is
     * O(cells) with no per-cell write barriers (appending cell by
     * cell paid an rw() share check per cell).
     */
    explicit MemImage(std::vector<Value> cells);

    /** Number of cells. */
    std::size_t size() const { return n; }

    /** Read cell @p i (never unshares). */
    const Value &
    operator[](std::size_t i) const
    {
        return pages[i / kPageCells].ro()[i % kPageCells];
    }

    /** Write cell @p i, cloning its page first when shared. */
    void
    write(std::size_t i, Value v)
    {
        auto &pg = pages[i / kPageCells];
        if (!pg.unique())
            unshared_ += 1;
        pg.rw()[i % kPageCells] = std::move(v);
    }

    /** Append a cell during incremental construction (tests). */
    void
    append(Value v)
    {
        if (n % kPageCells == 0)
            pages.emplace_back();
        pages.back().rw().push_back(std::move(v));
        n += 1;
    }

    /** Pages cloned by the write barrier over this image's lifetime
     *  (stats ledger; copies inherit the parent's count). */
    std::uint64_t unsharedCount() const { return unshared_; }

    /**
     * True when the page holding cell @p i is structurally shared
     * with @p o's (then every cell of the page compares equal, so
     * state diffing can hop to pageEnd(i) without reading cells).
     */
    bool
    sharesPage(std::size_t i, const MemImage &o) const
    {
        const std::size_t pg = i / kPageCells;
        return pg < o.pages.size() &&
               pages[pg].sharedWith(o.pages[pg]);
    }

    /** First cell index past the page holding cell @p i. */
    std::size_t
    pageEnd(std::size_t i) const
    {
        return std::min(n, (i / kPageCells + 1) * kPageCells);
    }

    /** Force-unshare every page (deep-copy baseline for benches). */
    void
    unshareAll()
    {
        for (auto &p : pages)
            p.rw();
    }

  private:
    std::size_t n = 0;
    std::uint64_t unshared_ = 0;
    std::vector<Cow<std::vector<Value>>> pages;
};

/** Scheduling status of one thread. */
enum class ThreadStatus : std::uint8_t {
    Runnable,
    BlockedMutex,   ///< waiting to acquire a mutex
    BlockedCond,    ///< waiting on a condition variable
    BlockedJoin,    ///< waiting for another thread to exit
    BlockedBarrier, ///< waiting at a barrier
    Exited,
};

/** Printable status name. */
const char *threadStatusName(ThreadStatus s);

/**
 * One stack frame of a thread.
 *
 * Frames no longer own their registers: a thread's frames share one
 * register arena (ThreadState::regs), each frame claiming the slice
 * [reg_base, reg_base + num_regs) of it. Call grows the arena, Ret
 * shrinks it — no per-frame vector allocation. The instruction
 * pointer is flat within the function (see rt/decode.h); block
 * boundaries are recovered through DecodedFunction::block_start when
 * needed.
 */
struct Frame
{
    ir::FuncId func = -1;
    int ip = 0;                ///< flat next-instruction pointer
    ir::Reg ret_dst = -1;      ///< caller register receiving the result
    int reg_base = 0;          ///< first register slot in the arena
};

/** One thread of execution. */
struct ThreadState
{
    ThreadId tid = -1;
    ThreadStatus status = ThreadStatus::Runnable;

    /**
     * Frame stack, copy-on-write: checkpoint copies share it, and a
     * forked thread unshares on its first executed instruction
     * (threads never scheduled after a fork stay shared). Read via
     * stack-> / *stack, mutate via stack.rw().
     */
    Cow<std::vector<Frame>> stack;

    /**
     * Register arena shared by all frames of this thread's stack
     * (copy-on-write like the stack). Frame f's register r lives at
     * regs[f.reg_base + r].
     */
    Cow<std::vector<Value>> regs;

    ir::SyncId wait_sync = -1;   ///< sync object blocked on
    ThreadId wait_tid = -1;      ///< thread blocked on (join)
    bool cond_relock = false;    ///< woken from cond, waiting on mutex

    std::uint64_t steps = 0;     ///< instructions executed
    std::uint64_t last_step = 0; ///< global step of last execution
    std::int64_t spawn_arg = 0;  ///< argument passed at creation

    /** Recent read cells (ring) for spin-loop diagnosis. */
    std::vector<int> recent_reads;

    /** True when the thread can be scheduled. */
    bool runnable() const { return status == ThreadStatus::Runnable; }
};

/** Mutex runtime state. */
struct MutexState
{
    ThreadId owner = -1;
    std::vector<ThreadId> waiters;
};

/** Condition variable runtime state. */
struct CondState
{
    std::vector<ThreadId> waiters;
};

/** Barrier runtime state. */
struct BarrierState
{
    int arrived = 0;
    std::vector<ThreadId> waiting;
};

/** One output system call. */
struct OutputRecord
{
    std::string label;          ///< format label ("stats: %d")
    sym::ExprPtr value;         ///< possibly-symbolic payload (may be null
                                ///< for pure string outputs)
    ThreadId tid = -1;
    int pc = -1;
    ir::SourceLoc loc;

    /** Render with a concrete payload (diagnostics). */
    std::string toString() const;
};

/** Aggregated program output: records plus a concrete hash chain. */
struct OutputLog
{
    std::vector<OutputRecord> records;
    HashChain concrete_chain; ///< folded over fully-concrete records

    /** Append a record, folding concrete payloads into the chain. */
    void append(OutputRecord rec);

    std::size_t size() const { return records.size(); }
};

/** Why execution stopped. */
enum class RunOutcome : std::uint8_t {
    Running,      ///< not stopped yet
    Exited,       ///< normal termination
    CrashOob,     ///< out-of-bounds memory access
    CrashDivZero, ///< division/remainder by zero
    AssertFail,   ///< semantic predicate violated
    Deadlock,     ///< all live threads blocked
    TimedOut,     ///< step budget exhausted
    Aborted,      ///< schedule policy gave up (replay divergence)
};

/** Printable outcome name. */
const char *runOutcomeName(RunOutcome o);

/** True for outcomes the paper calls "basic" spec violations. */
bool isSpecViolation(RunOutcome o);

/** Execution statistics used by the evaluation harnesses. */
struct VmStats
{
    std::uint64_t steps = 0;             ///< instructions executed
    std::uint64_t preemption_points = 0; ///< scheduling decisions taken
    std::uint64_t symbolic_branches = 0; ///< forks offered to the hook
    std::uint64_t values_boxed = 0;      ///< Value→ExprPtr conversions
    std::uint64_t events_batched = 0;    ///< events staged in the buffer
    std::uint64_t pages_unshared = 0;    ///< COW page clones in mem
};

/**
 * Complete interpreter state; copy to checkpoint or fork.
 */
struct VmState
{
    /** Flat memory cells across all globals (paged, copy-on-write). */
    MemImage mem;

    std::vector<ThreadState> threads;
    std::vector<MutexState> mutexes;
    std::vector<CondState> conds;
    std::vector<BarrierState> barriers;

    /** Currently scheduled thread; -1 before first pick. */
    ThreadId current = -1;

    /** Path condition accumulated from symbolic decisions. */
    sym::PathCondition path;

    /** Program output so far. */
    OutputLog output;

    /**
     * One environment read (Input or GetTime instruction).
     *
     * Symbolic reads record the symbol id; concrete reads record the
     * value. The log is the paper's "log of system call inputs": a
     * replay run reproduces it by passing the same values back in
     * order (after substituting solver-model values for symbols).
     */
    struct EnvRead
    {
        bool symbolic = false;
        int sym_id = -1;
        std::int64_t value = 0;
        std::int64_t lo = 0;  ///< domain lower bound (symbolic reads)
        std::string name;     ///< input label (evidence witnesses)
    };

    /** Environment reads in consumption order. */
    std::vector<EnvRead> env_log;

    /**
     * Dynamic access counters, one dense row per thread. The first
     * `counter_stride` entries count instruction executions by pc
     * (pcs are dense decoded-site ids); the rest count accesses by
     * flat cell id at `counter_stride + cell`. Race identity is
     * cell-based because a divergent path may perform the racing
     * access at a different program counter (paper §3.3, Fig. 4),
     * while replay stop conditions index by pc; one row serves both.
     * Copy-on-write like the memory image: checkpoints share the
     * table; the first post-fork access clones it once.
     */
    Cow<std::vector<std::vector<std::uint64_t>>> access_counts;

    /** Row width of the pc-indexed prefix of access_counts rows. */
    std::int32_t counter_stride = 0;

    /** Dynamic count of (thread @p t, pc @p pc) executions (0 when
     *  out of range). */
    std::uint64_t
    accessCount(ThreadId t, int pc) const
    {
        const auto &rows = access_counts.ro();
        if (t < 0 || static_cast<std::size_t>(t) >= rows.size())
            return 0;
        if (pc < 0 || pc >= counter_stride)
            return 0;
        return rows[static_cast<std::size_t>(t)]
                   [static_cast<std::size_t>(pc)];
    }

    /** Dynamic count of (thread @p t, cell @p cell) accesses (0 when
     *  out of range). */
    std::uint64_t
    cellAccessCount(ThreadId t, int cell) const
    {
        const auto &rows = access_counts.ro();
        if (t < 0 || static_cast<std::size_t>(t) >= rows.size())
            return 0;
        const auto &row = rows[static_cast<std::size_t>(t)];
        const std::size_t i =
            static_cast<std::size_t>(counter_stride) +
            static_cast<std::size_t>(cell);
        if (cell < 0 || i >= row.size())
            return 0;
        return row[i];
    }

    /**
     * Forced outcomes of pending symbolic decisions (set on fork),
     * consumed front-to-back via `forced_cursor` (a deque would
     * allocate on every state copy even when empty — the common
     * case).
     */
    std::vector<char> forced_decisions;
    std::size_t forced_cursor = 0;

    /** True when a forced decision is pending. */
    bool
    hasForcedDecision() const
    {
        return forced_cursor < forced_decisions.size();
    }

    /** Consume the next forced decision (requires one pending). */
    bool
    takeForcedDecision()
    {
        return forced_decisions[forced_cursor++] != 0;
    }

    /**
     * True when the state was captured mid-scheduling-segment (a
     * stop condition fired, or a fork was taken). Resuming such a
     * state continues the current thread without consulting the
     * scheduler, so replayed schedules stay aligned with recordings.
     */
    bool resume_in_segment = false;

    /** Segment-start flag to restore on resume (see Interpreter). */
    bool resume_first = true;

    /** Next fresh symbol id for symbolic inputs. */
    int next_symbol = 0;

    std::uint64_t global_step = 0;
    std::int64_t virtual_time = 0;

    RunOutcome outcome = RunOutcome::Running;
    std::string outcome_detail;
    int outcome_pc = -1;
    ThreadId outcome_tid = -1;

    VmStats stats;

    /** Deterministic RNG carried with the state (schedule decisions). */
    Rng rng;

    /** Thread by id (checked). */
    ThreadState &thread(ThreadId t) { return threads.at(t); }
    const ThreadState &thread(ThreadId t) const { return threads.at(t); }

    /** Ids of currently runnable threads, ascending. */
    std::vector<ThreadId> runnableThreads() const;

    /** Fill @p out with runnable thread ids, ascending (reuses the
     *  caller's buffer; the scheduler loop's allocation-free path). */
    void runnableInto(std::vector<ThreadId> &out) const;

    /** True when every thread has exited. */
    bool allExited() const;

    /** True once outcome is final. */
    bool finished() const { return outcome != RunOutcome::Running; }

    /**
     * Append the cycle key of this state (rt/cycle.h): every field
     * execution reads, and none of the monotone counters nothing
     * branches on — global_step, stats, per-thread steps/last_step,
     * and access_counts. Those counters are the only difference
     * between two states with equal keys, and Interpreter::run
     * advances them when it skips whole periods. Symbolic values
     * contribute their node identity (equal pointers imply equal
     * expressions; unequal ones merely miss a cycle). Any new field
     * must be keyed here unless it is such a counter.
     */
    void cycleKey(std::vector<std::uint64_t> &out) const;

    /**
     * Force-unshare every copy-on-write container (memory pages,
     * thread stacks, access-count maps), materializing a full deep
     * copy. Only benches and tests call this: it is the deep-copy
     * baseline that checkpoint_bench compares the structural-sharing
     * copy against, and the isolation probe of rt_checkpoint_test.
     */
    void unshareAll();
};

} // namespace portend::rt

#endif // PORTEND_RT_VMSTATE_H
