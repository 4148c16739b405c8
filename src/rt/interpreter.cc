#include "rt/interpreter.h"

#include <atomic>
#include <map>
#include <mutex>
#include <optional>

#include "support/logging.h"
#include "support/observe.h"
#include "support/trace.h"
#include "sym/simplify.h"

// Threaded dispatch needs the GNU computed-goto extension; builds can
// force the portable switch loop with -DPORTEND_THREADED_DISPATCH=0
// (CMake option PORTEND_THREADED_DISPATCH).
#ifndef PORTEND_THREADED_DISPATCH
#define PORTEND_THREADED_DISPATCH 1
#endif
#if defined(__GNUC__) && PORTEND_THREADED_DISPATCH
#define PORTEND_HAVE_CGOTO 1
#else
#define PORTEND_HAVE_CGOTO 0
#endif

// Every opcode, in ir::Op declaration order (the computed-goto jump
// table is indexed by the raw enum value).
#define PORTEND_OP_LIST(X)                                            \
    X(Nop) X(ConstOp) X(Mov) X(Bin) X(Un) X(Select) X(Load) X(Store)  \
    X(Br) X(Jmp) X(Call) X(Ret) X(Halt) X(ThreadCreate)               \
    X(ThreadJoin) X(MutexLock) X(MutexUnlock) X(CondWait)             \
    X(CondSignal) X(CondBroadcast) X(BarrierWait) X(AtomicRmW)        \
    X(Yield) X(Sleep) X(Input) X(GetTime) X(Output) X(OutputStr)      \
    X(Assert)

namespace portend::rt {

static_assert(static_cast<int>(ir::Op::Assert) == 28,
              "PORTEND_OP_LIST is out of sync with ir::Op");

namespace {

/** Flush threshold of the event staging buffer. */
constexpr std::size_t kEventBatchCap = 256;

std::atomic<DispatchMode> g_default_dispatch{DispatchMode::Threaded};

std::atomic<bool> g_cycle_test{true};

} // namespace

bool
threadedDispatchAvailable()
{
    return PORTEND_HAVE_CGOTO != 0;
}

void
setDefaultDispatchMode(DispatchMode m)
{
    g_default_dispatch.store(m, std::memory_order_relaxed);
}

DispatchMode
defaultDispatchMode()
{
    DispatchMode m = g_default_dispatch.load(std::memory_order_relaxed);
    return m == DispatchMode::Auto ? DispatchMode::Threaded : m;
}

void
setCycleTestEnabled(bool on)
{
    g_cycle_test.store(on, std::memory_order_relaxed);
}

bool
cycleTestEnabled()
{
    return g_cycle_test.load(std::memory_order_relaxed);
}

const char *
dispatchModeName(DispatchMode m)
{
    switch (m) {
      case DispatchMode::Auto: return "auto";
      case DispatchMode::Switch: return "switch";
      case DispatchMode::Threaded: return "threaded";
    }
    return "?";
}

Interpreter::Interpreter(const ir::Program &p, ExecOptions o)
    : prog(p), dec(decodeProgram(p)), opts(std::move(o))
{
    PORTEND_ASSERT(p.finalized(), "program must be finalized");
    const DispatchMode m = opts.dispatch == DispatchMode::Auto
                               ? defaultDispatchMode()
                               : opts.dispatch;
    use_threaded =
        m == DispatchMode::Threaded && threadedDispatchAvailable();
    reset();
}

namespace {

/**
 * Registry of pristine (pre-first-step) VmStates, one per decoded
 * program. Analyses build thousands of interpreters for the same
 * program; resetting by COW-copying a cached state replaces the
 * per-construction memory/thread/counter build with refcount bumps.
 * Keyed by the DecodedProgram address and validated with a weak_ptr
 * so a recycled address can never resurrect a stale state.
 */
struct PristineEntry
{
    std::weak_ptr<const DecodedProgram> key;
    std::shared_ptr<const VmState> state;
};

std::mutex g_pristine_mu;
std::map<const DecodedProgram *, PristineEntry> g_pristine;

} // namespace

VmState
Interpreter::buildPristine() const
{
    VmState fresh;

    // Memory image: assemble all cells locally, build pages in bulk.
    std::vector<Value> cells;
    cells.reserve(static_cast<std::size_t>(dec->num_cells));
    for (const auto &g : prog.globals) {
        for (int i = 0; i < g.size; ++i) {
            std::int64_t init =
                i < static_cast<int>(g.init.size()) ? g.init[i] : 0;
            cells.push_back(Value::ofConst(init));
        }
    }
    fresh.mem = MemImage(std::move(cells));

    fresh.mutexes.assign(prog.mutex_names.size(), MutexState{});
    fresh.conds.assign(prog.cond_names.size(), CondState{});
    BarrierState empty_barrier;
    fresh.barriers.assign(prog.barrier_names.size(), empty_barrier);

    // Main thread.
    ThreadState main;
    main.tid = 0;
    Frame f;
    f.func = prog.entry;
    f.ip = 0;
    f.reg_base = 0;
    main.stack.rw().push_back(f);
    main.regs.rw().resize(
        static_cast<std::size_t>(prog.function(prog.entry).num_regs));
    fresh.threads.push_back(std::move(main));
    fresh.counter_stride = dec->num_insts;
    fresh.access_counts.rw().emplace_back(
        static_cast<std::size_t>(dec->num_insts + dec->num_cells), 0);
    return fresh;
}

void
Interpreter::reset()
{
    {
        std::lock_guard<std::mutex> lock(g_pristine_mu);
        auto it = g_pristine.find(dec.get());
        if (it != g_pristine.end() && it->second.key.lock() == dec) {
            st = *it->second.state;
            st.rng = Rng(opts.rng_seed);
            return;
        }
    }
    st = buildPristine();
    st.rng = Rng(opts.rng_seed);
    {
        std::lock_guard<std::mutex> lock(g_pristine_mu);
        // Sweep entries whose program died so the registry stays
        // bounded under fuzzing's churn of short-lived programs.
        if (g_pristine.size() >= 64) {
            for (auto it = g_pristine.begin();
                 it != g_pristine.end();) {
                if (it->second.key.expired())
                    it = g_pristine.erase(it);
                else
                    ++it;
            }
        }
        auto pristine = std::make_shared<VmState>(st);
        pristine->rng = Rng();
        g_pristine[dec.get()] = {dec, std::move(pristine)};
    }
}

void
Interpreter::addCounterRows()
{
    st.access_counts.rw().emplace_back(
        static_cast<std::size_t>(dec->num_insts + dec->num_cells), 0);
}

Value
Interpreter::evalValue(const ThreadState &t, const ir::Operand &o) const
{
    if (o.isImm())
        return Value::ofConst(o.imm);
    PORTEND_ASSERT(o.isReg(), "evaluating absent operand");
    const Frame &f = t.stack->back();
    const int idx = f.reg_base + o.reg;
    PORTEND_ASSERT(o.reg >= 0 &&
                       idx < static_cast<int>(t.regs->size()),
                   "register out of range");
    return (*t.regs)[static_cast<std::size_t>(idx)];
}

sym::ExprPtr
Interpreter::evalOperand(const ThreadState &t, const ir::Operand &o) const
{
    return evalValue(t, o).toExpr();
}

bool
Interpreter::isPreemptionPoint(const ThreadState &t,
                               const DecodedInst &di) const
{
    switch (di.preempt) {
      case PreemptClass::Never:
        return false;
      case PreemptClass::Always:
        return true;
      case PreemptClass::Output:
        return opts.preempt_on_output;
      case PreemptClass::Memory: {
        if (opts.preempt_on_memory)
            return true;
        if (opts.watched_cells.empty())
            return false;
        Value idx = readOperand(t, t.stack->back().reg_base, di.a,
                                di.a_imm);
        if (!idx.isConcrete()) {
            // Symbolic index: conservatively a preemption point when
            // any cell of this global is watched.
            for (int i = 0; i < di.gsize; ++i) {
                if (opts.watched_cells.count(di.cell_base + i))
                    return true;
            }
            return false;
        }
        std::int64_t v = idx.constValue();
        if (v < 0 || v >= di.gsize)
            return false; // the crash is reported at execution
        return opts.watched_cells.count(
                   di.cell_base + static_cast<int>(v)) > 0;
      }
    }
    return false;
}

void
Interpreter::publish(Event ev)
{
    ev.step = st.global_step;
    for (EventSink *s : immediate_sinks)
        s->onEvent(ev);
    if (active_stop && active_stop->after_event &&
        active_stop->after_event(ev)) {
        stop_event_fired = true;
    }
    if (!batched_sinks.empty() || policy) {
        st.stats.events_batched += 1;
        event_buf.push_back(std::move(ev));
        if (event_buf.size() >= kEventBatchCap)
            flushEvents();
    }
}

void
Interpreter::flushEvents()
{
    if (event_buf.empty())
        return;
    for (const Event &ev : event_buf) {
        for (EventSink *s : batched_sinks)
            s->onEvent(ev);
        if (policy)
            policy->onEvent(ev);
    }
    event_buf.clear();
}

void
Interpreter::finish(RunOutcome o, ThreadId tid, int pc,
                    const std::string &detail)
{
    st.outcome = o;
    st.outcome_tid = tid;
    st.outcome_pc = pc;
    st.outcome_detail = detail;
}

bool
Interpreter::decideCondition(const sym::ExprPtr &cond, DecisionKind kind)
{
    st.stats.symbolic_branches += 1;
    bool take;
    if (st.hasForcedDecision()) {
        take = st.takeForcedDecision();
    } else if (hook) {
        take = hook->decide(*this, cond, kind);
    } else {
        PORTEND_FATAL("symbolic decision (", static_cast<int>(kind),
                      ") reached without a fork hook; run with "
                      "concrete inputs or install exec::Executor");
    }
    st.path.add(take ? cond : sym::negate(cond));
    return take;
}

bool
Interpreter::resolveIndex(ThreadId tid, const DecodedInst &di,
                          const Value &idx, int size, std::int64_t &out)
{
    if (idx.isConcrete()) {
        std::int64_t v = idx.constValue();
        if (v < 0 || v >= size) {
            finish(RunOutcome::CrashOob, tid, di.pc,
                   "index " + std::to_string(v) + " out of bounds of " +
                       prog.global(di.gid).name + "[" +
                       std::to_string(size) + "] at " +
                       di.loc.toString());
            return false;
        }
        out = v;
        return true;
    }

    const sym::ExprPtr &idxE = idx.expr();
    sym::ExprPtr in_bounds = sym::Expr::binary(
        sym::ExprKind::LAnd,
        sym::mkSle(sym::mkConst(0), idxE),
        sym::mkSlt(idxE, sym::mkConst(size)));
    if (!decideCondition(in_bounds, DecisionKind::Bounds)) {
        finish(RunOutcome::CrashOob, tid, di.pc,
               "symbolic index out of bounds of " +
                   prog.global(di.gid).name + " at " +
                   di.loc.toString());
        return false;
    }
    PORTEND_ASSERT(hook, "bounds decision without hook");
    std::int64_t v = hook->concretize(*this, idxE);
    PORTEND_ASSERT(v >= 0 && v < size, "concretized index escaped");
    st.path.add(sym::mkEq(idxE, sym::mkConst(v)));
    out = v;
    return true;
}

void
Interpreter::advance(ThreadState &t)
{
    t.stack.rw().back().ip += 1;
}

bool
Interpreter::tryLock(ThreadId tid, ir::SyncId m)
{
    MutexState &mu = st.mutexes.at(static_cast<std::size_t>(m));
    if (mu.owner == -1) {
        mu.owner = tid;
        return true;
    }
    if (mu.owner == tid) {
        finish(RunOutcome::Deadlock, tid, fetchD(st.thread(tid)).pc,
               "recursive acquisition of mutex " + prog.mutex_names[m]);
        return false;
    }
    ThreadState &t = st.thread(tid);
    t.status = ThreadStatus::BlockedMutex;
    t.wait_sync = m;
    for (ThreadId w : mu.waiters) {
        if (w == tid)
            return false;
    }
    mu.waiters.push_back(tid);
    return false;
}

void
Interpreter::unlockMutex(ThreadId tid, ir::SyncId m, int pc,
                         const ir::SourceLoc &loc)
{
    MutexState &mu = st.mutexes.at(static_cast<std::size_t>(m));
    if (mu.owner != tid) {
        finish(RunOutcome::AssertFail, tid, pc,
               "unlock of mutex " + prog.mutex_names[m] +
                   " not owned by thread");
        return;
    }
    mu.owner = -1;
    if (!mu.waiters.empty()) {
        // Barging semantics: wake the first waiter; it re-attempts
        // the acquisition when scheduled and may lose the race.
        ThreadId w = mu.waiters.front();
        mu.waiters.erase(mu.waiters.begin());
        ThreadState &wt = st.thread(w);
        wt.status = ThreadStatus::Runnable;
        wt.wait_sync = -1;
    }
    if (record_events) {
        Event ev;
        ev.kind = EventKind::MutexUnlock;
        ev.tid = tid;
        ev.pc = pc;
        ev.sid = m;
        ev.loc = loc;
        publish(std::move(ev));
    }
}

void
Interpreter::exitThread(ThreadId tid)
{
    ThreadState &t = st.thread(tid);
    t.status = ThreadStatus::Exited;

    if (record_events) {
        Event ev;
        ev.kind = EventKind::ThreadExit;
        ev.tid = tid;
        publish(std::move(ev));
    }

    // Wake joiners; their pending ThreadJoin completes now.
    for (auto &joiner : st.threads) {
        if (joiner.status == ThreadStatus::BlockedJoin &&
            joiner.wait_tid == tid) {
            joiner.status = ThreadStatus::Runnable;
            joiner.wait_tid = -1;
            const DecodedInst &ji = fetchD(joiner);
            advance(joiner);
            if (record_events) {
                Event je;
                je.kind = EventKind::ThreadJoin;
                je.tid = joiner.tid;
                je.other = tid;
                je.pc = ji.pc;
                je.loc = ji.loc;
                publish(std::move(je));
            }
        }
    }

    // Returning from main terminates the program (C semantics).
    if (tid == 0 && !st.finished())
        finish(RunOutcome::Exited, tid, -1, "main returned");
}

bool
Interpreter::checkStops(ThreadId tid, const DecodedInst &di)
{
    // Every matching point is recorded (not just the first): the
    // checkpoint ladder stops one shared replay at many clusters'
    // pre-race points and must learn which of them this stop
    // satisfies.
    bool hit = false;
    for (const auto &p : active_stop->before) {
        if (p.tid == tid && p.pc == di.pc &&
            st.accessCount(tid, di.pc) + 1 == p.occurrence)
            hit = true;
    }
    if (!active_stop->before_cell.empty() &&
        (di.op == ir::Op::Load || di.op == ir::Op::Store ||
         di.op == ir::Op::AtomicRmW)) {
        const ThreadState &t = st.thread(tid);
        Value idx = readOperand(t, t.stack->back().reg_base, di.a,
                                di.a_imm);
        if (idx.isConcrete()) {
            std::int64_t iv = idx.constValue();
            if (iv >= 0 && iv < di.gsize) {
                int cell = di.cell_base + static_cast<int>(iv);
                for (std::size_t pi = 0;
                     pi < active_stop->before_cell.size(); ++pi) {
                    const auto &p = active_stop->before_cell[pi];
                    if (p.tid != tid || p.cell != cell)
                        continue;
                    if (st.cellAccessCount(tid, cell) + 1 ==
                        p.occurrence) {
                        hit = true;
                        fired_before_cell.push_back(pi);
                    }
                }
            }
        }
    }
    return hit;
}

void
Interpreter::executeSlow(ThreadId tid, const DecodedInst &di)
{
    switch (di.op) {
      case ir::Op::ThreadCreate: {
        ThreadState &t = st.thread(tid);
        Value arg = readOperand(t, t.stack->back().reg_base, di.a,
                                di.a_imm);
        advance(t);

        ThreadState child;
        child.tid = static_cast<ThreadId>(st.threads.size());
        Frame cf;
        cf.func = di.fid;
        cf.ip = 0;
        cf.reg_base = 0;
        child.stack.rw().push_back(cf);
        child.regs.rw().resize(
            static_cast<std::size_t>(di.callee_regs));
        if (di.callee_params > 0)
            child.regs.rw()[0] = std::move(arg);
        ThreadId child_tid = child.tid;
        st.threads.push_back(std::move(child));
        addCounterRows();

        // Reacquire after the push_back (vector may reallocate).
        ThreadState &t2 = st.thread(tid);
        if (di.dst >= 0) {
            t2.regs.rw()[static_cast<std::size_t>(
                t2.stack->back().reg_base + di.dst)] =
                Value::ofConst(child_tid);
        }
        if (record_events) {
            Event ev;
            ev.kind = EventKind::ThreadCreate;
            ev.tid = tid;
            ev.pc = di.pc;
            ev.other = child_tid;
            ev.loc = di.loc;
            publish(std::move(ev));
        }
        break;
      }

      case ir::Op::ThreadJoin: {
        ThreadState &t = st.thread(tid);
        Value targ = readOperand(t, t.stack->back().reg_base, di.a,
                                 di.a_imm);
        std::int64_t target;
        if (targ.isConcrete()) {
            target = targ.constValue();
        } else {
            PORTEND_ASSERT(hook, "symbolic join target without hook");
            const sym::ExprPtr &te = targ.expr();
            target = hook->concretize(*this, te);
            st.path.add(sym::mkEq(te, sym::mkConst(target)));
        }
        if (target < 0 ||
            target >= static_cast<std::int64_t>(st.threads.size())) {
            finish(RunOutcome::AssertFail, tid, di.pc,
                   "join of invalid thread id " +
                       std::to_string(target));
            return;
        }
        ThreadState &t2 = st.thread(tid);
        if (st.thread(static_cast<ThreadId>(target)).status ==
            ThreadStatus::Exited) {
            advance(t2);
            if (record_events) {
                Event ev;
                ev.kind = EventKind::ThreadJoin;
                ev.tid = tid;
                ev.pc = di.pc;
                ev.other = static_cast<ThreadId>(target);
                ev.loc = di.loc;
                publish(std::move(ev));
            }
        } else {
            t2.status = ThreadStatus::BlockedJoin;
            t2.wait_tid = static_cast<ThreadId>(target);
        }
        break;
      }

      case ir::Op::MutexLock: {
        if (tryLock(tid, di.sid)) {
            ThreadState &t = st.thread(tid);
            advance(t);
            if (record_events) {
                Event ev;
                ev.kind = EventKind::MutexLock;
                ev.tid = tid;
                ev.pc = di.pc;
                ev.sid = di.sid;
                ev.loc = di.loc;
                publish(std::move(ev));
            }
        }
        break;
      }

      case ir::Op::MutexUnlock:
        unlockMutex(tid, di.sid, di.pc, di.loc);
        if (!st.finished())
            advance(st.thread(tid));
        break;

      case ir::Op::CondWait: {
        ThreadState &t = st.thread(tid);
        if (!t.cond_relock) {
            if (st.mutexes.at(static_cast<std::size_t>(di.sid2))
                    .owner != tid) {
                finish(RunOutcome::AssertFail, tid, di.pc,
                       "cond_wait without holding mutex " +
                           prog.mutex_names[di.sid2]);
                return;
            }
            unlockMutex(tid, di.sid2, di.pc, di.loc);
            if (st.finished())
                return;
            ThreadState &t2 = st.thread(tid);
            t2.status = ThreadStatus::BlockedCond;
            t2.wait_sync = di.sid;
            st.conds.at(static_cast<std::size_t>(di.sid))
                .waiters.push_back(tid);
        } else {
            // Woken by signal/broadcast; re-acquire the mutex.
            if (tryLock(tid, di.sid2)) {
                ThreadState &t2 = st.thread(tid);
                t2.cond_relock = false;
                advance(t2);
                // The re-acquisition is a real lock operation: emit
                // it so happens-before edges through the mutex hold.
                if (record_events) {
                    Event lk;
                    lk.kind = EventKind::MutexLock;
                    lk.tid = tid;
                    lk.pc = di.pc;
                    lk.sid = di.sid2;
                    lk.loc = di.loc;
                    publish(std::move(lk));
                    Event ev;
                    ev.kind = EventKind::CondWait;
                    ev.tid = tid;
                    ev.pc = di.pc;
                    ev.sid = di.sid;
                    ev.loc = di.loc;
                    publish(std::move(ev));
                }
            }
        }
        break;
      }

      case ir::Op::CondSignal:
      case ir::Op::CondBroadcast: {
        CondState &cv = st.conds.at(static_cast<std::size_t>(di.sid));
        std::size_t wake =
            di.op == ir::Op::CondSignal
                ? (cv.waiters.empty() ? 0 : 1)
                : cv.waiters.size();
        for (std::size_t i = 0; i < wake; ++i) {
            ThreadId w = cv.waiters.front();
            cv.waiters.erase(cv.waiters.begin());
            ThreadState &wt = st.thread(w);
            wt.status = ThreadStatus::Runnable;
            wt.wait_sync = -1;
            wt.cond_relock = true;
        }
        advance(st.thread(tid));
        if (record_events) {
            Event ev;
            ev.kind = EventKind::CondSignal;
            ev.tid = tid;
            ev.pc = di.pc;
            ev.sid = di.sid;
            ev.loc = di.loc;
            publish(std::move(ev));
        }
        break;
      }

      case ir::Op::BarrierWait: {
        BarrierState &bar =
            st.barriers.at(static_cast<std::size_t>(di.sid));
        bar.arrived += 1;
        if (bar.arrived < prog.barrier_counts[di.sid]) {
            ThreadState &t = st.thread(tid);
            t.status = ThreadStatus::BlockedBarrier;
            t.wait_sync = di.sid;
            bar.waiting.push_back(tid);
        } else {
            // Release everyone, including the arriving thread.
            std::vector<ThreadId> all = bar.waiting;
            bar.waiting.clear();
            bar.arrived = 0;
            for (ThreadId w : all) {
                ThreadState &wt = st.thread(w);
                wt.status = ThreadStatus::Runnable;
                wt.wait_sync = -1;
                const DecodedInst &wi = fetchD(wt);
                advance(wt);
                if (record_events) {
                    Event ev;
                    ev.kind = EventKind::BarrierWait;
                    ev.tid = w;
                    ev.pc = wi.pc;
                    ev.sid = di.sid;
                    ev.loc = wi.loc;
                    publish(std::move(ev));
                }
            }
            ThreadState &t = st.thread(tid);
            advance(t);
            if (record_events) {
                Event ev;
                ev.kind = EventKind::BarrierWait;
                ev.tid = tid;
                ev.pc = di.pc;
                ev.sid = di.sid;
                ev.loc = di.loc;
                publish(std::move(ev));
            }
        }
        break;
      }

      case ir::Op::Sleep: {
        ThreadState &t = st.thread(tid);
        Value ticks = readOperand(t, t.stack->back().reg_base, di.a,
                                  di.a_imm);
        st.virtual_time +=
            ticks.isConcrete() ? ticks.constValue() : 1;
        advance(t);
        break;
      }

      case ir::Op::Input: {
        ThreadState &t = st.thread(tid);
        const int rb = t.stack->back().reg_base;
        Value v;
        VmState::EnvRead read;
        read.name = di.text;
        // Named selection: when sym_inputs is set, only matching
        // labels become symbolic (positional cap ignored); an entry
        // with a range overrides the instruction's declared domain.
        const SymInputSpec *spec = nullptr;
        bool make_symbolic = false;
        if (opts.input_mode == InputMode::Symbolic) {
            if (!opts.sym_inputs.empty()) {
                for (const auto &s : opts.sym_inputs) {
                    if (s.name == di.text) {
                        spec = &s;
                        break;
                    }
                }
                make_symbolic = spec != nullptr;
            } else {
                make_symbolic =
                    st.next_symbol < opts.max_symbolic_inputs;
            }
        }
        if (make_symbolic) {
            std::int64_t lo =
                spec && spec->has_range ? spec->lo : di.lo;
            std::int64_t hi =
                spec && spec->has_range ? spec->hi : di.hi;
            int id = st.next_symbol++;
            v = Value(sym::Expr::symbol(di.text, id, sym::Width::I64,
                                        lo, hi));
            read.symbolic = true;
            read.sym_id = id;
            read.lo = lo;
        } else {
            std::size_t cursor = st.env_log.size();
            std::int64_t cv =
                cursor < opts.concrete_inputs.size()
                    ? opts.concrete_inputs[cursor]
                    : di.lo;
            v = Value::ofConst(cv);
            read.value = cv;
        }
        st.env_log.push_back(read);
        t.regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            std::move(v);
        advance(t);
        break;
      }

      case ir::Op::GetTime: {
        ThreadState &t = st.thread(tid);
        const int rb = t.stack->back().reg_base;
        std::size_t cursor = st.env_log.size();
        std::int64_t cv;
        if (opts.input_mode != InputMode::Symbolic &&
            cursor < opts.concrete_inputs.size()) {
            cv = opts.concrete_inputs[cursor];
        } else {
            cv = st.virtual_time;
        }
        st.virtual_time += 1;
        VmState::EnvRead read;
        read.value = cv;
        st.env_log.push_back(read);
        t.regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            Value::ofConst(cv);
        advance(t);
        break;
      }

      case ir::Op::Output:
      case ir::Op::OutputStr: {
        ThreadState &t = st.thread(tid);
        OutputRecord rec;
        rec.label = di.text;
        if (di.op == ir::Op::Output) {
            rec.value = readOperand(t, t.stack->back().reg_base,
                                    di.a, di.a_imm)
                            .toExpr();
        }
        rec.tid = tid;
        rec.pc = di.pc;
        rec.loc = di.loc;
        st.output.append(std::move(rec));
        advance(t);
        if (record_events) {
            Event ev;
            ev.kind = EventKind::Output;
            ev.tid = tid;
            ev.pc = di.pc;
            ev.loc = di.loc;
            publish(std::move(ev));
        }
        break;
      }

      case ir::Op::Assert: {
        ThreadState &t = st.thread(tid);
        Value c = readOperand(t, t.stack->back().reg_base, di.a,
                              di.a_imm);
        bool holds;
        if (c.isConcrete()) {
            holds = c.constValue() != 0;
        } else {
            sym::ExprPtr cond =
                sym::mkNe(c.expr(), sym::mkConst(0, c.width()));
            holds = decideCondition(cond, DecisionKind::Assert);
            if (st.finished())
                return;
        }
        if (!holds) {
            finish(RunOutcome::AssertFail, tid, di.pc,
                   "assertion '" + di.text + "' failed at " +
                       di.loc.toString());
            return;
        }
        advance(st.thread(tid));
        break;
      }

      default:
        PORTEND_FATAL("hot opcode ", static_cast<int>(di.op),
                      " routed to executeSlow");
    }
}

RunOutcome
Interpreter::run()
{
    return run(StopSpec{});
}

RunOutcome
Interpreter::run(const StopSpec &stop)
{
    active_stop = stop.empty() ? nullptr : &stop;
    stopped_at_spec = false;
    stop_event_fired = false;
    fired_before_cell.clear();
    SchedulePolicy *pol = policy ? policy : &default_policy;

    // Partition sinks once per run; when nothing consumes events the
    // hot loop skips Event construction entirely.
    immediate_sinks.clear();
    batched_sinks.clear();
    for (EventSink *s : sinks)
        (s->immediate() ? immediate_sinks : batched_sinks).push_back(s);
    record_events = !sinks.empty() || policy != nullptr ||
                    (active_stop && active_stop->after_event != nullptr);
    event_buf.clear();

    const std::uint64_t boxed0 = valuesBoxed();

    // The cycle test needs every reader of the run to be keyed: a
    // fork hook and before-point stops consult state or counters the
    // key leaves out.
    bool cycle_test =
        cycleTestEnabled() && !hook &&
        opts.cycle_test_from < opts.max_steps &&
        (!active_stop ||
         (active_stop->before.empty() &&
          active_stop->before_cell.empty() && active_stop->cycle_key));
    for (EventSink *s : sinks) {
        cycle_key.clear();
        cycle_test = cycle_test && s->cycleKey(cycle_key);
    }
    cycle.reset();
    std::uint64_t skipped_steps = 0;
    std::uint64_t skipped_preemptions = 0;
    const bool was_running = !st.finished();

    // Observability: one span per run plus a delta flush of the
    // VmStats ledger into the process collector at run exit. The hot
    // segment loop is untouched — it keeps bumping plain VmStats
    // counters — so with no sinks installed this is two relaxed
    // pointer loads per run() call.
    obs::Span run_span("interp", "run");
    const VmStats entry_stats = st.stats;
    const auto flush_observability = [&] {
        // Budget-charged steps; interp.steps and interp.preemptions
        // count the work actually done, without skipped periods.
        const std::uint64_t dsteps = st.stats.steps - entry_stats.steps;
        run_span.arg("steps", static_cast<std::int64_t>(dsteps));
        if (obs::Collector *c = obs::collector()) {
            c->add(obs::Counter::InterpRuns, 1);
            c->add(obs::Counter::InterpSteps, dsteps - skipped_steps);
            c->add(obs::Counter::InterpPreemptions,
                   st.stats.preemption_points -
                       entry_stats.preemption_points -
                       skipped_preemptions);
            if (was_running && st.outcome == RunOutcome::TimedOut) {
                c->add(obs::Counter::InterpTimeouts, 1);
                c->add(obs::Counter::InterpTimeoutSteps, dsteps);
            }
            if (skipped_steps > 0)
                c->add(obs::Counter::InterpCycleCuts, 1);
            c->add(obs::Counter::InterpSymBranches,
                   st.stats.symbolic_branches -
                       entry_stats.symbolic_branches);
            c->add(obs::Counter::InterpEventsBatched,
                   st.stats.events_batched - entry_stats.events_batched);
            c->add(obs::Counter::InterpValuesBoxed,
                   st.stats.values_boxed - entry_stats.values_boxed);
            c->observe(obs::Hist::InterpRunSteps, dsteps);
        }
    };

    while (!st.finished()) {
        if (st.global_step >= opts.max_steps) {
            finish(RunOutcome::TimedOut, st.current, -1,
                   "step budget exhausted");
            break;
        }
        st.runnableInto(runnable_scratch);
        if (runnable_scratch.empty()) {
            if (st.allExited()) {
                finish(RunOutcome::Exited, -1, -1, "all threads done");
            } else {
                finish(RunOutcome::Deadlock, -1, -1,
                       "all live threads blocked");
            }
            break;
        }

        ThreadId tid;
        bool first;
        if (st.resume_in_segment && st.current >= 0 &&
            st.current < static_cast<ThreadId>(st.threads.size()) &&
            st.thread(st.current).runnable()) {
            // Continue the interrupted segment without a scheduling
            // decision, keeping trace cursors aligned.
            tid = st.current;
            first = st.resume_first;
            st.resume_in_segment = false;
        } else {
            st.resume_in_segment = false;
            // Batched consumers catch up before every scheduling
            // decision, so policies observe the same prefix they saw
            // under per-event delivery.
            flushEvents();
            if (cycle_test && st.global_step >= opts.cycle_test_from) {
                const std::uint64_t pp0 = st.stats.preemption_points;
                if (std::optional<std::uint64_t> n = cycleProbe(*pol)) {
                    // At most one period is left to interpret.
                    skipped_steps = *n;
                    skipped_preemptions =
                        st.stats.preemption_points - pp0;
                    cycle_test = false;
                }
            }
            tid = pol->pick(st, runnable_scratch);
            if (tid < 0) {
                finish(RunOutcome::Aborted, -1, -1,
                       "schedule policy aborted");
                break;
            }
            PORTEND_ASSERT(st.thread(tid).runnable(),
                           "policy picked non-runnable thread ", tid);
            st.current = tid;
            st.stats.preemption_points += 1;
            first = true;
        }

        const SegExit ex = use_threaded ? segmentThreaded(tid, first)
                                        : segmentSwitch(tid, first);
        if (ex == SegExit::StopBefore || ex == SegExit::StopEvent) {
            stopped_at_spec = true;
            active_stop = nullptr;
            flushEvents();
            st.stats.values_boxed += valuesBoxed() - boxed0;
            st.stats.pages_unshared = st.mem.unsharedCount();
            flush_observability();
            return RunOutcome::Running;
        }
    }

    active_stop = nullptr;
    flushEvents();
    st.stats.values_boxed += valuesBoxed() - boxed0;
    st.stats.pages_unshared = st.mem.unsharedCount();
    flush_observability();
    return st.outcome;
}

std::optional<std::uint64_t>
Interpreter::cycleProbe(SchedulePolicy &pol)
{
    cycle_key.clear();
    // Policy first: a policy with no key right now (random, or a
    // trace cursor still inside its trace) costs no state walk.
    if (!pol.cycleKey(st, cycle_key)) {
        cycle.reset();
        return std::nullopt;
    }
    for (EventSink *s : sinks)
        s->cycleKey(cycle_key);
    if (active_stop)
        active_stop->cycle_key(cycle_key);
    st.cycleKey(cycle_key);

    CycleRef &ref = cycle_ref;
    switch (cycle.probe(cycle_key)) {
      case CycleDetector::Probe::Miss:
        return std::nullopt;
      case CycleDetector::Probe::Saved:
        ref.global_step = st.global_step;
        ref.steps = st.stats.steps;
        ref.preemptions = st.stats.preemption_points;
        ref.thread_steps.clear();
        for (const ThreadState &t : st.threads)
            ref.thread_steps.push_back(t.steps);
        ref.counts = *st.access_counts;
        ref.history = pol.historyMark();
        return std::nullopt;
      case CycleDetector::Probe::Match:
        break;
    }

    // Equal keys: everything from here on repeats the stretch since
    // the reference point, and the counters the key leaves out grow
    // by the same amount every period. Skip the whole periods that
    // end strictly before the budget, so the budget still expires
    // inside interpreted code, at the step an uncut run stops.
    const std::uint64_t period = st.global_step - ref.global_step;
    const std::uint64_t left = opts.max_steps - st.global_step;
    const std::uint64_t k = (left - 1) / period;
    st.global_step += k * period;
    const std::uint64_t dsteps = st.stats.steps - ref.steps;
    st.stats.steps += k * dsteps;
    st.stats.preemption_points +=
        k * (st.stats.preemption_points - ref.preemptions);
    for (std::size_t i = 0; i < st.threads.size(); ++i) {
        ThreadState &t = st.threads[i];
        t.steps += k * (t.steps - ref.thread_steps[i]);
        // A thread that ran during the period runs at the same
        // offset in every period; one that did not stays idle.
        if (t.last_step > ref.global_step)
            t.last_step += k * period;
    }
    auto &rows = st.access_counts.rw();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t j = 0; j < rows[i].size(); ++j)
            rows[i][j] += k * (rows[i][j] - ref.counts[i][j]);
    }
    pol.repeatHistory(ref.history, k);
    return k * dsteps;
}

// The segment loop body is written once (rt/interp_loop.inc) and
// compiled twice: with a jump-table switch dispatcher, and — when the
// compiler has computed goto — with direct-threaded dispatch.
#define PORTEND_SEGMENT_FN segmentSwitch
#define PORTEND_SEGMENT_CGOTO 0
#include "rt/interp_loop.inc"
#undef PORTEND_SEGMENT_FN
#undef PORTEND_SEGMENT_CGOTO

#if PORTEND_HAVE_CGOTO
#define PORTEND_SEGMENT_FN segmentThreaded
#define PORTEND_SEGMENT_CGOTO 1
#include "rt/interp_loop.inc"
#undef PORTEND_SEGMENT_FN
#undef PORTEND_SEGMENT_CGOTO
#else
Interpreter::SegExit
Interpreter::segmentThreaded(ThreadId tid, bool first)
{
    // Unreachable in practice: use_threaded is false without
    // computed goto. Fall back to the portable loop anyway.
    return segmentSwitch(tid, first);
}
#endif

} // namespace portend::rt
