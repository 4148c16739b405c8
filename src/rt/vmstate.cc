#include "rt/vmstate.h"

#include <sstream>

namespace portend::rt {

MemImage::MemImage(std::vector<Value> cells)
{
    n = cells.size();
    pages.reserve((n + kPageCells - 1) / kPageCells);
    for (std::size_t at = 0; at < n; at += kPageCells) {
        const std::size_t end = std::min(n, at + kPageCells);
        std::vector<Value> page;
        page.reserve(end - at);
        for (std::size_t i = at; i < end; ++i)
            page.push_back(std::move(cells[i]));
        pages.emplace_back(Cow<std::vector<Value>>(std::move(page)));
    }
}

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::MemRead: return "mem_read";
      case EventKind::MemWrite: return "mem_write";
      case EventKind::MutexLock: return "mutex_lock";
      case EventKind::MutexUnlock: return "mutex_unlock";
      case EventKind::CondWait: return "cond_wait";
      case EventKind::CondSignal: return "cond_signal";
      case EventKind::BarrierWait: return "barrier_wait";
      case EventKind::ThreadCreate: return "thread_create";
      case EventKind::ThreadJoin: return "thread_join";
      case EventKind::ThreadStart: return "thread_start";
      case EventKind::ThreadExit: return "thread_exit";
      case EventKind::Output: return "output";
    }
    return "?";
}

const char *
threadStatusName(ThreadStatus s)
{
    switch (s) {
      case ThreadStatus::Runnable: return "runnable";
      case ThreadStatus::BlockedMutex: return "blocked-mutex";
      case ThreadStatus::BlockedCond: return "blocked-cond";
      case ThreadStatus::BlockedJoin: return "blocked-join";
      case ThreadStatus::BlockedBarrier: return "blocked-barrier";
      case ThreadStatus::Exited: return "exited";
    }
    return "?";
}

const char *
runOutcomeName(RunOutcome o)
{
    switch (o) {
      case RunOutcome::Running: return "running";
      case RunOutcome::Exited: return "exited";
      case RunOutcome::CrashOob: return "crash-oob";
      case RunOutcome::CrashDivZero: return "crash-div-zero";
      case RunOutcome::AssertFail: return "assert-fail";
      case RunOutcome::Deadlock: return "deadlock";
      case RunOutcome::TimedOut: return "timed-out";
      case RunOutcome::Aborted: return "aborted";
    }
    return "?";
}

bool
isSpecViolation(RunOutcome o)
{
    switch (o) {
      case RunOutcome::CrashOob:
      case RunOutcome::CrashDivZero:
      case RunOutcome::AssertFail:
      case RunOutcome::Deadlock:
        return true;
      default:
        return false;
    }
}

std::string
OutputRecord::toString() const
{
    std::ostringstream os;
    os << label;
    if (value) {
        os << "=";
        if (value->isConcrete())
            os << value->constValue();
        else
            os << value->toString();
    }
    return os.str();
}

void
OutputLog::append(OutputRecord rec)
{
    if (!rec.value || rec.value->isConcrete()) {
        concrete_chain.append(rec.label);
        if (rec.value)
            concrete_chain.append(
                static_cast<std::uint64_t>(rec.value->constValue()));
    }
    records.push_back(std::move(rec));
}

std::vector<ThreadId>
VmState::runnableThreads() const
{
    std::vector<ThreadId> out;
    runnableInto(out);
    return out;
}

void
VmState::runnableInto(std::vector<ThreadId> &out) const
{
    out.clear();
    for (const auto &t : threads) {
        if (t.runnable())
            out.push_back(t.tid);
    }
}

bool
VmState::allExited() const
{
    for (const auto &t : threads) {
        if (t.status != ThreadStatus::Exited)
            return false;
    }
    return true;
}

namespace {

void
keyValue(std::vector<std::uint64_t> &out, const Value &v)
{
    if (v.isConcrete()) {
        out.push_back(static_cast<std::uint64_t>(v.width()));
        out.push_back(static_cast<std::uint64_t>(v.constValue()));
    } else {
        out.push_back(0x100u | static_cast<std::uint64_t>(v.width()));
        out.push_back(reinterpret_cast<std::uintptr_t>(v.expr().get()));
    }
}

template <typename T>
void
keyIds(std::vector<std::uint64_t> &out, const std::vector<T> &ids)
{
    out.push_back(ids.size());
    for (T id : ids)
        out.push_back(static_cast<std::uint64_t>(id));
}

} // namespace

void
VmState::cycleKey(std::vector<std::uint64_t> &out) const
{
    auto word = [&out](auto v) {
        out.push_back(static_cast<std::uint64_t>(v));
    };
    word(mem.size());
    for (std::size_t i = 0; i < mem.size(); ++i)
        keyValue(out, mem[i]);

    word(threads.size());
    for (const ThreadState &t : threads) {
        word(t.tid);
        word(t.status);
        word(t.wait_sync);
        word(t.wait_tid);
        word(t.cond_relock);
        word(t.spawn_arg);
        word(t.stack->size());
        for (const Frame &f : *t.stack) {
            word(f.func);
            word(f.ip);
            word(f.ret_dst);
            word(f.reg_base);
        }
        word(t.regs->size());
        for (const Value &v : *t.regs)
            keyValue(out, v);
        keyIds(out, t.recent_reads);
    }
    for (const MutexState &m : mutexes) {
        word(m.owner);
        keyIds(out, m.waiters);
    }
    for (const CondState &c : conds)
        keyIds(out, c.waiters);
    for (const BarrierState &b : barriers) {
        word(b.arrived);
        keyIds(out, b.waiting);
    }

    word(current);
    word(path.size());
    word(output.size());
    word(env_log.size());
    word(forced_decisions.size());
    word(forced_cursor);
    word(resume_in_segment);
    word(resume_first);
    word(next_symbol);
    word(virtual_time);
    word(outcome);
    word(rng.rawState());
}

void
VmState::unshareAll()
{
    mem.unshareAll();
    for (auto &t : threads) {
        t.stack.rw();
        t.regs.rw();
    }
    access_counts.rw();
}

} // namespace portend::rt
