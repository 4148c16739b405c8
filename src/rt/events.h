/**
 * @file
 * Execution event stream.
 *
 * The interpreter publishes one event per observable action: memory
 * accesses, synchronization operations, thread lifecycle, outputs.
 * Race detection, trace recording, and schedule enforcement are all
 * event consumers, mirroring how Portend's detector and record/replay
 * engine hook the Cloud9 interpreter.
 */

#ifndef PORTEND_RT_EVENTS_H
#define PORTEND_RT_EVENTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/inst.h"

namespace portend::rt {

/** Thread identifier (dense, starting at 0 for main). */
using ThreadId = int;

/** Kinds of observable events. */
enum class EventKind : std::uint8_t {
    MemRead,       ///< load from a global cell
    MemWrite,      ///< store to a global cell
    MutexLock,     ///< mutex acquired
    MutexUnlock,   ///< mutex released
    CondWait,      ///< wait completed (mutex re-acquired)
    CondSignal,    ///< signal/broadcast issued
    BarrierWait,   ///< barrier passed
    ThreadCreate,  ///< child spawned (other = child tid)
    ThreadJoin,    ///< join completed (other = joined tid)
    ThreadStart,   ///< first scheduling of a thread
    ThreadExit,    ///< thread finished
    Output,        ///< output system call performed
};

/** Printable event-kind name. */
const char *eventKindName(EventKind k);

/** One observable action. */
struct Event
{
    EventKind kind;
    ThreadId tid = -1;      ///< acting thread
    int pc = -1;            ///< program counter of the instruction
    std::uint64_t step = 0; ///< global step index at emission

    int cell = -1;          ///< flat cell id (memory events)
    bool atomic = false;    ///< access from AtomicRmW
    std::uint64_t occurrence = 0; ///< nth dynamic execution of (tid, pc)
    std::uint64_t cell_occurrence = 0; ///< nth access of (tid, cell)
    ir::SyncId sid = -1;    ///< sync object (sync events)
    ThreadId other = -1;    ///< peer thread (create/join)
    ir::SourceLoc loc;      ///< pseudo source location
};

/**
 * Event consumer interface.
 *
 * Sinks attach to an Interpreter; they are observers and must not
 * mutate execution state.
 */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /** Called for every event, in program order. */
    virtual void onEvent(const Event &ev) = 0;

    /**
     * True when the sink must observe each event at the instruction
     * that produced it, before the interpreter executes anything
     * else. The interpreter batches events for ordinary sinks
     * (delivering at segment boundaries, still in program order);
     * sinks whose onEvent reads live interpreter state — e.g. a
     * semantic monitor sampling memory cells — override this.
     */
    virtual bool immediate() const { return false; }

    /**
     * Cycle test support (see SchedulePolicy::cycleKey): append the
     * sink state that could make two runs from equal VM states differ
     * and return true, or return false to keep the interpreter from
     * skipping any event. The default opts out.
     */
    virtual bool
    cycleKey(std::vector<std::uint64_t> &out) const
    {
        (void)out;
        return false;
    }
};

} // namespace portend::rt

#endif // PORTEND_RT_EVENTS_H
