/**
 * @file
 * RAII span tracer emitting Chrome trace-event JSON.
 *
 * `OBS_SPAN("cat", "name")` opens a span that closes at scope exit;
 * spans nest naturally per thread (RAII guarantees proper bracket
 * structure), which is exactly what the Chrome trace-event "X"
 * (complete) event model renders as a flame graph in
 * chrome://tracing or Perfetto. Categories name the subsystem the
 * span belongs to — `interp`, `ladder`, `explore`, `sym`,
 * `scheduler`, `pipeline`, `classify`, `fuzz`, `oracle` — so one
 * classification shows where its time went across every layer.
 *
 * Like the metrics layer, the tracer is a null global by default:
 * a Span's constructor is one relaxed pointer load and a branch when
 * tracing is off. Timestamps come from steadyNanos() (monotone per
 * process, hence per thread); wall-clock appears only once, as a
 * metadata timestamp in the exported file.
 */

#ifndef PORTEND_SUPPORT_TRACE_H
#define PORTEND_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/clock.h"

namespace portend::obs {

/** One integer key/value attached to a span ("args" in the trace). */
struct Arg
{
    const char *key;
    std::int64_t value;
};

class Tracer
{
  public:
    /** Events beyond this many are counted but dropped, bounding
     *  memory and file size on solver-heavy runs. */
    static constexpr std::size_t kMaxEvents = 1u << 20;

    Tracer();

    /** Record one completed span. `name`/`cat` must be string
     *  literals (stored by pointer). Called by ~Span. */
    void complete(const char *cat, const char *name, std::uint64_t start_ns,
                  std::uint64_t end_ns, const Arg *args, std::size_t nargs);

    /** Spans dropped after hitting kMaxEvents. */
    std::uint64_t dropped() const;

    /** Render the Chrome trace-event JSON document ("traceEvents"
     *  array plus metadata). Call after all spans have closed. */
    std::string toJson() const;

    /** Write toJson() to `path`; false + *err on I/O failure. */
    bool writeFile(const std::string &path, std::string *err) const;

  private:
    struct Event
    {
        const char *cat;
        const char *name;
        std::uint64_t ts_ns; // relative to t0_
        std::uint64_t dur_ns;
        int tid;
        std::vector<Arg> args;
    };

    int tidOf(std::thread::id id); // caller holds mu_

    mutable std::mutex mu_;
    std::vector<Event> events_;
    std::map<std::thread::id, int> tids_;
    int next_tid_ = 1;
    std::uint64_t dropped_ = 0;
    std::uint64_t t0_ns_;        // steadyNanos() at construction
    std::uint64_t wall_us_;      // wallUnixMicros() at construction
};

/** The installed tracer, or nullptr (tracing off). */
Tracer *tracer();

/** Install (or clear) the process-wide tracer. Install before
 *  spawning workers; spans already open keep their captured sink. */
void setTracer(Tracer *t);

/**
 * RAII span. When no tracer is installed the constructor is a load
 * and a branch and the destructor a branch; arg() is a branch.
 */
class Span
{
  public:
    Span(const char *cat, const char *name)
        : sink_(tracer()), cat_(cat), name_(name)
    {
        if (sink_)
            start_ns_ = steadyNanos();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach an integer arg (shown under "args" in the viewer).
     *  At most kMaxArgs stick; extras are ignored. */
    void arg(const char *key, std::int64_t value)
    {
        if (sink_ && nargs_ < kMaxArgs)
            args_[nargs_++] = Arg{key, value};
    }

    ~Span()
    {
        if (sink_)
            sink_->complete(cat_, name_, start_ns_, steadyNanos(), args_,
                            nargs_);
    }

  private:
    static constexpr std::size_t kMaxArgs = 4;

    Tracer *sink_;
    const char *cat_;
    const char *name_;
    std::uint64_t start_ns_ = 0;
    Arg args_[kMaxArgs];
    std::size_t nargs_ = 0;
};

#define PORTEND_OBS_CONCAT_(a, b) a##b
#define PORTEND_OBS_CONCAT(a, b) PORTEND_OBS_CONCAT_(a, b)

/** Open a span covering the rest of the enclosing scope. */
#define OBS_SPAN(cat, name)                                                   \
    ::portend::obs::Span PORTEND_OBS_CONCAT(obs_span_, __LINE__)((cat), (name))

} // namespace portend::obs

#endif // PORTEND_SUPPORT_TRACE_H
