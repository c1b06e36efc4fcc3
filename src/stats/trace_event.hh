/**
 * @file
 * Chrome/Perfetto trace-event export: spans with wall-clock
 * timestamps, loadable in chrome://tracing or ui.perfetto.dev.
 *
 * The run manifest (telemetry.hh) says how long each phase took in
 * aggregate; this sink says *when* everything happened.  A session
 * buffers typed events in memory and writes one Trace Event Format
 * JSON file at endSession():
 *
 *  - PhaseTimer scopes (telemetry.cc emits a span per scope);
 *  - work-stealing pool chunk execution, one track per worker
 *    (util/parallel.cc), so pool balance is visible as a timeline;
 *  - SimCache lookup hits and misses as instant events;
 *  - sweep-engine sub-batches (core/sweep.cc) and SMARTS passes
 *    (core/smarts.cc), so a "7x" sweep speedup claim can be
 *    inspected span by span.
 *
 * Categories map to trace processes (pid 1 = phases, 2 = pool,
 * 3 = sweep, 4 = simcache); within a process each OS thread gets
 * its own track, so concurrent spans never overlap on one line.
 *
 * The disabled path is one relaxed atomic load per call site -
 * cheap enough to leave the hooks permanently in the pool worker
 * loop and the SimCache.  Enabled emission takes one short mutex
 * hold per event; every hook fires at coarse granularity (chunks,
 * phases, batches - never per reference), so contention is noise.
 * Exactly one session can be open at a time.
 */

#ifndef CACHETIME_STATS_TRACE_EVENT_HH
#define CACHETIME_STATS_TRACE_EVENT_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace cachetime
{
namespace trace_event
{

/** Track group an event renders under (trace "process"). */
enum class Cat : std::uint8_t
{
    Phase = 1,    ///< PhaseTimer scopes
    Pool = 2,     ///< work-stealing pool chunk execution
    Sweep = 3,    ///< sweep-engine sub-batches
    SimCacheT = 4 ///< SimCache lookup instants
};

namespace detail
{
extern std::atomic<bool> sessionOpen;
}

/** @return true while a session is collecting (one relaxed load). */
inline bool
enabled()
{
    return detail::sessionOpen.load(std::memory_order_relaxed);
}

/**
 * Start collecting into an in-memory buffer to be written to
 * @p path by endSession().  The calling thread is named "main" on
 * every category it later emits to.  @return false (and leave any
 * running session untouched) if a session is already open.
 */
bool beginSession(const std::string &path);

/**
 * Write the buffered session as Trace Event Format JSON and close
 * it.  @return false when no session was open or the file could
 * not be written.  Hooks racing endSession() may drop their event;
 * close sessions at quiesce points (tool exit) where that cannot
 * matter.
 */
bool endSession();

/** @return microseconds since process start (span timebase). */
std::uint64_t nowMicros();

/**
 * Record a completed span [ts, ts+dur] named @p name on the calling
 * thread's track in @p cat.  No-op without a session.
 */
void emitComplete(Cat cat, const std::string &name,
                  std::uint64_t ts_us, std::uint64_t dur_us);

/** Record an instant event at now() on the calling thread's track. */
void emitInstant(Cat cat, const char *name);

/**
 * Name the calling thread's tracks (thread_name metadata; the
 * pool's workers call this once at startup).  Takes effect for the
 * current and any later session.
 */
void setThreadName(const std::string &name);

/** Scoped span: construction stamps the start, destruction emits. */
class Span
{
  public:
    Span(Cat cat, std::string name)
        : cat_(cat), name_(std::move(name)),
          armed_(enabled()), start_(armed_ ? nowMicros() : 0)
    {
    }

    ~Span()
    {
        if (armed_ && enabled())
            emitComplete(cat_, name_, start_, nowMicros() - start_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Cat cat_;
    std::string name_;
    bool armed_;
    std::uint64_t start_;
};

} // namespace trace_event
} // namespace cachetime

#endif // CACHETIME_STATS_TRACE_EVENT_HH
