/**
 * @file
 * Chrome/Perfetto trace-event export: spans with wall-clock
 * timestamps, loadable in chrome://tracing or ui.perfetto.dev.
 *
 * The run manifest (telemetry.hh) says how long each stage took in
 * aggregate; this sink says *when* everything happened.  A session
 * buffers typed events in memory and writes one Trace Event Format
 * JSON file at endSession():
 *
 *  - stage spans (telemetry::Span): tool phases, grid queries, fused
 *    batches, stack passes and SMARTS passes, each with the counts
 *    it attached as args;
 *  - work-stealing pool chunk execution, one track per worker
 *    (util/parallel.cc), so pool balance is visible as a timeline;
 *  - SimCache lookup hits and misses as instant events.
 *
 * Categories map to trace processes (pid 1 = stages, 2 = pool,
 * 4 = simcache); within a process each OS thread gets its own track,
 * so a thread's stage spans nest (a batch inside its query) and
 * concurrent spans never overlap on one line.  Timestamps are
 * microseconds on the process clock (telemetry::processWallSeconds).
 *
 * The disabled path is one relaxed atomic load per call site -
 * cheap enough to leave the hooks permanently in the pool worker
 * loop and the SimCache.  Enabled emission takes one short mutex
 * hold per event; every hook fires at coarse granularity (chunks,
 * stages - never per reference), so contention is noise.
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
    Stage = 1,    ///< telemetry::Span stage spans
    Pool = 2,     ///< work-stealing pool chunk execution
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

/** @return microseconds on the process clock (span timebase). */
std::uint64_t nowMicros();

/**
 * Record a completed span [ts, ts+dur] named @p name on the calling
 * thread's track in @p cat, with @p args (a serialized JSON object,
 * or empty for none).  No-op without a session.
 */
void emitComplete(Cat cat, const std::string &name, std::uint64_t ts_us,
                  std::uint64_t dur_us, const std::string &args = {});

/** Record an instant event at now() on the calling thread's track. */
void emitInstant(Cat cat, const char *name);

/**
 * Name the calling thread's tracks (thread_name metadata; the
 * pool's workers call this once at startup).  Takes effect for the
 * current and any later session.
 */
void setThreadName(const std::string &name);

} // namespace trace_event
} // namespace cachetime

#endif // CACHETIME_STATS_TRACE_EVENT_HH
