/**
 * @file
 * A small self-scheduling thread pool for sweep execution.
 *
 * The paper's method is exhaustive design-space sweeps — Figure 3-4
 * alone is 11 sizes x 16 cycle times x 8 traces = 1408 independent
 * trace runs.  parallelFor()/parallelMap() dispatch such index
 * spaces over a process-wide worker pool: workers pull chunks of
 * indices from a shared atomic cursor (self-scheduling, so long and
 * short tasks balance), and every result is written into a
 * pre-sized slot owned by its index, which makes the output
 * bit-identical regardless of worker count or completion order.
 *
 * Worker count comes from CACHETIME_THREADS (default: the hardware
 * concurrency; 1 forces the serial path).  Nested calls — e.g. a
 * parallel sweep whose body itself calls runGeoMean() — degrade to
 * plain serial loops inside workers instead of deadlocking, so
 * callers can parallelize at whatever level is natural.
 */

#ifndef CACHETIME_UTIL_PARALLEL_HH
#define CACHETIME_UTIL_PARALLEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cachetime
{

/**
 * @return the pool's total concurrency (workers + the calling
 * thread), at least 1.  The first call creates the pool, sized from
 * CACHETIME_THREADS or the hardware concurrency.
 */
unsigned parallelThreads();

/**
 * @return true when the calling thread is currently executing a
 * parallelFor() body.  Nested parallelFor() calls degrade to serial
 * loops; intra-task machinery (the sharded stack kernel, the
 * pipelined feeder) queries this to skip spawning parallelism that
 * could not run anyway.
 */
bool parallelInWorker();

/**
 * Cumulative pool activity counters, for run telemetry.  Cheap to
 * maintain (one relaxed add per chunk) and monotonic for the life of
 * the process.
 */
struct PoolStats
{
    std::uint64_t dispatches = 0;  ///< parallelFor calls using the pool
    std::uint64_t serialRuns = 0;  ///< calls that took the serial path
    std::uint64_t tasks = 0;       ///< iterations executed in the pool
    std::uint64_t workerTasks = 0; ///< of those, run by pool workers
    unsigned threads = 1;          ///< current pool concurrency

    /**
     * @return the fraction of pooled iterations executed by worker
     * threads (the calling thread runs the rest); 0 when nothing has
     * been dispatched.  With T executors, perfect balance gives
     * (T-1)/T.
     */
    double workerShare() const;
};

/** @return a snapshot of the process-wide pool counters. */
PoolStats poolStats();

/** Most executors the pool runs; a larger request warns and clamps. */
constexpr unsigned maxParallelThreads = 1024;

/**
 * @return the pool size CACHETIME_THREADS=@p text asks for (0 =
 * hardware concurrency), clamped to maxParallelThreads with a
 * warning; fatal unless @p text is a decimal count.  Starts no pool.
 */
unsigned parseThreadCount(const std::string &text);

/**
 * Resize the pool to @p threads executors (0 = hardware
 * concurrency), clamped to maxParallelThreads with a warning.
 * Overrides CACHETIME_THREADS; used by tests and benches to compare
 * thread counts within one process.  Must not be called
 * concurrently with parallelFor().
 */
void setParallelThreads(unsigned threads);

/**
 * Run @p body(i) for every i in [0, n), distributed over the pool.
 *
 * The calling thread participates, so the serial path (one thread,
 * tiny n, or a call from inside a pool worker) is a plain loop.
 * Iterations must be independent; they may run in any order and the
 * call returns only when all have finished.  The first exception
 * thrown by any iteration is rethrown on the calling thread after
 * the loop drains.  A fatal() in an iteration ends the process with
 * exit code 1 whichever thread runs it.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body);

/**
 * Map [0, n) through @p fn into a pre-sized vector: slot i receives
 * fn(i).  Order is preserved by construction — parallelism never
 * changes the result, only the wall-clock time.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t n, Fn &&fn)
{
    std::vector<T> out(n);
    parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace cachetime

#endif // CACHETIME_UTIL_PARALLEL_HH
