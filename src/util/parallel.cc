#include "util/parallel.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "stats/trace_event.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace cachetime
{

namespace
{

/** @return @p requested, clamped to maxParallelThreads with a warning. */
unsigned
boundedThreads(std::uint64_t requested, const char *what)
{
    if (requested <= maxParallelThreads)
        return static_cast<unsigned>(requested);
    warn("%s asks for %llu threads; using %u", what,
         static_cast<unsigned long long>(requested),
         maxParallelThreads);
    return maxParallelThreads;
}

/** Set while this thread is executing pool work: nested calls inline. */
thread_local bool inPoolWork = false;

/** Set for the lifetime of a pool worker thread (telemetry). */
thread_local bool isPoolWorker = false;

// Process-wide activity counters behind poolStats().
std::atomic<std::uint64_t> statDispatches{0};
std::atomic<std::uint64_t> statSerialRuns{0};
std::atomic<std::uint64_t> statTasks{0};
std::atomic<std::uint64_t> statWorkerTasks{0};

/**
 * One process-wide pool.  Only one parallelFor() is active at a time
 * (submissions serialize on submitMutex_); nested calls never reach
 * the pool, so workers need only track the current task generation.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        // Never destroyed.  A fatal() inside a body calls exit() on
        // a worker, which can neither join itself nor destroy the
        // condition variable the submitting thread still waits on;
        // at any other exit the workers idle in wake_, so nothing
        // needs them joined.
        static ThreadPool &pool = *new ThreadPool;
        return pool;
    }

    unsigned threads() const { return threads_; }

    /** @param threads total executors; 0 = hardware concurrency. */
    void
    resize(unsigned threads)
    {
        std::lock_guard<std::mutex> submit(submitMutex_);
        if (threads == 0)
            threads = defaultThreads();
        if (threads == threads_)
            return;
        stopWorkers();
        threads_ = threads;
        startWorkers();
    }

    void
    run(std::size_t n, const std::function<void(std::size_t)> &body)
    {
        std::lock_guard<std::mutex> submit(submitMutex_);
        {
            // A worker that woke for the last task after its chunks
            // were gone may still be looking; let it leave first.
            std::unique_lock<std::mutex> lock(mutex_);
            done_.wait(lock, [this] { return active_ == 0; });
            taskSize_ = n;
            body_ = &body;
            cursor_.store(0, std::memory_order_relaxed);
            // Chunks trade scheduling overhead against balance; with
            // ~8 chunks per executor the slowest chunk is small
            // relative to the whole task.
            chunk_ = n / (std::size_t{threads_} * 8);
            if (chunk_ == 0)
                chunk_ = 1;
            error_ = nullptr;
            ++generation_;
        }
        wake_.notify_all();
        work();
        // Every chunk is claimed now; wait only for the workers that
        // have woken for this task.  One still asleep would find no
        // chunk left, so a descheduled worker cannot stall the
        // caller.
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] { return active_ == 0; });
        body_ = nullptr;
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    ThreadPool()
    {
        const char *env = std::getenv("CACHETIME_THREADS");
        threads_ = env ? parseThreadCount(env) : 0;
        if (threads_ == 0)
            threads_ = defaultThreads();
        startWorkers();
    }

    static unsigned
    defaultThreads()
    {
        unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }

    void
    startWorkers()
    {
        stop_ = false;
        // New workers wait for the next dispatch rather than join the
        // last, already finished one.  No run() can move generation_
        // here: the caller holds submitMutex_ or is the constructor.
        for (unsigned i = 1; i < threads_; ++i)
            workers_.emplace_back([this, i, seen = generation_] {
                workerLoop(i, seen);
            });
    }

    void
    stopWorkers()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &worker : workers_)
            worker.join();
        workers_.clear();
    }

    /** @param seen the last generation dispatched before this worker. */
    void
    workerLoop(unsigned index, std::uint64_t seen)
    {
        isPoolWorker = true;
        // Name the worker's span track up front so a trace session
        // opened at any later point labels it correctly.
        trace_event::setThreadName("pool-worker-" +
                                   std::to_string(index));
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            wake_.wait(lock, [this, seen] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            ++active_;
            lock.unlock();
            work();
            lock.lock();
            if (--active_ == 0)
                done_.notify_one();
        }
    }

    /** Pull and execute chunks until the cursor passes the end. */
    void
    work()
    {
        bool saved = inPoolWork;
        inPoolWork = true;
        std::uint64_t executed = 0;
        for (;;) {
            std::size_t begin =
                cursor_.fetch_add(chunk_, std::memory_order_relaxed);
            if (begin >= taskSize_)
                break;
            std::size_t end = begin + chunk_;
            if (end > taskSize_)
                end = taskSize_;
            executed += end - begin;
            // One exported span per chunk: the pool's balance (and
            // every straggler) becomes visible as a per-worker
            // timeline when a trace-event session is open.
            const bool spans = trace_event::enabled();
            std::uint64_t t0 = spans ? trace_event::nowMicros() : 0;
            try {
                for (std::size_t i = begin; i < end; ++i)
                    (*body_)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
            }
            if (spans) {
                trace_event::emitComplete(
                    trace_event::Cat::Pool,
                    "chunk [" + std::to_string(begin) + "," +
                        std::to_string(end) + ")",
                    t0, trace_event::nowMicros() - t0);
            }
        }
        inPoolWork = saved;
        if (executed) {
            statTasks.fetch_add(executed, std::memory_order_relaxed);
            if (isPoolWorker)
                statWorkerTasks.fetch_add(executed,
                                          std::memory_order_relaxed);
        }
    }

    std::mutex submitMutex_; ///< serializes run() and resize()

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
    unsigned threads_ = 1;
    bool stop_ = false;
    std::uint64_t generation_ = 0;
    /** Workers inside work(); the cursor is theirs while nonzero. */
    std::size_t active_ = 0;

    // Current task (valid while generation_ is live).
    std::size_t taskSize_ = 0;
    std::size_t chunk_ = 1;
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::atomic<std::size_t> cursor_{0};
    std::exception_ptr error_;
};

} // namespace

unsigned
parallelThreads()
{
    return ThreadPool::instance().threads();
}

bool
parallelInWorker()
{
    return inPoolWork;
}

unsigned
parseThreadCount(const std::string &text)
{
    return boundedThreads(
        parseNumber<std::uint64_t>(text, "CACHETIME_THREADS"),
        "CACHETIME_THREADS");
}

void
setParallelThreads(unsigned threads)
{
    ThreadPool::instance().resize(
        boundedThreads(threads, "setParallelThreads"));
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // Serial path: nested call, single-threaded pool, or a task too
    // small to amortize a wakeup.
    if (inPoolWork || n == 1 || parallelThreads() == 1) {
        statSerialRuns.fetch_add(1, std::memory_order_relaxed);
        statTasks.fetch_add(n, std::memory_order_relaxed);
        if (isPoolWorker)
            statWorkerTasks.fetch_add(n, std::memory_order_relaxed);
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    statDispatches.fetch_add(1, std::memory_order_relaxed);
    ThreadPool::instance().run(n, body);
}

double
PoolStats::workerShare() const
{
    return tasks == 0
               ? 0.0
               : static_cast<double>(workerTasks) /
                     static_cast<double>(tasks);
}

PoolStats
poolStats()
{
    PoolStats stats;
    stats.dispatches = statDispatches.load(std::memory_order_relaxed);
    stats.serialRuns = statSerialRuns.load(std::memory_order_relaxed);
    stats.tasks = statTasks.load(std::memory_order_relaxed);
    stats.workerTasks =
        statWorkerTasks.load(std::memory_order_relaxed);
    stats.threads = parallelThreads();
    return stats;
}

} // namespace cachetime
