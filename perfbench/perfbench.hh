/**
 * @file
 * Shared declarations of the cachetime benchmark.
 *
 * A run is one workload in one fresh process: set-up (trace
 * generation and hashing) is repeated and timed, then the workload's
 * query is repeated for a fixed wall-clock budget with the SimCache
 * cleared before every repetition, so every repetition is cold.  The
 * outputs of every repetition are digested per grid point and checked
 * against each other, against pinned digests for the default seed,
 * and, for a few points per run, against the per-config simulateOne()
 * path.
 *
 * A traced run (--trace 1) additionally breaks the query down into
 * the public calls it makes, each wrapped in a span recorded here in
 * the benchmark (never inside the library), and times one
 * micro-kernel per layer over the workload's own references.
 */

#ifndef CACHETIME_PERFBENCH_HH
#define CACHETIME_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/sim_result.hh"
#include "sim/system_config.hh"
#include "trace/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** @return the median of @p values (0 when empty). */
double median(std::vector<double> values);

/** One recorded span: a timed call into one layer. */
struct SpanRecord
{
    std::string name;
    double startS = 0.0; ///< relative to the log's creation
    double durS = 0.0;
    std::string parent;  ///< the benchmark step that made the call
};

/**
 * In-memory span log.  Spans are kept until the run ends and then
 * written into the --json report.  Thread safe: spans may close on
 * pool workers.
 */
class SpanLog
{
  public:
    /** @p parent names the benchmark step the spans belong to. */
    explicit SpanLog(std::string parent);

    /** Run @p fn inside a span named @p name; @return its result. */
    template <typename Fn>
    auto
    time(const std::string &name, Fn &&fn)
    {
        Clock::time_point start = Clock::now();
        struct Closer
        {
            SpanLog &log;
            const std::string &name;
            Clock::time_point start;
            ~Closer() { log.close(name, start); }
        } closer{*this, name, start};
        return fn();
    }

    /** @return the summed duration of every span named @p name. */
    double total(const std::string &name) const;

    /** @return every span closed so far, in closing order. */
    std::vector<SpanRecord> records() const;

    /** Drop every span (keeps the time origin). */
    void clear();

  private:
    void close(const std::string &name, Clock::time_point start);

    Clock::time_point origin_;
    std::string parent_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** Run @p fn, inside a span when @p log is non-null. */
template <typename Fn>
auto
timed(SpanLog *log, const std::string &name, Fn &&fn)
{
    if (log)
        return log->time(name, fn);
    return fn();
}

/** A metric as printed: name -> (value, unit). */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** @return a 64-bit digest of every statistic @p result registers. */
std::uint64_t digestResult(const cachetime::SimResult &result);

/** @return a 64-bit digest of the bit patterns of @p values. */
std::uint64_t digestDoubles(const std::vector<double> &values);

/** @return true when @p a and @p b agree on every counter. */
bool sameResult(const cachetime::SimResult &a,
                const cachetime::SimResult &b, std::string *why);

/** What one query repetition produced, digested per grid point. */
struct QueryOutput
{
    std::vector<std::uint64_t> digests; ///< one per grid point
    double sampleErrRel = 0.0; ///< SMARTS vs full-run CPI (stream)
    double cpiCiRel = 0.0;     ///< SMARTS relative CI half-width
};

/**
 * @return the indices of the points whose digest differs from
 * @p reference (a size mismatch marks every point).
 */
std::vector<std::size_t>
mismatchedPoints(const std::vector<std::uint64_t> &digests,
                 const std::vector<std::uint64_t> &reference);

/** Work counts a traced query converts span times into rates with. */
struct QueryWork
{
    double stackRefs = 0.0;        ///< refs through runStackSweep
    double batchRefPoints = 0.0;   ///< refs x configs through batches
    std::size_t stackPoints = 0;   ///< grid points the stack answers
    std::size_t fusedPoints = 0;   ///< grid points the fused lattice answers
    unsigned shardBits = 0;        ///< stackShardBits() of the stack grid
    double smartsStreamRefs = 0.0; ///< stream refs per SMARTS config
    double smartsReplayRefs = 0.0; ///< refs the replays issued
    std::size_t smartsReplays = 0; ///< configs answered by replay
};

/** The references and machines the per-layer micro-kernels use. */
struct LayerInputs
{
    const cachetime::Trace *trace = nullptr; ///< one workload trace
    cachetime::SystemConfig config;          ///< one grid point
    cachetime::SystemConfig coherentConfig;  ///< coherent variant
};

/** One benchmark workload: inputs, query, breakdown and checks. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** @return the workload's name, as on the command line. */
    virtual std::string name() const = 0;

    /** @return true when the query drives a pipelined feeder. */
    virtual bool usesFeeder() const { return false; }

    /** @return the number of grid points each query answers. */
    virtual std::size_t points() const = 0;

    /**
     * Generate the inputs for @p seed and compute their identity
     * hashes (and, for file-backed workloads, write the file).
     * Replaces any earlier inputs.  Generation and hashing calls are
     * recorded as spans when @p log is non-null.  @return the number
     * of references generated.
     */
    virtual double setup(std::uint64_t seed, SpanLog *log) = 0;

    /** Drop the inputs (so a timed set-up starts from nothing). */
    virtual void release() = 0;

    /** Run the workload's query once. */
    virtual QueryOutput query() = 0;

    /**
     * Run the same query broken down into the public calls it makes,
     * each in a span.  Must reproduce query()'s digests exactly.
     */
    virtual QueryOutput tracedQuery(SpanLog &log, QueryWork &work) = 0;

    /**
     * Check point @p index of the last query against the per-config
     * simulateOne() path.  @return false (with a reason) on mismatch.
     */
    virtual bool spotCheck(std::size_t index, std::string *why) = 0;

    /** @return the inputs for the per-layer micro-kernels. */
    virtual LayerInputs layerInputs() = 0;
};

/** One timed repetition of a workload's query. */
struct Rep
{
    QueryOutput out;
    double seconds = 0.0;
    double cpuSeconds = 0.0;        ///< all threads' CPU time
    std::uint64_t cacheHits = 0;    ///< SimCache hits during the query
    std::uint64_t cacheLookups = 0; ///< SimCache hits + misses
};

/**
 * Run @p workload's query once - broken down into spans when @p log
 * is non-null - after clearing the SimCache when @p cold is set.
 */
Rep measureQuery(Workload &workload, bool cold, SpanLog *log,
                 QueryWork *work);

/**
 * @return true when @p rep reused memoized results: a cold run must
 * never hit the SimCache, so any hit means the timing is not cold.
 */
bool warmRun(const Rep &rep);

/** @return the workload called @p name, or null. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const std::string &workdir,
                                       double scale = 1.0);

/** @return every workload name, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/**
 * Time the per-layer micro-kernels over @p inputs and add their
 * metrics (trace.*, cache.*, memory.*, sim.*) to @p out.  @p workdir
 * holds the scratch CTTRACE2 file the decode kernels read.
 */
void measureLayers(const LayerInputs &inputs, const std::string &workdir,
                   Metrics &out);

/** Run the benchmark's own tests; @return the process exit code. */
int selfTest(const std::string &workdir);

} // namespace perfbench

#endif // CACHETIME_PERFBENCH_HH
