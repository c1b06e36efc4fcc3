/**
 * @file
 * Microbenchmarks of the simulator itself, plus the machine-readable
 * throughput report consumed by `BENCH_simulator.json`.
 *
 * The paper's infrastructure section reports 38,000 references per
 * second aggregated over 10-20 MicroVAX II workstations; these
 * benchmarks report what the cachetime pipeline does per reference
 * on one modern core (trace generation, organizational cache
 * access, and full timing simulation in single- and two-level
 * configurations), plus what the parallel sweep engine does with
 * all of them: BM_SweepGrid runs a Fig 3/4-shaped grid at a given
 * thread count (compare Arg(1) vs higher Args for the speedup) and
 * BM_SweepGridMemoized reruns it against a warm SimCache,
 * reporting the hit rate as a counter.
 *
 * Invoked as `perf_simulator --json [PATH]` (or `--json=PATH`) the
 * binary skips google benchmark entirely and writes a JSON
 * throughput report instead (to BENCH_simulator.json without a
 * PATH): per-workload refs/sec of `simulateOne` under the paper-default
 * system, single-threaded and with eight concurrent simulations,
 * with the geomean over the Table 1 workloads, at the trace scale
 * CACHETIME_SCALE sets (default 0.2).  EXPERIMENTS.md documents the
 * regen command.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/common.hh"
#include "cache/cache.hh"
#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "verify/diff.hh"

using namespace cachetime;

namespace
{

const Trace &
sharedTrace()
{
    static const Trace trace = [] {
        setQuiet(true);
        return generate(table1Workloads().front(), 0.2);
    }();
    return trace;
}

void
BM_TraceGeneration(benchmark::State &state)
{
    setQuiet(true);
    WorkloadSpec spec = table1Workloads().front();
    std::size_t refs = 0;
    for (auto _ : state) {
        Trace t = generate(spec, 0.1);
        refs += t.size();
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}

void
BM_CacheAccess(benchmark::State &state)
{
    const Trace &trace = sharedTrace();
    CacheConfig config;
    config.sizeWords = 16 * 1024;
    config.blockWords = 4;
    config.assoc = static_cast<unsigned>(state.range(0));
    Cache cache(config);
    std::size_t i = 0, refs = 0;
    for (auto _ : state) {
        const Ref &ref = trace.refs()[i];
        benchmark::DoNotOptimize(cache.access(ref));
        if (++i == trace.size())
            i = 0;
        ++refs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}

void
BM_SystemRun(benchmark::State &state)
{
    const Trace &trace = sharedTrace();
    SystemConfig config = SystemConfig::paperDefault();
    std::size_t refs = 0;
    for (auto _ : state) {
        SimResult r = simulateOne(config, trace);
        benchmark::DoNotOptimize(r);
        refs += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}

void
BM_SystemRunTwoLevel(benchmark::State &state)
{
    const Trace &trace = sharedTrace();
    SystemConfig config = SystemConfig::paperDefault();
    config.hasL2 = true;
    config.l2cache.sizeWords = 128 * 1024;
    config.l2cache.blockWords = 16;
    config.l2cache.allocPolicy = AllocPolicy::WriteAllocate;
    config.l2Buffer.matchGranularityWords = 16;
    std::size_t refs = 0;
    for (auto _ : state) {
        SimResult r = simulateOne(config, trace);
        benchmark::DoNotOptimize(r);
        refs += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}

/// A small Fig 3/4-shaped sweep: size x cycle-time grid over two
/// short traces, flattened through runGeoMeanMany like the real
/// figure benches.
std::vector<AggregateMetrics>
runSweepGrid(const std::vector<Trace> &traces)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words_each : {1024u, 4096u, 16384u, 65536u}) {
        for (double cycle : {40.0, 50.0, 60.0, 70.0}) {
            SystemConfig config = SystemConfig::paperDefault();
            config.setL1SizeWordsEach(words_each);
            config.cycleNs = cycle;
            configs.push_back(config);
        }
    }
    return runGeoMeanMany(configs, traces);
}

const std::vector<Trace> &
sweepTraces()
{
    static const std::vector<Trace> traces = [] {
        setQuiet(true);
        std::vector<Trace> out;
        auto specs = table1Workloads();
        for (std::size_t i = 0; i < 2 && i < specs.size(); ++i)
            out.push_back(generate(specs[i], 0.1));
        return out;
    }();
    return traces;
}

/// Cold-cache sweep at state.range(0) threads.  Run with Arg(1)
/// and Arg(N) and divide the times for the serial-vs-parallel
/// speedup; the report prints each iteration's thread count.
void
BM_SweepGrid(benchmark::State &state)
{
    const std::vector<Trace> &traces = sweepTraces();
    setParallelThreads(static_cast<unsigned>(state.range(0)));
    std::size_t points = 0;
    for (auto _ : state) {
        // Clear between iterations so every simulation is a miss
        // and the timing measures raw parallel throughput.
        SimCache::global().clear();
        auto metrics = runSweepGrid(traces);
        benchmark::DoNotOptimize(metrics);
        points += metrics.size();
    }
    setParallelThreads(0);
    SimCache::global().clear();
    state.SetItemsProcessed(static_cast<std::int64_t>(points));
    state.counters["threads"] =
        static_cast<double>(state.range(0));
}

/// Same sweep against a warm SimCache: every (config, trace) pair
/// was memoized by the warm-up run, so this measures the memoized
/// path and reports the observed hit rate.
void
BM_SweepGridMemoized(benchmark::State &state)
{
    const std::vector<Trace> &traces = sweepTraces();
    SimCache::global().clear();
    benchmark::DoNotOptimize(runSweepGrid(traces)); // warm up
    std::uint64_t hits0 = SimCache::global().hits();
    std::uint64_t misses0 = SimCache::global().misses();
    std::size_t points = 0;
    for (auto _ : state) {
        auto metrics = runSweepGrid(traces);
        benchmark::DoNotOptimize(metrics);
        points += metrics.size();
    }
    double hits = static_cast<double>(SimCache::global().hits() -
                                      hits0);
    double misses = static_cast<double>(SimCache::global().misses() -
                                        misses0);
    state.counters["hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    SimCache::global().clear();
    state.SetItemsProcessed(static_cast<std::int64_t>(points));
}

// ---------------------------------------------------------------
// --json throughput report
// ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Best-of-@p windows refs/sec of repeated simulateOne() runs.  Each
 * window simulates for at least @p minSeconds (and at least twice);
 * the best window is reported, which is the standard defence against
 * a noisy co-scheduled host.
 */
double
singleThreadRefsPerSec(const SystemConfig &config, const Trace &trace,
                       int windows, double minSeconds)
{
    double best = 0.0;
    for (int w = 0; w < windows; ++w) {
        std::size_t iters = 0;
        auto start = Clock::now();
        double elapsed = 0.0;
        do {
            SimResult r = simulateOne(config, trace);
            benchmark::DoNotOptimize(r);
            ++iters;
            elapsed = secondsSince(start);
        } while (iters < 2 || elapsed < minSeconds);
        double rate = static_cast<double>(iters) *
                      static_cast<double>(trace.size()) / elapsed;
        best = std::max(best, rate);
    }
    return best;
}

/**
 * Aggregate refs/sec of @p threads concurrent simulateOne() runs of
 * the same (config, trace) pair, one per pool executor.  Also
 * cross-checks that every concurrent copy produced a SimResult
 * bit-identical to @p reference (the fast path must not share
 * mutable state between concurrent systems).
 */
double
multiThreadRefsPerSec(const SystemConfig &config, const Trace &trace,
                      unsigned threads, int windows,
                      const SimResult &reference, bool &identical)
{
    setParallelThreads(threads);
    double best = 0.0;
    for (int w = 0; w < windows; ++w) {
        std::vector<SimResult> results(threads);
        auto start = Clock::now();
        parallelFor(threads, [&](std::size_t i) {
            results[i] = simulateOne(config, trace);
        });
        double elapsed = secondsSince(start);
        double rate = static_cast<double>(threads) *
                      static_cast<double>(trace.size()) / elapsed;
        best = std::max(best, rate);
        for (const SimResult &r : results)
            if (!verify::diffResults(reference, r).empty())
                identical = false;
    }
    setParallelThreads(0);
    return best;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

int
runJsonReport(const std::string &path)
{
    setQuiet(true);

    const double scale = benchScale(0.2);

    const SystemConfig config = SystemConfig::paperDefault();
    const auto specs = table1Workloads();

    std::vector<std::string> names;
    std::vector<double> single, eight;
    bool identical = true;
    std::uint64_t total_refs = 0;

    std::ofstream out(path);
    if (!out) {
        warn("perf_simulator: cannot open %s for writing",
             path.c_str());
        return 1;
    }

    out << "{\n"
        << "  \"bench\": \"perf_simulator\",\n"
        << "  \"config\": \"SystemConfig::paperDefault\",\n"
        << "  \"trace_scale\": " << scale << ",\n"
        << "  \"workloads\": [\n";

    for (std::size_t i = 0; i < specs.size(); ++i) {
        Trace trace = generate(specs[i], scale);
        total_refs += trace.size();
        SimResult reference = simulateOne(config, trace);

        double st = singleThreadRefsPerSec(config, trace, 3, 0.3);
        double mt = multiThreadRefsPerSec(config, trace, 8, 2,
                                          reference, identical);
        names.push_back(specs[i].name);
        single.push_back(st);
        eight.push_back(mt);

        out << "    {\"name\": \"" << specs[i].name << "\""
            << ", \"refs\": " << trace.size()
            << ", \"single_thread_refs_per_sec\": "
            << static_cast<std::uint64_t>(st)
            << ", \"eight_thread_refs_per_sec\": "
            << static_cast<std::uint64_t>(mt) << "}"
            << (i + 1 < specs.size() ? "," : "") << "\n";
    }

    double st_geo = geomean(single);
    double mt_geo = geomean(eight);

    // Measured with this same harness on the pre-overhaul tree
    // (commit 41a4b80, identical RelWithDebInfo flags, interleaved
    // with the post-overhaul runs on the same host).  Kept here so
    // the emitted report always carries the speedup it was accepted
    // against; future PRs extend the trajectory from this file.
    const double baseline_geo = 27.8e6;

    out << "  ],\n"
        << "  \"geomean_single_thread_refs_per_sec\": "
        << static_cast<std::uint64_t>(st_geo) << ",\n"
        << "  \"geomean_eight_thread_refs_per_sec\": "
        << static_cast<std::uint64_t>(mt_geo) << ",\n"
        << "  \"eight_thread_bit_identical\": "
        << (identical ? "true" : "false") << ",\n"
        << "  \"baseline\": {\"commit\": \"41a4b80\", "
        << "\"geomean_single_thread_refs_per_sec\": "
        << static_cast<std::uint64_t>(baseline_geo) << "},\n"
        << "  \"speedup_vs_baseline\": "
        << st_geo / baseline_geo << ",\n"
        << "  \"total_refs_per_workload_pass\": " << total_refs
        << "\n}\n";

    return identical ? 0 : 2;
}

} // namespace

BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(8);
BENCHMARK(BM_SystemRun)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SystemRunTwoLevel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepGrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0) // 0 = all hardware threads
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_SweepGridMemoized)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    // Without --json, the arguments are google benchmark's.
    const bench::JsonFlag json = bench::jsonFlag(
        argc, argv, "perf_simulator", "BENCH_simulator.json", true);
    if (json.given)
        return runJsonReport(json.path);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
