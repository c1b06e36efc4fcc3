/**
 * @file
 * End-to-end benchmark of the single-pass sweep engine, and the
 * machine-readable report behind `BENCH_sweep.json`.
 *
 * The workload is the Figure 3-1 situation: the full 2KB..2MB L1
 * size axis queried for miss ratios over the Table 1 traces.  The
 * per-config baseline (one full timing simulation per
 * (config, trace) pair, the way every sweep ran before the batch
 * engine existed) is wall-clocked once, then runMissRatioMany()
 * answers the identical query at pool sizes 1, 2 and 8 - the
 * one-thread leg isolates the single-pass algorithmic win, the
 * wider legs add the set-sharded stack kernel and the pipelined
 * feeder on top.  Every leg must be bit-identical to the baseline;
 * the speedups are only claimable because they are.
 *
 * Leg isolation: the SimCache is disabled and cleared before every
 * leg, and the report records its hit/miss counters so a regression
 * that lets one leg ride another's memoized results shows up as a
 * non-zero "sim_cache" entry instead of a phantom speedup.
 *
 * Throughput numbers depend on the host (the report records
 * host_cpus; a single-core machine cannot show parallel speedup);
 * the bit-identity booleans are the portable claim and the smoke
 * test's exit status enforces them.
 *
 * Invoked as `perf_sweep [--json [PATH]]` (or `--json=PATH`); the
 * report goes to PATH, else BENCH_sweep.json.  CACHETIME_SCALE
 * resizes the traces (default 0.05 keeps the smoke test quick).
 */

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/stack_sim.hh"
#include "util/parallel.hh"

using namespace cachetime;
using namespace cachetime::bench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

std::vector<SystemConfig>
fig3Grid()
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words_each : sizeAxisWordsEach()) {
        SystemConfig config = SystemConfig::paperDefault();
        config.setL1SizeWordsEach(words_each);
        configs.push_back(config);
    }
    return configs;
}

/** One timed runMissRatioMany() leg at a given pool size. */
struct SweepLeg
{
    unsigned threads = 1;
    double seconds = 0.0;
    bool identical = false;
    std::uint64_t simCacheHits = 0;
    std::uint64_t simCacheMisses = 0;
};

bool
ratiosMatch(const std::vector<MissRatioMetrics> &swept,
            const std::vector<AggregateMetrics> &baseline)
{
    if (swept.size() != baseline.size())
        return false;
    for (std::size_t c = 0; c < swept.size(); ++c) {
        if (swept[c].readMissRatio != baseline[c].readMissRatio ||
            swept[c].ifetchMissRatio != baseline[c].ifetchMissRatio ||
            swept[c].loadMissRatio != baseline[c].loadMissRatio ||
            swept[c].writeMissRatio != baseline[c].writeMissRatio)
            return false;
    }
    return true;
}

int
runReport(const std::string &path)
{
    const std::vector<SystemConfig> configs = fig3Grid();
    const double scale = benchScale(0.05);
    setQuiet(true);
    const std::vector<Trace> traces = generateTable1(scale);

    std::uint64_t total_refs = 0;
    for (const Trace &trace : traces)
        total_refs += trace.size();

    // Every leg runs cold: memoization off, table emptied, counters
    // zeroed - so no leg can inherit another's results and each
    // leg's hit counter proves it simulated rather than looked up.
    SimCache &sim_cache = SimCache::global();
    const bool cache_was_enabled = sim_cache.enabled();
    sim_cache.setEnabled(false);
    sim_cache.clear();

    // Baseline: the pre-batch per-config path, one full timing
    // simulation per (config, trace) pair.  Thread-independent by
    // construction (a plain serial loop over configs).
    auto baseline_start = Clock::now();
    std::vector<AggregateMetrics> baseline;
    baseline.reserve(configs.size());
    for (const SystemConfig &config : configs) {
        std::vector<std::shared_ptr<const SimResult>> results;
        results.reserve(traces.size());
        for (const Trace &trace : traces)
            results.push_back(std::make_shared<const SimResult>(
                simulateOne(config, trace)));
        baseline.push_back(aggregateResults(config, results));
    }
    const double baseline_seconds = secondsSince(baseline_start);
    const std::uint64_t baseline_cache_hits = sim_cache.hits();
    const std::uint64_t baseline_cache_misses = sim_cache.misses();

    // The contender at each pool size.  The one-thread leg is the
    // serial stack kernel; wider pools engage set sharding and the
    // pipelined feeder, which must change wall-clock only.
    const unsigned original_threads = parallelThreads();
    std::vector<SweepLeg> legs;
    for (unsigned threads : {1u, 2u, 8u}) {
        setParallelThreads(threads);
        sim_cache.clear();
        SweepLeg leg;
        leg.threads = threads;
        auto start = Clock::now();
        std::vector<MissRatioMetrics> swept =
            runMissRatioMany(configs, traces);
        leg.seconds = secondsSince(start);
        leg.identical = ratiosMatch(swept, baseline);
        leg.simCacheHits = sim_cache.hits();
        leg.simCacheMisses = sim_cache.misses();
        legs.push_back(leg);
    }
    setParallelThreads(original_threads);
    sim_cache.clear();
    sim_cache.setEnabled(cache_was_enabled);

    bool all_identical = true;
    for (const SweepLeg &leg : legs)
        all_identical = all_identical && leg.identical;

    const double points = static_cast<double>(configs.size());
    const double serial_seconds = legs.front().seconds;
    const double final_seconds = legs.back().seconds;
    const double speedup = final_seconds > 0.0
                               ? baseline_seconds / final_seconds
                               : 0.0;

    std::ofstream out(path);
    if (!out) {
        warn("perf_sweep: cannot open %s for writing", path.c_str());
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"perf_sweep\",\n"
        << "  \"grid\": \"fig3 L1 size axis, miss-ratio query\",\n"
        << "  \"trace_scale\": " << scale << ",\n"
        << "  \"grid_points\": " << configs.size() << ",\n"
        << "  \"traces\": " << traces.size() << ",\n"
        << "  \"total_refs_per_pass\": " << total_refs << ",\n"
        << "  \"host_cpus\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "  \"stack_shard_bits\": " << stackShardBits(configs)
        << ",\n"
        << "  \"baseline\": {\"engine\": \"per-config timing "
           "simulation\", \"seconds\": "
        << baseline_seconds << ", \"grid_points_per_sec\": "
        << points / baseline_seconds << "},\n"
        << "  \"sim_cache\": {\"baseline_hits\": "
        << baseline_cache_hits << ", \"baseline_misses\": "
        << baseline_cache_misses << "},\n"
        << "  \"threads_axis\": [\n";
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const SweepLeg &leg = legs[i];
        out << "    {\"threads\": " << leg.threads
            << ", \"seconds\": " << leg.seconds
            << ", \"grid_points_per_sec\": " << points / leg.seconds
            << ", \"speedup_vs_one_thread\": "
            << (leg.seconds > 0.0 ? serial_seconds / leg.seconds
                                  : 0.0)
            << ", \"sim_cache_hits\": " << leg.simCacheHits
            << ", \"sim_cache_misses\": " << leg.simCacheMisses
            << ", \"ratios_bit_identical\": "
            << (leg.identical ? "true" : "false") << "}"
            << (i + 1 < legs.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"sweep\": {\"engine\": \"runMissRatioMany "
           "(single-pass stack + fused batch), "
        << legs.back().threads
        << " threads\", \"seconds\": " << final_seconds
        << ", \"grid_points_per_sec\": " << points / final_seconds
        << "},\n"
        << "  \"speedup_end_to_end\": " << speedup << ",\n"
        << "  \"ratios_bit_identical\": "
        << (all_identical ? "true" : "false") << "\n}\n";

    return all_identical ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    return runReport(
        bench::jsonFlag(argc, argv, "perf_sweep", "BENCH_sweep.json")
            .path);
}
