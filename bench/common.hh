/**
 * @file
 * Shared helpers for the reproduction benches.
 *
 * Every bench regenerates one table or figure from the paper.  They
 * share the Table 1 trace set (generated once per process at the
 * CACHETIME_SCALE-controlled scale), the standard size and cycle
 * time axes, and output conventions (aligned tables plus optional
 * CSV via CACHETIME_CSV=1).
 */

#ifndef CACHETIME_BENCH_COMMON_HH
#define CACHETIME_BENCH_COMMON_HH

#include <cerrno> // program_invocation_short_name (glibc)
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/stack_sim.hh"
#include "stats/telemetry.hh"
#include "stats/trace_event.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/table.hh"

namespace cachetime::bench
{

/**
 * Arm what every bench shares: quiet mode unless CACHETIME_VERBOSE
 * is set, and run telemetry.  With CACHETIME_MANIFEST=<path> set, a
 * JSON run manifest (phase wall times, pool utilization, SimCache
 * and sweep counters) is written to <path> at exit, and with
 * CACHETIME_TRACE_OUT=<path> set, a Chrome/Perfetto trace-event
 * file (phase spans, per-worker pool chunks, sweep sub-batches) is
 * collected and written at exit.  Idempotent.
 */
inline void
armBench()
{
    setQuiet(std::getenv("CACHETIME_VERBOSE") == nullptr);
#ifdef __GLIBC__
    telemetry::enableManifestAtExit(program_invocation_short_name);
#else
    telemetry::enableManifestAtExit("bench");
#endif
    if (const char *path = std::getenv("CACHETIME_TRACE_OUT");
        path && *path && !trace_event::enabled()) {
        if (trace_event::beginSession(path))
            std::atexit([] { trace_event::endSession(); });
    }
}

/**
 * Arm the bench (armBench()) and generate the Table 1 traces at the
 * environment-selected scale under the manifest's trace-gen phase.
 * Generation runs through the thread pool (each workload is seeded
 * independently, so the result is order-independent).
 */
inline std::vector<Trace>
standardTraces(double fallback_scale = 0.20)
{
    armBench();
    telemetry::PhaseTimer timer("trace-gen");
    return generateTable1(benchScale(fallback_scale));
}

/** Per-cache size axis: 2KB .. 2MB each (4KB .. 4MB total). */
inline std::vector<std::uint64_t>
sizeAxisWordsEach(unsigned log2_min_kb = 1, unsigned log2_max_kb = 11)
{
    std::vector<std::uint64_t> sizes;
    for (unsigned k = log2_min_kb; k <= log2_max_kb; ++k)
        sizes.push_back((std::uint64_t{1} << k) * 1024 / 4);
    return sizes;
}

/**
 * Cycle-time axis 20..80ns (the paper's sweep), step 4ns.  Each
 * point is computed as lo + k*step from an integer index: the
 * accumulated `t += step` form drifts in floating point and can
 * drop the final 80ns point.
 */
inline std::vector<double>
cycleAxisNs(double lo = 20.0, double hi = 80.0, double step = 4.0)
{
    std::vector<double> cycles;
    std::size_t steps =
        static_cast<std::size_t>((hi - lo) / step + 1e-9);
    for (std::size_t k = 0; k <= steps; ++k)
        cycles.push_back(lo + static_cast<double>(k) * step);
    return cycles;
}

/**
 * The memory systems of Figures 5-2 to 5-4: @p base at each of
 * @p latencies (read, write and recovery alike) under each of
 * @p rates, rate-major, so system r * latencies + l is rates[r] at
 * latencies[l].
 */
inline std::vector<SystemConfig>
memorySystems(const SystemConfig &base,
              const std::vector<TransferRate> &rates,
              const std::vector<double> &latencies)
{
    std::vector<SystemConfig> systems;
    for (const TransferRate &rate : rates) {
        for (double lat : latencies) {
            SystemConfig config = base;
            config.memory.readLatencyNs = lat;
            config.memory.writeNs = lat;
            config.memory.recoveryNs = lat;
            config.memory.rate = rate;
            systems.push_back(config);
        }
    }
    return systems;
}

/**
 * Sweep a two-axis grid of configurations in one parallel batch:
 * result[i][j] is @p engine's answer for make(rows[i], cols[j]).
 * The engine is runGeoMeanMany for full geometric-mean metrics, or
 * runMissRatioMany for figures that report nothing but miss ratios
 * (it picks the cheapest exact engine per point, with ratios
 * bit-identical to runGeoMeanMany's).  All (config, trace) pairs go
 * through the pool at once.
 */
template <typename Engine, typename Row, typename Col, typename Make>
inline auto
sweepGrid(Engine &&engine, const std::vector<Row> &rows,
          const std::vector<Col> &cols,
          const std::vector<Trace> &traces, Make &&make)
{
    std::vector<SystemConfig> configs;
    configs.reserve(rows.size() * cols.size());
    for (const Row &r : rows)
        for (const Col &c : cols)
            configs.push_back(make(r, c));
    auto flat = engine(configs, traces);
    std::vector<decltype(flat)> out(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        out[i].assign(
            flat.begin() + static_cast<std::ptrdiff_t>(i * cols.size()),
            flat.begin() +
                static_cast<std::ptrdiff_t>((i + 1) * cols.size()));
    return out;
}

/** Print @p table as text, or CSV when CACHETIME_CSV=1. */
inline void
emit(const TablePrinter &table, const std::string &title)
{
    std::cout << "== " << title << " ==\n";
    if (const char *csv = std::getenv("CACHETIME_CSV");
        csv && csv[0] == '1') {
        table.printCsv(std::cout);
    } else {
        table.print(std::cout);
    }
    std::cout << '\n';
}

/** A bench driver's `--json` flag, as parsed by jsonFlag(). */
struct JsonFlag
{
    bool given = false; ///< the flag was on the command line
    std::string path;   ///< where to write the report
};

/**
 * Parse the `--json` flag of the bench drivers in any spelling:
 * `--json` (report to @p path), `--json=PATH` or `--json PATH`.
 * Another argument is fatal for @p tool unless @p others_ok, which
 * leaves it to the caller.
 */
inline JsonFlag
jsonFlag(int argc, char **argv, const char *tool, std::string path,
         bool others_ok = false)
{
    JsonFlag flag{false, std::move(path)};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            flag = {true, arg.substr(7)};
        } else if (arg == "--json") {
            flag.given = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                flag.path = argv[++i];
        } else if (!others_ok) {
            fatal("%s: unknown argument %s", tool, arg.c_str());
        }
    }
    return flag;
}

/**
 * @return the directory to write gnuplot figures into, set via
 * CACHETIME_PLOTS; empty means figures are not emitted.
 */
inline std::string
plotDir()
{
    const char *dir = std::getenv("CACHETIME_PLOTS");
    return dir ? dir : "";
}

} // namespace cachetime::bench

#endif // CACHETIME_BENCH_COMMON_HH
