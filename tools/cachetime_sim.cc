/**
 * @file
 * cachetime_sim: the full simulator as a command-line tool.
 *
 * Mirrors the paper's three-phase flow.  A *specification file*
 * fixes the baseline machine; zero or more *variation files* are
 * layered on top ("Each of the variation files changes one or more
 * characteristics: for example, set size, number of sets, cycle
 * time, or memory latency").  The resolved machine then runs either
 * trace files or the built-in Table 1 workloads, and a statistics
 * report is printed per trace plus the geometric-mean summary.
 *
 * Usage:
 *   cachetime_sim [options]
 *     --spec FILE         specification file (key=value lines)
 *     --vary FILE         variation file (repeatable, ordered)
 *     --set KEY=VALUE     inline variation (repeatable)
 *     --trace FILE        trace file (repeatable; traces run and
 *                         report in argument order): CTTRACE2 by
 *                         magic, else Dinero for .din and text
 *                         otherwise.  Every format streams, so RSS
 *                         stays bounded however long the trace
 *     --trace-file FILE   another spelling of --trace
 *     --workloads SCALE   use the Table 1 workloads at SCALE
 *     --cores N           coherent multi-core mode with N cores
 *                         (sugar for --set cores=N plus coherence
 *                         defaults; pids pick cores via --core-map)
 *     --protocol P        coherence protocol: vi, msi or mesi
 *                         (default mesi when --cores is given)
 *     --core-map M        pid-to-core policy (modulo)
 *     --csv               machine-readable per-trace output
 *     --stats-json FILE   write a JSON run manifest with the full
 *                         per-trace stats registry to FILE
 *     --stats             dump the full stats registry per trace
 *     --interval-stats N  collect a windowed time series: snapshot
 *                         the measured counters every N issued
 *                         references (embedded in --stats-json as
 *                         "interval_stats"; bit-identical runs)
 *     --interval-csv FILE write the interval series as CSV
 *     --trace-out FILE    export a Chrome/Perfetto trace-event file
 *                         (stage spans, pool workers)
 *     --progress SPEC     stream NDJSON progress records to SPEC:
 *                         "-" = stderr, "fd:N" = inherited fd,
 *                         otherwise a file path
 *     --trace-flags LIST  enable event tracing (cache,wb,tlb,mem,
 *                         sim or all; same syntax as CACHETIME_TRACE)
 *     --sample SPEC       SMARTS sampled simulation instead of full
 *                         runs: "smarts" for the defaults or
 *                         "smarts:U=1000,W=2000,period=50000" with
 *                         optional pilot=N, rel=R (target relative
 *                         error), conf=C keys; reports mean +- CI
 *     --checkpoint-dir D  with --sample: store/reuse live-points
 *                         checkpoints in directory D, so repeated
 *                         runs over the same trace replay only the
 *                         measurement units
 *     --quiet             suppress informational output (default)
 *     --verbose           informational output + distributions
 *
 * Every --opt VALUE may also be written --opt=VALUE.  Numbers, here
 * and in key=value lines, are checked whole (util/parse.hh): counts
 * are decimal digits only, and a malformed value is fatal.
 * With no --trace/--workloads, runs the Table 1 set at scale 0.1.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/coherence.hh"
#include "core/experiment.hh"
#include "core/smarts.hh"
#include "sim/core_map.hh"
#include "sim/simulator.hh"
#include "stats/interval.hh"
#include "stats/progress.hh"
#include "stats/stats.hh"
#include "stats/telemetry.hh"
#include "stats/trace_event.hh"
#include "trace_debug/trace_debug.hh"
#include "trace/ref_source.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/table.hh"

using namespace cachetime;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cachetime_sim: cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
printResult(const SimResult &r, bool csv, bool verbose)
{
    if (csv) {
        std::cout << r.traceName << ',' << r.refs << ',' << r.cycles
                  << ',' << TablePrinter::fmt(r.cyclesPerRef(), 6)
                  << ',' << TablePrinter::fmt(r.execNsPerRef(), 4)
                  << ',' << TablePrinter::fmt(r.readMissRatio(), 6)
                  << '\n';
        return;
    }
    TablePrinter table({"metric", r.traceName});
    table.addRow({"references", std::to_string(r.refs)});
    table.addRow({"cycles", std::to_string(r.cycles)});
    table.addRow({"cycles/ref",
                  TablePrinter::fmt(r.cyclesPerRef(), 3)});
    table.addRow({"exec ns/ref",
                  TablePrinter::fmt(r.execNsPerRef(), 2)});
    table.addRow({"read miss ratio",
                  TablePrinter::fmt(r.readMissRatio(), 4)});
    table.addRow({"ifetch miss ratio",
                  TablePrinter::fmt(r.ifetchMissRatio(), 4)});
    table.addRow({"load miss ratio",
                  TablePrinter::fmt(r.loadMissRatio(), 4)});
    table.addRow({"write miss ratio",
                  TablePrinter::fmt(r.dcache.writeMissRatio(), 4)});
    table.addRow({"read traffic ratio",
                  TablePrinter::fmt(r.readTrafficRatio(), 3)});
    table.addRow({"wbuf full stalls",
                  std::to_string(r.l1Buffer.fullStalls)});
    table.addRow({"wbuf read matches",
                  std::to_string(r.l1Buffer.readMatches)});
    if (r.hasL2()) {
        table.addRow({"L2 read miss ratio",
                      TablePrinter::fmt(r.l2().readMissRatio(), 4)});
    }
    if (r.physical) {
        table.addRow({"tlb miss ratio",
                      TablePrinter::fmt(r.tlb.missRatio(), 5)});
    }
    if (r.coherent) {
        table.addRow({"cores", std::to_string(r.cores)});
        table.addRow({"bus transactions",
                      std::to_string(
                          r.coherenceStats.busTransactions)});
        table.addRow({"invalidations",
                      std::to_string(
                          r.coherenceStats.invalidations)});
        table.addRow({"coherence misses",
                      std::to_string(r.missClasses.coherence)});
    }
    table.print(std::cout);
    if (verbose) {
        std::cout << "miss penalty (cycles): "
                  << r.missPenaltyCycles.summary() << '\n'
                  << "wbuf occupancy:        "
                  << r.l1Buffer.occupancy.summary() << '\n';
    }
    std::cout << '\n';
}

/**
 * Simulator::run() with a progress phase: the meter (a no-op when
 * no sink is open) counts each ChunkFeeder span of @p source.
 */
SimResult
runWithProgress(Simulator &system, RefSource &source,
                ProgressMeter &meter)
{
    meter.setLabel(source.name());
    meter.setTotal(source.size(), "refs");
    ChunkFeeder feeder(source);
    system.beginRun(source);
    while (ChunkFeeder::Span span = feeder.next()) {
        system.feedChunk(span.data, span.size);
        meter.bump(span.size);
    }
    SimResult result = system.endRun();
    meter.finish();
    return result;
}

/** Parse a --sample spec: "smarts[:U=..,W=..,period=..,...]". */
SmartsConfig
parseSampleSpec(const std::string &spec)
{
    SmartsConfig cfg;
    std::string rest;
    if (spec == "smarts")
        return cfg;
    if (spec.rfind("smarts:", 0) == 0)
        rest = spec.substr(7);
    else
        fatal("cachetime_sim: --sample expects 'smarts' or "
              "'smarts:KEY=VALUE,...', got '%s'",
              spec.c_str());
    std::istringstream ss(rest);
    std::string item;
    while (std::getline(ss, item, ',')) {
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("cachetime_sim: bad --sample item '%s'",
                  item.c_str());
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        const std::string what = "cachetime_sim: --sample " + key;
        auto count = [&] {
            return parseNumber<std::uint64_t>(value, what.c_str());
        };
        auto real = [&] {
            return parseNumber<double>(value, what.c_str());
        };
        if (key == "U")
            cfg.unitRefs = count();
        else if (key == "W")
            cfg.warmupRefs = count();
        else if (key == "period")
            cfg.periodRefs = count();
        else if (key == "pilot")
            cfg.pilotUnits = count();
        else if (key == "rel")
            cfg.targetRelError = real();
        else if (key == "conf")
            cfg.confidence = real();
        else
            fatal("cachetime_sim: unknown --sample key '%s'",
                  key.c_str());
    }
    return cfg;
}

void
printSampled(const std::string &name, const SmartsRunResult &run,
             bool csv)
{
    const MeanCI &cpi = run.estimate.cpi;
    const MeanCI &miss = run.estimate.readMissRatio;
    if (csv) {
        std::cout << name << ',' << smartsModeName(run.mode) << ','
                  << run.selectedCount << ','
                  << TablePrinter::fmt(cpi.mean, 6) << ','
                  << TablePrinter::fmt(cpi.halfWidth, 6) << ','
                  << TablePrinter::fmt(miss.mean, 6) << ','
                  << TablePrinter::fmt(miss.halfWidth, 6) << ','
                  << TablePrinter::fmt(run.replayFraction(), 4)
                  << '\n';
        return;
    }
    TablePrinter table({"metric", name});
    table.addRow({"mode", smartsModeName(run.mode)});
    table.addRow({"units (selected/planned)",
                  std::to_string(run.selectedCount) + "/" +
                      std::to_string(run.plan.units.size())});
    table.addRow({"pilot cv", TablePrinter::fmt(run.pilotCv, 4)});
    table.addRow({"cycles/ref",
                  TablePrinter::fmt(cpi.mean, 4) + " +- " +
                      TablePrinter::fmt(cpi.halfWidth, 4)});
    table.addRow({"read miss ratio",
                  TablePrinter::fmt(miss.mean, 5) + " +- " +
                      TablePrinter::fmt(miss.halfWidth, 5)});
    table.addRow({"confidence",
                  TablePrinter::fmt(cpi.confidence, 2)});
    table.addRow({"replay fraction",
                  TablePrinter::fmt(run.replayFraction(), 4)});
    table.print(std::cout);
    std::cout << '\n';
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
meanCiJson(const MeanCI &ci)
{
    std::ostringstream ss;
    ss << "{\"mean\":" << jsonNum(ci.mean)
       << ",\"half_width\":" << jsonNum(ci.halfWidth)
       << ",\"confidence\":" << jsonNum(ci.confidence)
       << ",\"n\":" << ci.n << '}';
    return ss.str();
}

/** One element of the manifest's "sampling" array. */
std::string
sampledJson(const std::string &name, const SmartsRunResult &run)
{
    std::ostringstream ss;
    ss << "{\"name\":\"" << stats::jsonEscape(name)
       << "\",\"mode\":\"" << smartsModeName(run.mode)
       << "\",\"unit_refs\":" << run.plan.cfg.unitRefs
       << ",\"warmup_refs\":" << run.plan.cfg.warmupRefs
       << ",\"period_refs\":" << run.plan.cfg.periodRefs
       << ",\"planned_units\":" << run.plan.units.size()
       << ",\"selected_units\":" << run.selectedCount
       << ",\"pilot_cv\":" << jsonNum(run.pilotCv)
       << ",\"cpi\":" << meanCiJson(run.estimate.cpi)
       << ",\"read_miss_ratio\":"
       << meanCiJson(run.estimate.readMissRatio)
       << ",\"stream_refs\":" << run.plan.streamRefs
       << ",\"simulated_refs\":" << run.simulatedRefs
       << ",\"replay_fraction\":"
       << jsonNum(run.replayFraction()) << '}';
    return ss.str();
}

/** One element of the manifest's "traces" array. */
std::string
traceStatsJson(const SimResult &r)
{
    stats::Registry registry;
    r.regStats(registry);
    std::ostringstream ss;
    ss << "{\"name\":\"" << stats::jsonEscape(r.traceName)
       << "\",\"stats\":";
    registry.dumpJson(ss);
    ss << '}';
    return ss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    SystemConfig config = SystemConfig::paperDefault();
    std::vector<std::string> trace_files;
    double workload_scale = 0.1;
    bool csv = false, verbose = false, dump_stats = false;
    std::string stats_json_path;
    std::uint64_t interval_refs = 0;
    std::string interval_csv_path;
    std::string trace_out_path;
    std::string progress_spec;
    std::string sample_spec;
    std::string checkpoint_dir;
    unsigned cli_cores = 0;
    std::string cli_protocol;
    std::string cli_core_map;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept --opt=VALUE alongside --opt VALUE.
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
                has_inline = true;
            }
        }
        auto need = [&](const char *what) -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                fatal("cachetime_sim: %s needs an argument", what);
            return argv[++i];
        };
        if (arg == "--spec" || arg == "--vary") {
            applyKeyValues(config, slurp(need(arg.c_str())));
        } else if (arg == "--set") {
            applyKeyValues(config, need("--set"));
        } else if (arg == "--trace" || arg == "--trace-file") {
            trace_files.push_back(need(arg.c_str()));
        } else if (arg == "--workloads") {
            workload_scale = parseNumber<double>(
                need("--workloads"), "cachetime_sim: --workloads scale");
        } else if (arg == "--cores") {
            cli_cores = parseNumber<unsigned>(
                need("--cores"), "cachetime_sim: --cores", 1);
        } else if (arg == "--protocol") {
            cli_protocol = need("--protocol");
        } else if (arg == "--core-map") {
            cli_core_map = need("--core-map");
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--stats-json") {
            stats_json_path = need("--stats-json");
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--interval-stats") {
            // A window of at least one reference.
            interval_refs = parseNumber<std::uint64_t>(
                need("--interval-stats"),
                "cachetime_sim: --interval-stats", 1);
        } else if (arg == "--interval-csv") {
            interval_csv_path = need("--interval-csv");
        } else if (arg == "--trace-out") {
            trace_out_path = need("--trace-out");
        } else if (arg == "--progress") {
            progress_spec = need("--progress");
        } else if (arg == "--sample") {
            sample_spec = need("--sample");
        } else if (arg == "--checkpoint-dir") {
            checkpoint_dir = need("--checkpoint-dir");
        } else if (arg == "--trace-flags") {
            std::string spec = need("--trace-flags");
            std::string error;
            unsigned flags = trace_debug::parseFlags(spec, &error);
            if (!error.empty())
                fatal("cachetime_sim: %s", error.c_str());
            trace_debug::setFlags(flags);
        } else if (arg == "--quiet") {
            setQuiet(true);
            verbose = false;
        } else if (arg == "--verbose") {
            verbose = true;
            setQuiet(false);
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "see the file comment in tools/"
                         "cachetime_sim.cc for usage\n";
            return 0;
        } else {
            fatal("cachetime_sim: unknown option '%s'", arg.c_str());
        }
    }

    if (cli_cores > 0 || !cli_protocol.empty() ||
        !cli_core_map.empty()) {
        if (cli_cores > 0)
            config.cores = cli_cores;
        config.protocol = cli_protocol.empty()
                              ? CoherenceProtocol::MESI
                              : parseCoherenceProtocol(cli_protocol);
        if (!cli_core_map.empty())
            config.coreMap = parseCoreMapPolicy(cli_core_map);
        config.applyCoherenceDefaults();
    }
    config.validate();
    if (config.coherent() && !sample_spec.empty())
        fatal("cachetime_sim: --sample is not supported in coherent "
              "multi-core mode");
    if (!interval_csv_path.empty() && interval_refs == 0)
        fatal("cachetime_sim: --interval-csv needs "
              "--interval-stats N");
    SmartsOptions sample_options;
    bool sampled = !sample_spec.empty();
    if (sampled) {
        sample_options.cfg = parseSampleSpec(sample_spec);
        sample_options.cfg.validate();
        sample_options.checkpointDir = checkpoint_dir;
        // Sampled runs skip most of the stream; the aggregate stats
        // and interval series a full run produces do not exist.
        if (interval_refs || dump_stats)
            fatal("cachetime_sim: --sample cannot combine with "
                  "--stats or --interval-stats");
    } else if (!checkpoint_dir.empty()) {
        fatal("cachetime_sim: --checkpoint-dir needs --sample");
    }
    if (!trace_out_path.empty() &&
        !trace_event::beginSession(trace_out_path))
        fatal("cachetime_sim: cannot start a trace session");
    ProgressMeter meter;
    if (!progress_spec.empty()) {
        if (!meter.openSpec(progress_spec))
            fatal("cachetime_sim: cannot open progress sink '%s'",
                  progress_spec.c_str());
        meter.setTool("cachetime_sim");
    }
    std::cout << "machine: " << config.describe() << "\n\n";
    if (csv) {
        if (sampled)
            std::cout << "trace,mode,units,cpi,cpi_half,"
                         "read_miss_ratio,miss_half,"
                         "replay_fraction\n";
        else
            std::cout << "trace,refs,cycles,cycles_per_ref,"
                         "exec_ns_per_ref,read_miss_ratio\n";
    }

    // One list in argument order.  Trace files replay straight off
    // disk, never materialized, so RSS is bounded by the chunk size.
    std::vector<std::unique_ptr<RefSource>> sources;
    {
        telemetry::Span stage("traces");
        for (const std::string &path : trace_files)
            sources.push_back(openRefSource(path));
        if (sources.empty()) {
            for (Trace &trace : generateTable1(workload_scale))
                sources.push_back(
                    TraceRefSource::owning(std::move(trace)));
        }
    }

    telemetry::RunManifest manifest;
    manifest.tool = "cachetime_sim";
    manifest.configHash = telemetry::configHash(config);
    manifest.configSummary = config.describe();

    std::vector<std::shared_ptr<const SimResult>> results;
    std::string trace_stats_json = "[";
    std::string sampling_json = "[";
    {
        telemetry::Span stage("simulate");
        auto consume = [&](const SimResult &r) {
            printResult(r, csv, verbose);
            if (dump_stats) {
                stats::Registry registry;
                r.regStats(registry);
                registry.dumpText(std::cout);
                std::cout << '\n';
            }
            if (!stats_json_path.empty()) {
                if (manifest.traces.size())
                    trace_stats_json += ',';
                trace_stats_json += traceStatsJson(r);
            }
            manifest.traces.push_back(r.traceName);
        };
        IntervalCollector collector(
            interval_refs ? interval_refs : 1);
        auto runSampled = [&](RefSource &source) {
            meter.setLabel(source.name());
            meter.setTotal(source.size(), "refs");
            SmartsRunResult run =
                runSmarts(config, source, sample_options);
            meter.finish();
            printSampled(source.name(), run, csv);
            if (!stats_json_path.empty()) {
                if (manifest.traces.size())
                    sampling_json += ',';
                sampling_json += sampledJson(source.name(), run);
            }
            manifest.traces.push_back(source.name());
        };
        auto runOne = [&](RefSource &source) {
            if (sampled) {
                runSampled(source);
                return;
            }
            std::unique_ptr<Simulator> system = makeSimulator(config);
            if (interval_refs)
                system->setIntervalCollector(&collector);
            auto r = std::make_shared<const SimResult>(
                runWithProgress(*system, source, meter));
            consume(*r);
            results.push_back(std::move(r));
        };
        for (auto &source : sources)
            runOne(*source);

        if (interval_refs) {
            if (!interval_csv_path.empty()) {
                std::ofstream out(interval_csv_path);
                if (!out)
                    fatal("cachetime_sim: cannot write '%s'",
                          interval_csv_path.c_str());
                collector.dumpCsv(out);
                inform("wrote interval series to %s",
                       interval_csv_path.c_str());
            }
            if (!stats_json_path.empty())
                manifest.extra.emplace_back("interval_stats",
                                            collector.json());
            if (verbose)
                collector.dumpCsv(std::cout);
        }
    }
    trace_stats_json += ']';
    sampling_json += ']';

    if (results.size() > 1 && !csv) {
        telemetry::Span stage("report");
        AggregateMetrics m = aggregateResults(config, results);
        std::cout << "geometric mean over " << results.size()
                  << " traces: "
                  << TablePrinter::fmt(m.cyclesPerRef, 3)
                  << " cycles/ref, "
                  << TablePrinter::fmt(m.execNsPerRef, 2)
                  << " ns/ref, read miss "
                  << TablePrinter::fmt(m.readMissRatio, 4) << '\n';
    }

    if (!stats_json_path.empty()) {
        manifest.traceFlags = trace_debug::flags();
        manifest.extra.emplace_back("trace_stats", trace_stats_json);
        if (sampled)
            manifest.extra.emplace_back("sampling", sampling_json);
        if (!telemetry::writeManifestFile(stats_json_path, manifest))
            fatal("cachetime_sim: cannot write '%s'",
                  stats_json_path.c_str());
        inform("wrote run manifest to %s", stats_json_path.c_str());
    }

    if (!trace_out_path.empty()) {
        if (!trace_event::endSession())
            fatal("cachetime_sim: cannot write '%s'",
                  trace_out_path.c_str());
        inform("wrote trace events to %s", trace_out_path.c_str());
    }
    return 0;
}
