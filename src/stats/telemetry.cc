#include "stats/telemetry.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>

#include "core/sim_cache.hh"
#include "core/sweep.hh"
#include "stats/stats.hh"
#include "stats/trace_event.hh"
#include "trace_debug/trace_debug.hh"
#include "util/parallel.hh"

namespace cachetime
{
namespace telemetry
{

namespace
{

std::mutex phaseMutex;
std::vector<PhaseRecord> phaseTable; ///< guarded by phaseMutex

const std::chrono::steady_clock::time_point processStart =
    std::chrono::steady_clock::now();

std::string
numberToJson(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// At-exit manifest state (enableManifestAtExit).
std::mutex exitMutex;
std::string exitTool;
std::string exitPath;
bool exitRegistered = false;

void
writeExitManifest()
{
    RunManifest manifest;
    {
        std::lock_guard<std::mutex> lock(exitMutex);
        manifest.tool = exitTool;
    }
    manifest.traceFlags = trace_debug::flags();
    writeManifestFile(exitPath, manifest);
}

} // namespace

PhaseTimer::PhaseTimer(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now())
{
}

PhaseTimer::~PhaseTimer()
{
    double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (trace_event::enabled()) {
        // Span export shares the scope's own clock reads: the end
        // stamp is "now", the start stamp is now minus the scope's
        // duration, both on the session timebase.
        std::uint64_t dur_us =
            static_cast<std::uint64_t>(seconds * 1e6);
        std::uint64_t end_us = trace_event::nowMicros();
        trace_event::emitComplete(
            trace_event::Cat::Phase, name_,
            end_us >= dur_us ? end_us - dur_us : 0, dur_us);
    }
    std::lock_guard<std::mutex> lock(phaseMutex);
    for (PhaseRecord &record : phaseTable) {
        if (record.name == name_) {
            record.seconds += seconds;
            ++record.count;
            return;
        }
    }
    phaseTable.push_back({name_, seconds, 1});
}

std::vector<PhaseRecord>
phases()
{
    std::lock_guard<std::mutex> lock(phaseMutex);
    return phaseTable;
}

void
resetPhases()
{
    std::lock_guard<std::mutex> lock(phaseMutex);
    phaseTable.clear();
}

double
processWallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - processStart)
        .count();
}

std::string
configHash(const SystemConfig &config)
{
    SimKey key = simKey(config, 0);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(key.hi),
                  static_cast<unsigned long long>(key.lo));
    return buf;
}

void
writeManifest(std::ostream &os, const RunManifest &manifest)
{
    os << "{\"tool\":\"" << stats::jsonEscape(manifest.tool) << '"';

    if (!manifest.configHash.empty() ||
        !manifest.configSummary.empty()) {
        os << ",\"config\":{\"hash\":\""
           << stats::jsonEscape(manifest.configHash)
           << "\",\"summary\":\""
           << stats::jsonEscape(manifest.configSummary) << "\"}";
    }

    if (!manifest.traces.empty()) {
        os << ",\"traces\":[";
        for (std::size_t i = 0; i < manifest.traces.size(); ++i) {
            if (i)
                os << ',';
            os << '"' << stats::jsonEscape(manifest.traces[i])
               << '"';
        }
        os << ']';
    }

    os << ",\"trace_flags\":\""
       << trace_debug::flagsToString(manifest.traceFlags) << '"';

    os << ",\"wall_seconds\":" << numberToJson(processWallSeconds());

    os << ",\"phases\":{";
    std::vector<PhaseRecord> table = phases();
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (i)
            os << ',';
        os << '"' << stats::jsonEscape(table[i].name)
           << "\":{\"seconds\":" << numberToJson(table[i].seconds)
           << ",\"count\":" << table[i].count << '}';
    }
    os << '}';

    PoolStats pool = poolStats();
    os << ",\"pool\":{\"threads\":" << pool.threads
       << ",\"dispatches\":" << pool.dispatches
       << ",\"serial_runs\":" << pool.serialRuns
       << ",\"tasks\":" << pool.tasks
       << ",\"worker_tasks\":" << pool.workerTasks
       << ",\"worker_share\":" << numberToJson(pool.workerShare())
       << '}';

    SimCache &sim_cache = SimCache::global();
    os << ",\"sim_cache\":{\"enabled\":"
       << (sim_cache.enabled() ? "true" : "false")
       << ",\"hits\":" << sim_cache.hits()
       << ",\"misses\":" << sim_cache.misses()
       << ",\"dropped\":" << sim_cache.dropped()
       << ",\"entries\":" << sim_cache.size() << '}';

    SweepCounters sweep = sweepCounters();
    os << ",\"sweep\":{\"machines\":" << sweep.machines
       << ",\"followers\":" << sweep.followers
       << ",\"stack_passes\":" << sweep.stackPasses
       << ",\"stack_points\":" << sweep.stackPoints
       << ",\"front_refs\":" << sweep.frontRefs
       << ",\"events\":" << sweep.events << '}';

    for (const auto &[key, json] : manifest.extra)
        os << ",\"" << stats::jsonEscape(key) << "\":" << json;

    os << "}\n";
}

bool
writeManifestFile(const std::string &path,
                  const RunManifest &manifest)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeManifest(out, manifest);
    return out.good();
}

void
enableManifestAtExit(const std::string &tool)
{
    const char *path = std::getenv("CACHETIME_MANIFEST");
    if (!path || !*path)
        return;
    std::lock_guard<std::mutex> lock(exitMutex);
    exitTool = tool;
    exitPath = path;
    if (!exitRegistered) {
        exitRegistered = true;
        // Build every function-local singleton the manifest samples
        // first: one constructed after std::atexit is destroyed
        // before the hook runs.
        SimCache::global();
        poolStats();
        std::atexit(writeExitManifest);
    }
}

} // namespace telemetry
} // namespace cachetime
