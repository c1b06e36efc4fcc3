#include "stats/telemetry.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>

#include "core/sim_cache.hh"
#include "stats/stats.hh"
#include "stats/trace_event.hh"
#include "trace_debug/trace_debug.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace cachetime
{
namespace telemetry
{

namespace
{

// Namespace-scope, so built before any std::atexit call and alive
// when the at-exit manifest reads it.
std::mutex stageMutex;
std::vector<StageRecord> stageTable; ///< guarded by stageMutex

const std::chrono::steady_clock::time_point processStart =
    std::chrono::steady_clock::now();

std::string
numberToJson(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::uint64_t
micros(double seconds)
{
    return static_cast<std::uint64_t>(seconds * 1e6);
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

Span::Span(const char *stage)
    : stage_(stage), start_(processWallSeconds()),
      traced_(trace_event::enabled())
{
}

void
Span::count(const char *key, std::uint64_t value)
{
    if (used_ == counts_.size())
        panic("telemetry: span '%s' holds at most %zu counts", stage_,
              counts_.size());
    counts_[used_++] = {key, value};
}

void
Span::label(const std::string &text)
{
    if (traced_)
        label_ = text;
}

Span::~Span()
{
    const double end = processWallSeconds();
    if (traced_ && trace_event::enabled()) {
        std::string args;
        auto arg = [&](const char *key, const std::string &json) {
            args += args.empty() ? "{\"" : ",\"";
            args += key;
            args += "\":";
            args += json;
        };
        if (!label_.empty())
            arg("label", '"' + stats::jsonEscape(label_) + '"');
        for (std::size_t i = 0; i < used_; ++i)
            arg(counts_[i].first, std::to_string(counts_[i].second));
        if (!args.empty())
            args += '}';
        // Both stamps come from the span's own clock reads, so a
        // span nested in another ends no later than it.
        trace_event::emitComplete(trace_event::Cat::Stage, stage_,
                                  micros(start_),
                                  micros(end) - micros(start_), args);
    }
    std::lock_guard<std::mutex> lock(stageMutex);
    auto record = std::find_if(
        stageTable.begin(), stageTable.end(),
        [&](const StageRecord &r) { return r.name == stage_; });
    if (record == stageTable.end())
        record = stageTable.insert(record, StageRecord{stage_, 0.0, 0, {}});
    record->seconds += end - start_;
    ++record->count;
    for (std::size_t i = 0; i < used_; ++i) {
        const auto &[key, value] = counts_[i];
        auto slot = std::find_if(
            record->counts.begin(), record->counts.end(),
            [&](const auto &c) { return c.first == key; });
        if (slot == record->counts.end())
            record->counts.emplace_back(key, value);
        else
            slot->second += value;
    }
}

std::vector<StageRecord>
stages()
{
    std::lock_guard<std::mutex> lock(stageMutex);
    return stageTable;
}

void
resetStages()
{
    std::lock_guard<std::mutex> lock(stageMutex);
    stageTable.clear();
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
    std::vector<StageRecord> table = stages();
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (i)
            os << ',';
        os << '"' << stats::jsonEscape(table[i].name)
           << "\":{\"seconds\":" << numberToJson(table[i].seconds)
           << ",\"count\":" << table[i].count;
        for (const auto &[key, value] : table[i].counts)
            os << ",\"" << stats::jsonEscape(key) << "\":" << value;
        os << '}';
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
