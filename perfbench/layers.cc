/**
 * @file
 * Span log, result digests and the per-layer micro-kernels.
 *
 * Each micro-kernel times one module's public entry point over one
 * workload trace, so a change to that layer moves its own metric on
 * every workload - including the workloads whose query never enters
 * the layer, where the end-to-end prediction is "no change".
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>

#include "cache/cache.hh"
#include "memory/main_memory.hh"
#include "memory/write_buffer.hh"
#include "perfbench.hh"
#include "sim/coherent.hh"
#include "sim/system.hh"
#include "stats/stats.hh"
#include "trace/ref_source.hh"
#include "trace/trace_v2.hh"
#include "verify/diff.hh"

namespace perfbench
{

using namespace cachetime;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

SpanLog::SpanLog(std::string parent)
    : origin_(Clock::now()), parent_(std::move(parent))
{
}

void
SpanLog::close(const std::string &name, Clock::time_point start)
{
    Clock::time_point end = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        {name, std::chrono::duration<double>(start - origin_).count(),
         std::chrono::duration<double>(end - start).count(), parent_});
}

double
SpanLog::total(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const SpanRecord &span : spans_)
        if (span.name == name)
            sum += span.durS;
    return sum;
}

std::vector<SpanRecord>
SpanLog::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
SpanLog::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

namespace
{

/** FNV-1a over @p n bytes, continuing from @p h. */
std::uint64_t
fnv(const void *data, std::size_t n,
    std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}

} // namespace

std::uint64_t
digestResult(const SimResult &result)
{
    // The stats registry covers every counter and derived metric;
    // the field diff against an empty result adds every histogram
    // summary diffResults walks.
    stats::Registry registry;
    result.regStats(registry);
    std::ostringstream os;
    registry.dumpCsv(os);
    os << verify::formatDiffs(verify::diffResults(result, SimResult()));
    std::string text = os.str();
    return fnv(text.data(), text.size());
}

std::uint64_t
digestDoubles(const std::vector<double> &values)
{
    return fnv(values.data(), values.size() * sizeof(double));
}

bool
sameResult(const SimResult &a, const SimResult &b, std::string *why)
{
    std::vector<verify::FieldDiff> diffs = verify::diffResults(a, b);
    if (diffs.empty())
        return true;
    *why = verify::formatDiffs(diffs);
    return false;
}

std::vector<std::size_t>
mismatchedPoints(const std::vector<std::uint64_t> &digests,
                 const std::vector<std::uint64_t> &reference)
{
    std::vector<std::size_t> bad;
    for (std::size_t i = 0; i < std::max(digests.size(), reference.size());
         ++i) {
        if (digests.size() != reference.size() ||
            digests[i] != reference[i])
            bad.push_back(i);
    }
    return bad;
}

namespace
{

/** Where the micro-kernels leave their results, so none is elided. */
std::atomic<std::uint64_t> kernelSink{0};

/** Median wall time of three runs of @p fn. */
double
timeKernel(const std::function<void()> &fn)
{
    std::vector<double> s;
    for (int rep = 0; rep < 3; ++rep) {
        Clock::time_point start = Clock::now();
        fn();
        s.push_back(secondsSince(start));
    }
    return median(s);
}

} // namespace

void
measureLayers(const LayerInputs &inputs, const std::string &workdir,
              Metrics &out)
{
    const Trace &trace = *inputs.trace;
    const double refs = static_cast<double>(trace.size());
    const std::string path = workdir + "/layers.cttrace2";
    writeV2(trace, path);

    std::vector<Ref> chunk(refChunkSize);
    double decode = timeKernel([&] {
        V2FileSource source(path);
        while (source.fill(chunk.data(), chunk.size()) != 0) {
        }
    });
    out["trace.v2_decode.mrefs_per_s"] = {refs / decode / 1e6, "Mref/s"};

    bool pipelined = false;
    double feed = timeKernel([&] {
        V2FileSource source(path);
        PipelinedFeeder feeder(source);
        pipelined = feeder.pipelined();
        while (feeder.next()) {
        }
    });
    out["trace.feeder.mrefs_per_s"] = {refs / feed / 1e6, "Mref/s"};
    out["trace.feeder.pipelined"] = {pipelined ? 1.0 : 0.0, "bool"};

    double mat = timeKernel([&] {
        V2FileSource source(path);
        Trace copy = materialize(source);
    });
    out["trace.materialize_s"] = {mat, "s"};
    std::remove(path.c_str());

    const SystemConfig &config = inputs.config;
    std::uint64_t sink = 0;
    double probe = timeKernel([&] {
        Cache icache(config.icache, "L1I");
        Cache dcache(config.dcache, "L1D");
        for (const Ref &ref : trace.refs()) {
            Cache &cache = config.split && ref.kind == RefKind::IFetch
                               ? icache
                               : dcache;
            sink += cache.access(ref).hit;
        }
    });
    out["cache.probe.ns_per_ref"] = {probe * 1e9 / refs, "ns"};

    double stores = 0.0;
    for (const Ref &ref : trace.refs())
        stores += ref.kind == RefKind::Store;
    double wb = timeKernel([&] {
        MainMemory memory(config.memory, config.cycleNs);
        WriteBuffer buffer(config.l1Buffer, &memory, "L1wb");
        Tick now = 0;
        for (const Ref &ref : trace.refs()) {
            ++now;
            if (ref.kind == RefKind::Store)
                now = std::max(now, buffer.writeBlock(now, ref.addr, 1,
                                                      ref.pid));
        }
        sink += static_cast<std::uint64_t>(buffer.drain(now));
    });
    out["memory.write_buffer.ns_per_store"] = {
        stores > 0 ? wb * 1e9 / stores : 0.0, "ns"};

    double run = timeKernel([&] {
        System system(config);
        sink += static_cast<std::uint64_t>(system.run(trace).cycles);
    });
    out["sim.run.ns_per_ref"] = {run * 1e9 / refs, "ns"};

    double coherent = timeKernel([&] {
        CoherentSystem system(inputs.coherentConfig);
        sink += static_cast<std::uint64_t>(system.run(trace).cycles);
    });
    out["sim.coherent_run.ns_per_ref"] = {coherent * 1e9 / refs, "ns"};

    kernelSink.fetch_add(sink, std::memory_order_relaxed);
}

} // namespace perfbench
