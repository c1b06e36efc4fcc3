#include "core/sweep.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <string>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/stack_sim.hh"
#include "stats/progress.hh"
#include "stats/telemetry.hh"
#include "stats/trace_event.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace cachetime
{

namespace
{

using SimResultPtr = std::shared_ptr<const SimResult>;

/** Per-line cost of the SoA cache arrays (keys + flags + cold Line). */
constexpr std::size_t bytesPerLine = 80;

std::atomic<std::uint64_t> machinesBuilt{0};
std::atomic<std::uint64_t> followersBuilt{0};
std::atomic<std::uint64_t> stackPasses{0};
std::atomic<std::uint64_t> stackPoints{0};
std::atomic<std::uint64_t> frontRefsScanned{0};
std::atomic<std::uint64_t> eventsReplayed{0};

std::size_t
cacheFootprintBytes(const CacheConfig &config)
{
    std::size_t lines =
        config.blockWords ? config.sizeWords / config.blockWords : 0;
    return lines * bytesPerLine + config.victimEntries * bytesPerLine +
           4096; // allocator slack and the object itself
}

/** The L1 arrays of @p config: what an added back end does not allocate. */
std::size_t
frontFootprintBytes(const SystemConfig &config)
{
    return (config.split ? cacheFootprintBytes(config.icache) : 0) +
           cacheFootprintBytes(config.dcache);
}

/** @return whether @p a and @p b can share one front end. */
bool
shareFront(const SystemConfig &a, const SystemConfig &b)
{
    return !a.coherent() && !b.coherent() &&
           frontEndKey(a) == frontEndKey(b);
}

/**
 * Stably sort @p indices into @p configs by frontEndKey(), so
 * configs that can share a front end are adjacent.
 */
void
sortByFrontEnd(const std::vector<SystemConfig> &configs,
               std::vector<std::size_t> &indices)
{
    std::vector<SimKey> keys(configs.size());
    for (std::size_t i : indices)
        keys[i] = frontEndKey(configs[i]);
    std::stable_sort(indices.begin(), indices.end(),
                     [&](std::size_t a, std::size_t b) {
                         return keys[a] < keys[b];
                     });
}

/** Key for memoized counter-only results, disjoint from simKey's. */
SimKey
missRatioKey(const SystemConfig &config, std::uint64_t trace_hash)
{
    SimKey key = simKey(config, trace_hash);
    key.lo = mix64(key.lo ^ 0x6d697373726b6579ULL); // "missrkey"
    key.hi = mix64(key.hi ^ 0x737461636b73696dULL); // "stacksim"
    return key;
}

/**
 * The one SimCache probe, shared by every engine.  Each config is
 * looked up under its full key first - a full timing result answers
 * any query - and, for a @p counters_only engine, under missRatioKey
 * next.  The misses go to @p engine in one call, and its results are
 * memoized under the key of their kind, so a counter-only result
 * never answers a timing lookup.  Results are index-aligned with
 * @p configs.
 */
template <typename Engine>
std::vector<SimResultPtr>
cachedRun(const std::vector<SystemConfig> &configs, RefSource &source,
          bool counters_only, Engine &&engine)
{
    SimCache &cache = SimCache::global();
    const bool memo = cache.enabled();
    const std::uint64_t hash = memo ? source.contentHash() : 0;

    std::vector<SimResultPtr> out(configs.size());
    std::vector<std::size_t> missing;
    std::vector<SystemConfig> todo;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (memo) {
            SimResultPtr hit = cache.find(simKey(configs[i], hash));
            if (!hit && counters_only)
                hit = cache.find(missRatioKey(configs[i], hash));
            if (hit) {
                out[i] = std::move(hit);
                continue;
            }
        }
        missing.push_back(i);
        todo.push_back(configs[i]);
    }
    if (todo.empty())
        return out;

    std::vector<SimResult> results = engine(todo);
    for (std::size_t k = 0; k < results.size(); ++k) {
        auto result =
            std::make_shared<const SimResult>(std::move(results[k]));
        if (memo)
            cache.insert(counters_only ? missRatioKey(todo[k], hash)
                                       : simKey(todo[k], hash),
                         result);
        out[missing[k]] = std::move(result);
    }
    return out;
}

/**
 * simulateBatch over sub-batches of at most BatchOptions::maxBatch
 * configs whose summed footprint fits BatchOptions::memoryBudgetBytes
 * (one config always fits).  The configs are taken in frontEndKey()
 * order, an added back end's footprint leaves out the L1 arrays it
 * shares, and a cut falls between front ends rather than inside one
 * whenever the sub-batch holds another, so the back ends of a front
 * end ride together.
 */
std::vector<SimResult>
simulateBounded(const std::vector<SystemConfig> &configs,
                RefSource &source)
{
    std::vector<std::size_t> order(configs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    sortByFrontEnd(configs, order);
    auto follows = [&](std::size_t k) {
        return shareFront(configs[order[k - 1]], configs[order[k]]);
    };
    std::vector<SimResult> out(configs.size());
    std::size_t at = 0;
    while (at < order.size()) {
        std::size_t end = at;
        std::size_t bytes = 0;
        while (end < order.size() && end - at < BatchOptions::maxBatch) {
            const SystemConfig &config = configs[order[end]];
            std::size_t foot = configFootprintBytes(config);
            if (end > at && follows(end))
                foot -= frontFootprintBytes(config);
            if (end > at &&
                bytes + foot > BatchOptions::memoryBudgetBytes)
                break;
            bytes += foot;
            ++end;
        }
        if (end < order.size() && follows(end)) {
            std::size_t front = end - 1;
            while (front > at && follows(front))
                --front;
            if (front > at)
                end = front;
        }

        trace_event::Span span(
            trace_event::Cat::Sweep,
            "sub-batch [" + std::to_string(at) + "," +
                std::to_string(end) + ") of " +
                std::to_string(configs.size()) + " missing");
        std::vector<SystemConfig> batch;
        for (std::size_t k = at; k < end; ++k)
            batch.push_back(configs[order[k]]);
        std::vector<SimResult> results = simulateBatch(batch, source);
        for (std::size_t k = at; k < end; ++k)
            out[order[k]] = std::move(results[k - at]);
        at = end;
    }
    return out;
}

/** One unit of a grid query's task plan, run once per trace. */
struct GridGroup
{
    bool stack = false; ///< stack kernel, else the fused lattice
    std::vector<std::size_t> members; ///< indices into the configs
};

/**
 * The task plan.  In a miss-ratio query every stack-eligible point
 * joins the one stack pass of its issue shape (split and pair issue,
 * the knobs that define measurement windows).  Every other point
 * rides the fused lattice in groups of `width`: up to maxBatch
 * configs per trace pass, but never so wide that batching starves
 * the pool - at least two tasks per worker, degrading to one config
 * per task for small sweeps.  The fused points are cut into groups
 * in frontEndKey() order, so points sharing an L1 organization share
 * a group - and a front end - whatever order the caller listed them
 * in.
 */
std::vector<GridGroup>
planGrid(const std::vector<SystemConfig> &configs, std::size_t traces,
         bool miss_ratios_only)
{
    std::array<std::vector<std::size_t>, 3> shapes;
    std::vector<std::size_t> fused;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const SystemConfig &config = configs[c];
        if (miss_ratios_only && stackEligible(config))
            shapes[!config.split ? 0 : config.cpu.pairIssue ? 2 : 1]
                .push_back(c);
        else
            fused.push_back(c);
    }
    sortByFrontEnd(configs, fused);

    std::vector<GridGroup> groups;
    for (std::vector<std::size_t> &shape : shapes) {
        if (!shape.empty())
            groups.push_back({true, std::move(shape)});
    }
    const std::size_t F = fused.size();
    const std::size_t threads = std::max(parallelThreads(), 1u);
    const std::size_t width = std::min(
        {BatchOptions::maxBatch,
         std::max<std::size_t>(1, F * traces / (2 * threads)), F});
    for (std::size_t at = 0; at < F; at += width) {
        groups.push_back(
            {false, std::vector<std::size_t>(
                        fused.begin() + static_cast<std::ptrdiff_t>(at),
                        fused.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(F, at + width)))});
    }
    return groups;
}

/**
 * The grid driver behind runGeoMeanGrid and runMissRatioMany: one
 * task per (group, trace) on the pool, each answered through
 * cachedRun by its group's engine, then every config aggregated over
 * the traces in trace order.  Results land in (config, trace) slots,
 * so the output is independent of the thread count and the batch
 * width.  In a miss-ratio query the stack points' results carry
 * counters only, so only the MissRatioMetrics part of their
 * aggregates is meaningful, and runMissRatioMany hands out no run.
 */
GridRuns
runGrid(const std::vector<SystemConfig> &configs,
        const std::vector<Trace> &traces, bool miss_ratios_only)
{
    if (configs.empty())
        return {};
    if (traces.empty())
        fatal("%s: no traces supplied",
              miss_ratios_only ? "runMissRatioMany" : "runGeoMeanGrid");

    telemetry::PhaseTimer timer("simulate");
    const std::size_t C = configs.size();
    const std::size_t T = traces.size();
    const std::vector<GridGroup> groups =
        planGrid(configs, T, miss_ratios_only);
    if (SimCache::global().enabled()) {
        for (const Trace &trace : traces)
            traceIdentityHash(trace); // memoize before the fan-out
    }

    // A lone task runs on this thread without being marked pool
    // work, so a single stack pass still shards across the pool.
    auto outputs = parallelMap<std::vector<SimResultPtr>>(
        groups.size() * T, [&](std::size_t task) {
            const GridGroup &group = groups[task / T];
            std::vector<SystemConfig> part;
            part.reserve(group.members.size());
            for (std::size_t c : group.members)
                part.push_back(configs[c]);
            TraceRefSource source(traces[task % T]);
            return cachedRun(
                part, source, group.stack,
                [&](const std::vector<SystemConfig> &todo) {
                    return group.stack ? runStackSweep(todo, source)
                                       : simulateBounded(todo, source);
                });
        });

    GridRuns out;
    out.runs.resize(C * T);
    for (std::size_t task = 0; task < outputs.size(); ++task) {
        const GridGroup &group = groups[task / T];
        for (std::size_t k = 0; k < group.members.size(); ++k)
            out.runs[group.members[k] * T + task % T] =
                std::move(outputs[task][k]);
    }
    out.metrics.reserve(C);
    for (std::size_t c = 0; c < C; ++c) {
        std::vector<SimResultPtr> slice(
            out.runs.begin() + static_cast<std::ptrdiff_t>(c * T),
            out.runs.begin() + static_cast<std::ptrdiff_t>((c + 1) * T));
        out.metrics.push_back(aggregateResults(configs[c], slice));
    }
    return out;
}

} // namespace

std::size_t
configFootprintBytes(const SystemConfig &config)
{
    std::size_t bytes = 64 * 1024; // CPU, buffers, TLB, result
    bytes += frontFootprintBytes(config);
    for (const SystemConfig::MidLevelConfig &mid :
         config.resolvedMidLevels())
        bytes += cacheFootprintBytes(mid.cache);
    return bytes;
}

SweepCounters
sweepCounters()
{
    return {machinesBuilt.load(),     followersBuilt.load(),
            stackPasses.load(),       stackPoints.load(),
            frontRefsScanned.load(), eventsReplayed.load()};
}

void
resetSweepCounters()
{
    machinesBuilt.store(0);
    followersBuilt.store(0);
    stackPasses.store(0);
    stackPoints.store(0);
    frontRefsScanned.store(0);
    eventsReplayed.store(0);
}

void
countStackPass(std::size_t points)
{
    stackPasses.fetch_add(1, std::memory_order_relaxed);
    stackPoints.fetch_add(points, std::memory_order_relaxed);
}

std::vector<SimResult>
simulateBatch(const std::vector<SystemConfig> &configs,
              RefSource &source)
{
    std::vector<SimResult> out;
    if (configs.empty())
        return out;

    // One machine per frontEndKey: makeSimulator builds it for the
    // first classic config of a key, and every later config of the
    // key adds a timing back end to it.  A coherent config is a
    // machine of its own.  machineOf[i] is config i's machine, and
    // builder[m] the config that built machine m.
    const std::size_t n = configs.size();
    std::vector<std::unique_ptr<Simulator>> machines;
    std::vector<std::size_t> builder;
    std::vector<std::size_t> machineOf(n);
    std::size_t followers = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t m = 0;
        while (m < machines.size() &&
               !shareFront(configs[builder[m]], configs[i]))
            ++m;
        if (m == machines.size()) {
            machines.push_back(makeSimulator(configs[i]));
            builder.push_back(i);
        } else {
            dynamic_cast<System &>(*machines[m]).addBackEnd(configs[i]);
            ++followers;
        }
        machineOf[i] = m;
    }
    machinesBuilt.fetch_add(n, std::memory_order_relaxed);
    followersBuilt.fetch_add(followers, std::memory_order_relaxed);

    trace_event::Span batchSpan(
        trace_event::Cat::Sweep,
        "batch n=" + std::to_string(n) +
            " fronts=" + std::to_string(machines.size()) +
            " trace=" + source.name());

    // One decode, many replays: every span the feeder produces is
    // fed to each machine before the next span is pulled, so stream
    // I/O and synthetic generation are paid once per span however
    // wide the batch is, and each front end scans it once for all
    // its back ends.  The pipelined feeder moves that decode
    // off-thread when threads are available (file-backed sources
    // only; resident streams are sliced zero-copy), producing the
    // same span sequence byte for byte.  Spans hold at most
    // refChunkSize + 1 references, which bounds each event list.
    // Machines share no state, so each span goes to them through one
    // parallelFor: every machine still sees the spans in order, and
    // a batch inside a pool task stays a plain loop.
    PipelinedFeeder feeder(source);
    for (auto &machine : machines)
        machine->beginRun(source);
    ProgressMeter *meter = progress::global();
    while (ChunkFeeder::Span span = feeder.next()) {
        parallelFor(machines.size(), [&](std::size_t m) {
            machines[m]->feedChunk(span.data, span.size);
        });
        if (meter)
            meter->bump(span.size * n);
    }

    // Each machine's results come back in the order its configs
    // joined it.
    std::vector<std::vector<SimResult>> results(machines.size());
    std::uint64_t scanned = 0;
    std::uint64_t replayed = 0;
    for (std::size_t m = 0; m < machines.size(); ++m) {
        if (auto *system = dynamic_cast<System *>(machines[m].get())) {
            scanned += system->scannedRefs();
            replayed += system->replayedEvents();
            results[m] = system->endRuns();
        } else {
            results[m].push_back(machines[m]->endRun());
        }
    }
    frontRefsScanned.fetch_add(scanned, std::memory_order_relaxed);
    eventsReplayed.fetch_add(replayed, std::memory_order_relaxed);

    std::vector<std::size_t> taken(machines.size(), 0);
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t m = machineOf[i];
        out.push_back(std::move(results[m][taken[m]++]));
    }
    return out;
}

std::vector<SimResultPtr>
simulateSourceCachedMany(const std::vector<SystemConfig> &configs,
                         RefSource &source, const BatchOptions &)
{
    return cachedRun(configs, source, false,
                     [&](const std::vector<SystemConfig> &todo) {
                         return simulateBounded(todo, source);
                     });
}

GridRuns
runGeoMeanGrid(const std::vector<SystemConfig> &configs,
               const std::vector<Trace> &traces)
{
    return runGrid(configs, traces, false);
}

std::vector<AggregateMetrics>
runGeoMeanMany(const std::vector<SystemConfig> &configs,
               const std::vector<Trace> &traces)
{
    return runGeoMeanGrid(configs, traces).metrics;
}

std::vector<MissRatioMetrics>
runMissRatioMany(const std::vector<SystemConfig> &configs,
                 const std::vector<Trace> &traces)
{
    std::vector<AggregateMetrics> metrics =
        runGrid(configs, traces, true).metrics;
    return std::vector<MissRatioMetrics>(metrics.begin(), metrics.end());
}

} // namespace cachetime
