#include "core/sweep.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <span>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/stack_sim.hh"
#include "stats/telemetry.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace cachetime
{

namespace
{

using SimResultPtr = std::shared_ptr<const SimResult>;

/** Per-line cost of the SoA cache arrays (keys + flags + cold Line). */
constexpr std::size_t bytesPerLine = 80;

std::size_t
cacheFootprintBytes(const CacheConfig &config)
{
    std::size_t lines =
        config.blockWords ? config.sizeWords / config.blockWords : 0;
    return lines * bytesPerLine + config.victimEntries * bytesPerLine +
           4096; // allocator slack and the object itself
}

/**
 * The L1 arrays of @p config, one pair per core: what a second back
 * end of its front end does not allocate.
 */
std::size_t
frontFootprintBytes(const SystemConfig &config)
{
    return config.cores *
           ((config.split ? cacheFootprintBytes(config.icache) : 0) +
            cacheFootprintBytes(config.dcache));
}

/** One machine's configs: a front end's, or one coherent config. */
using Machine = std::vector<std::size_t>;

/** The machines one stream pass feeds. */
using Run = std::vector<Machine>;

/**
 * The one cut rule, shared by the grid plan and every batch.  The
 * @p indices into @p configs are grouped by front end - equal
 * frontEndKey(), computed once per config, with a coherent config a
 * machine of its own - in stable key order, and whole front ends are
 * packed into runs of at most @p cap configs whose summed footprint
 * fits @p budget.  A front end wider than the cap is a run of its
 * own.  Only the budget cuts inside a front end: the configs past
 * the cut start a run, and a machine, of their own.  A run always
 * admits one config.
 */
std::vector<Run>
packFrontEnds(const std::vector<SystemConfig> &configs,
              std::vector<std::size_t> indices, std::size_t cap,
              std::size_t budget)
{
    // Within a key the classic configs sort first, so they are
    // adjacent.
    std::vector<std::pair<SimKey, bool>> rank(configs.size());
    for (std::size_t i : indices)
        rank[i] = {frontEndKey(configs[i]), configs[i].coherent()};
    std::stable_sort(
        indices.begin(), indices.end(),
        [&](std::size_t a, std::size_t b) { return rank[a] < rank[b]; });

    std::vector<Run> runs;
    std::size_t count = 0; // configs in runs.back()
    std::size_t bytes = 0; // and their footprint
    auto open = [&] {
        runs.emplace_back();
        count = bytes = 0;
    };
    for (std::size_t at = 0, end; at < indices.size(); at = end) {
        const SystemConfig &lead = configs[indices[at]];
        end = at + 1;
        while (end < indices.size() && !lead.coherent() &&
               rank[indices[end]] == rank[indices[at]])
            ++end;
        // A machine holds its L1s once, beside each config's rest.
        const std::size_t front = frontFootprintBytes(lead);
        std::size_t whole = front;
        for (std::size_t k = at; k < end; ++k)
            whole += configFootprintBytes(configs[indices[k]]) - front;
        if (runs.empty() || count + (end - at) > cap ||
            bytes + whole > budget)
            open();

        Machine machine;
        for (std::size_t k = at; k < end; ++k) {
            const std::size_t rest =
                configFootprintBytes(configs[indices[k]]) - front;
            if (!machine.empty() && bytes + rest > budget) {
                runs.back().push_back(std::move(machine));
                machine = {};
                open();
            }
            bytes += rest + (machine.empty() ? front : 0);
            machine.push_back(indices[k]);
            ++count;
        }
        runs.back().push_back(std::move(machine));
    }
    return runs;
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
 * per task for small sweeps.  The width counts the configs of whole
 * front ends (packFrontEnds), so points sharing an L1 organization
 * share a group - and a front end - whatever order the caller listed
 * them in, and a front end wider than `width` is a group of its own.
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
    for (const Run &run :
         packFrontEnds(configs, std::move(fused), width,
                       std::numeric_limits<std::size_t>::max())) {
        GridGroup &group = groups.emplace_back();
        for (const Machine &machine : run)
            group.members.insert(group.members.end(), machine.begin(),
                                 machine.end());
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

    telemetry::Span stage("simulate");
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
                                       : simulateBatch(todo, source);
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

std::vector<SimResult>
simulateBatch(const std::vector<SystemConfig> &configs,
              RefSource &source)
{
    std::vector<SimResult> out(configs.size());
    std::vector<std::size_t> all(configs.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    for (const Run &run :
         packFrontEnds(configs, std::move(all), BatchOptions::maxBatch,
                       BatchOptions::memoryBudgetBytes)) {
        telemetry::Span stage("batch");
        stage.label(source.name());

        // One System per front end, built with all its back ends
        // from the run's configs copied in machine order, and one
        // machine per coherent config; systems[m] is machine m's
        // System, or null for a coherent machine.
        std::vector<SystemConfig> batch;
        for (const Machine &machine : run)
            for (std::size_t i : machine)
                batch.push_back(configs[i]);
        std::vector<std::unique_ptr<Simulator>> machines;
        std::vector<System *> systems;
        std::span<const SystemConfig> rest(batch);
        for (const Machine &machine : run) {
            const auto group = rest.first(machine.size());
            rest = rest.subspan(machine.size());
            if (group.front().coherent()) {
                machines.push_back(makeSimulator(group.front()));
                systems.push_back(nullptr);
            } else {
                auto system = std::make_unique<System>(group);
                systems.push_back(system.get());
                machines.push_back(std::move(system));
            }
        }
        stage.count("machines", batch.size());
        stage.count("followers", batch.size() - run.size());

        // One decode, many replays: every span the feeder produces
        // is fed to each machine before the next span is pulled, so
        // stream I/O and synthetic generation are paid once per span
        // however wide the pass is, and each front end scans it once
        // for all its back ends.  The pipelined feeder moves that
        // decode off-thread when threads are available (file-backed
        // sources only; resident streams are sliced zero-copy),
        // producing the same span sequence byte for byte.  Spans
        // hold at most refChunkSize + 1 references, which bounds
        // each event list.  Machines share no state, so each span
        // goes to them through one parallelFor: every machine still
        // sees the spans in order, and a pass inside a pool task
        // stays a plain loop.
        PipelinedFeeder feeder(source);
        for (auto &machine : machines)
            machine->beginRun(source);
        while (ChunkFeeder::Span span = feeder.next()) {
            parallelFor(machines.size(), [&](std::size_t m) {
                machines[m]->feedChunk(span.data, span.size);
            });
        }

        // A System's results come back in its configs' order.
        std::uint64_t scanned = 0;
        std::uint64_t replayed = 0;
        for (std::size_t m = 0; m < run.size(); ++m) {
            if (System *system = systems[m]) {
                scanned += system->scannedRefs();
                replayed += system->replayedEvents();
                std::vector<SimResult> results = system->endRuns();
                for (std::size_t k = 0; k < results.size(); ++k)
                    out[run[m][k]] = std::move(results[k]);
            } else {
                out[run[m].front()] = machines[m]->endRun();
            }
        }
        stage.count("front_refs", scanned);
        stage.count("events", replayed);
    }
    return out;
}

std::vector<SimResultPtr>
simulateSourceCachedMany(const std::vector<SystemConfig> &configs,
                         RefSource &source, const BatchOptions &)
{
    return cachedRun(configs, source, false,
                     [&](const std::vector<SystemConfig> &todo) {
                         return simulateBatch(todo, source);
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
