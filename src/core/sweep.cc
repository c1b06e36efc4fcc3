#include "core/sweep.hh"

#include <string>

#include "core/sim_cache.hh"
#include "stats/progress.hh"
#include "stats/trace_event.hh"

namespace cachetime
{

namespace
{

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

} // namespace

std::size_t
configFootprintBytes(const SystemConfig &config)
{
    std::size_t bytes = 64 * 1024; // CPU, buffers, TLB, result
    if (config.split)
        bytes += cacheFootprintBytes(config.icache);
    bytes += cacheFootprintBytes(config.dcache);
    for (const SystemConfig::MidLevelConfig &mid :
         config.resolvedMidLevels())
        bytes += cacheFootprintBytes(mid.cache);
    return bytes;
}

std::vector<SimResult>
simulateBatch(const std::vector<SystemConfig> &configs,
              RefSource &source)
{
    std::vector<SimResult> out;
    if (configs.empty())
        return out;

    trace_event::Span batchSpan(
        trace_event::Cat::Sweep,
        "batch n=" + std::to_string(configs.size()) +
            " trace=" + source.name());

    std::vector<std::unique_ptr<Simulator>> machines;
    machines.reserve(configs.size());
    for (const SystemConfig &config : configs)
        machines.push_back(makeSimulator(config));

    // One decode, many replays: every span the feeder produces is
    // fed to each machine before the next span is pulled, so stream
    // I/O and synthetic generation are paid once per span however
    // wide the batch is.  The pipelined feeder moves that decode
    // off-thread when threads are available (file-backed sources
    // only; resident streams are consumed zero-copy), producing the
    // same span sequence byte for byte.
    PipelinedFeeder feeder(source);
    for (auto &machine : machines)
        machine->beginRun(source);
    ProgressMeter *meter = progress::global();
    while (ChunkFeeder::Span span = feeder.next()) {
        for (auto &machine : machines)
            machine->feedChunk(span.data, span.size);
        if (meter)
            meter->bump(span.size * configs.size());
    }

    out.reserve(configs.size());
    for (auto &machine : machines)
        out.push_back(machine->endRun());
    return out;
}

std::vector<std::shared_ptr<const SimResult>>
simulateSourceCachedMany(const std::vector<SystemConfig> &configs,
                         RefSource &source,
                         const BatchOptions &options)
{
    using SimResultPtr = std::shared_ptr<const SimResult>;
    std::vector<SimResultPtr> out(configs.size());

    SimCache &cache = SimCache::global();
    std::uint64_t hash = 0;
    std::vector<std::size_t> missing;
    missing.reserve(configs.size());
    if (cache.enabled()) {
        hash = source.contentHash();
        for (std::size_t i = 0; i < configs.size(); ++i) {
            if (SimResultPtr hit = cache.find(simKey(configs[i], hash)))
                out[i] = hit;
            else
                missing.push_back(i);
        }
    } else {
        for (std::size_t i = 0; i < configs.size(); ++i)
            missing.push_back(i);
    }

    const std::size_t max_batch = options.maxBatch ? options.maxBatch : 1;
    std::size_t at = 0;
    while (at < missing.size()) {
        std::vector<SystemConfig> batch;
        std::size_t bytes = 0;
        std::size_t end = at;
        while (end < missing.size() && batch.size() < max_batch) {
            std::size_t foot = configFootprintBytes(configs[missing[end]]);
            if (!batch.empty() && bytes + foot > options.memoryBudgetBytes)
                break;
            bytes += foot;
            batch.push_back(configs[missing[end]]);
            ++end;
        }

        std::vector<SimResult> results;
        {
            trace_event::Span span(
                trace_event::Cat::Sweep,
                "sub-batch [" + std::to_string(at) + "," +
                    std::to_string(end) + ") of " +
                    std::to_string(missing.size()) + " missing");
            results = simulateBatch(batch, source);
        }
        for (std::size_t k = 0; k < results.size(); ++k) {
            std::size_t i = missing[at + k];
            auto result = std::make_shared<const SimResult>(
                std::move(results[k]));
            if (cache.enabled())
                cache.insert(simKey(configs[i], hash), result);
            out[i] = std::move(result);
        }
        at = end;
    }
    return out;
}

} // namespace cachetime
