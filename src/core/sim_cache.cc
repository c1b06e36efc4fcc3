#include "core/sim_cache.hh"

#include <bit>
#include <cstdlib>
#include <string>

#include "stats/trace_event.hh"
#include "trace/ref_source.hh" // mix64, traceIdentityHash

namespace cachetime
{

namespace
{

/**
 * Accumulates typed fields into two independently-seeded lanes.
 * Every append mixes fully, so field order matters and adjacent
 * fields cannot cancel; 128 bits makes accidental collisions across
 * a sweep's few thousand keys negligible.
 */
class KeyBuilder
{
  public:
    void
    u64(std::uint64_t v)
    {
        lo_ = mix64(lo_ ^ v);
        hi_ = mix64(hi_ + (v ^ 0x5851f42d4c957f2dULL));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void b(bool v) { u64(v ? 1 : 2); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            u64(static_cast<unsigned char>(c));
    }

    SimKey key() const { return {lo_, hi_}; }

  private:
    std::uint64_t lo_ = 0x6361636865746d65ULL; // "cachetme"
    std::uint64_t hi_ = 0x70727a793838ULL;     // "przy88"
};

// Every field of each sub-config enters the key.  When a config
// struct grows a field, it must be appended here too, or configs
// differing only in the new field would collide.

void
appendCache(KeyBuilder &kb, const CacheConfig &cache)
{
    kb.u64(cache.sizeWords);
    kb.u64(cache.blockWords);
    kb.u64(cache.assoc);
    kb.u64(cache.fetchWords);
    kb.u64(static_cast<std::uint64_t>(cache.writePolicy));
    kb.u64(static_cast<std::uint64_t>(cache.allocPolicy));
    kb.u64(static_cast<std::uint64_t>(cache.replPolicy));
    kb.u64(static_cast<std::uint64_t>(cache.prefetchPolicy));
    kb.u64(cache.victimEntries);
    kb.b(cache.virtualTags);
    kb.u64(cache.replSeed);
}

void
appendBuffer(KeyBuilder &kb, const WriteBufferConfig &buffer)
{
    kb.b(buffer.enabled);
    kb.u64(buffer.depth);
    kb.b(buffer.readPriority);
    kb.b(buffer.checkReadMatch);
    kb.u64(buffer.matchGranularityWords);
    kb.b(buffer.coalesce);
    kb.b(buffer.drainOnIdle);
    kb.u64(buffer.highWater);
}

void
appendLevelTiming(KeyBuilder &kb, const CacheLevelTiming &timing)
{
    kb.u64(timing.hitCycles);
    kb.u64(timing.upstreamRate.words);
    kb.u64(timing.upstreamRate.cycles);
    kb.u64(timing.victimRate.words);
    kb.u64(timing.victimRate.cycles);
}

} // namespace

SimKey
simKey(const SystemConfig &config, std::uint64_t trace_hash)
{
    KeyBuilder kb;
    kb.f64(config.cycleNs);

    kb.u64(config.cpu.readHitCycles);
    kb.u64(config.cpu.writeHitCycles);
    kb.b(config.cpu.pairIssue);
    kb.b(config.cpu.earlyContinuation);
    kb.u64(config.cpu.victimSwapCycles);

    kb.u64(static_cast<std::uint64_t>(config.addressing));
    if (config.addressing == AddressMode::Physical) {
        kb.u64(config.tlb.entries);
        kb.u64(config.tlb.assoc);
        kb.u64(config.tlb.pageWords);
        kb.u64(config.tlb.missPenaltyCycles);
        kb.u64(config.tlb.physFrames);
    }

    kb.b(config.split);
    if (config.split)
        appendCache(kb, config.icache);
    appendCache(kb, config.dcache);
    appendBuffer(kb, config.l1Buffer);

    auto mids = config.resolvedMidLevels();
    kb.u64(mids.size());
    for (const SystemConfig::MidLevelConfig &mid : mids) {
        appendCache(kb, mid.cache);
        appendLevelTiming(kb, mid.timing);
        appendBuffer(kb, mid.buffer);
    }

    kb.f64(config.memory.readLatencyNs);
    kb.f64(config.memory.writeNs);
    kb.f64(config.memory.recoveryNs);
    kb.u64(config.memory.addressCycles);
    kb.u64(config.memory.rate.words);
    kb.u64(config.memory.rate.cycles);
    kb.u64(config.memory.banks);
    kb.b(config.memory.loadForwarding);
    kb.b(config.memory.streaming);

    kb.u64(config.cores);
    kb.u64(static_cast<std::uint64_t>(config.protocol));
    kb.u64(static_cast<std::uint64_t>(config.coreMap));

    kb.u64(trace_hash);
    return kb.key();
}

SimKey
simKey(const SystemConfig &config, const Trace &trace)
{
    return simKey(config, traceIdentityHash(trace));
}

SimKey
warmStateKey(const SystemConfig &config)
{
    KeyBuilder kb;
    kb.u64(0x7761726d6b657931ULL); // "warmkey1": domain-separate
                                   // from simKey
    bool physical = config.addressing == AddressMode::Physical;
    kb.u64(static_cast<std::uint64_t>(config.addressing));
    if (physical) {
        kb.u64(config.tlb.entries);
        kb.u64(config.tlb.assoc);
        kb.u64(config.tlb.pageWords);
        kb.u64(config.tlb.physFrames);
        // missPenaltyCycles is timing-only: it never changes which
        // entry is installed or evicted, so it stays out.
    }
    kb.b(config.split);
    // System's constructor forces physical caches to physical tags;
    // mirror that so pre- and post-construction configs agree.
    auto appendL1 = [&](CacheConfig cache) {
        if (physical)
            cache.virtualTags = false;
        appendCache(kb, cache);
    };
    if (config.split)
        appendL1(config.icache);
    appendL1(config.dcache);
    return kb.key();
}

SimKey
frontEndKey(const SystemConfig &config)
{
    SimKey warm = warmStateKey(config);
    KeyBuilder kb;
    kb.u64(0x66726f6e746b6579ULL); // "frontkey"
    kb.u64(warm.lo);
    kb.u64(warm.hi);
    // Pair issue only shapes split machines (System's runPair_).
    kb.b(config.split && config.cpu.pairIssue);
    return kb.key();
}

SimKey
exactStateKey(const SystemConfig &config, std::uint64_t trace_hash)
{
    return simKey(config, trace_hash);
}

SimCache &
SimCache::global()
{
    static SimCache cache;
    return cache;
}

SimCache::SimCache()
{
    if (const char *env = std::getenv("CACHETIME_SIM_CACHE"))
        enabled_.store(env[0] != '0');
}

SimCache::Shard &
SimCache::shard(const SimKey &key)
{
    return shards_[key.hi % shardCount];
}

std::shared_ptr<const SimResult>
SimCache::find(const SimKey &key)
{
    Shard &s = shard(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.map.find(key);
    if (it == s.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        trace_event::emitInstant(trace_event::Cat::SimCacheT, "miss");
        return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    trace_event::emitInstant(trace_event::Cat::SimCacheT, "hit");
    return it->second;
}

void
SimCache::insert(const SimKey &key,
                 std::shared_ptr<const SimResult> result)
{
    Shard &s = shard(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.map.size() >= shardCapacity) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    s.map.emplace(key, std::move(result));
}

void
SimCache::clear()
{
    for (Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.map.clear();
    }
    hits_.store(0);
    misses_.store(0);
    dropped_.store(0);
}

std::size_t
SimCache::size() const
{
    std::size_t total = 0;
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        total += s.map.size();
    }
    return total;
}

} // namespace cachetime
