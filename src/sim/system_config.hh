/**
 * @file
 * The full description of one simulated machine.
 *
 * The paper's specification files carry "about 130 parameters" for a
 * two-level system; SystemConfig is the equivalent: CPU issue
 * timing, split or unified first-level caches, the write buffer at
 * each level, an optional second-level cache, and the main-memory
 * nanosecond model, all tied together by the CPU/cache cycle time
 * (the paper assumes the system cycle time is set by the cache).
 *
 * paperDefault() reproduces the baseline machine of Section 2:
 * split 64KB I and D caches, 4-word blocks, direct mapped, whole
 * block fetched on a miss, write-back data cache with no fetch on
 * write miss, a four-block write buffer, 40ns cycle time, and a
 * 180/100/120ns memory transferring one word per cycle.
 *
 * The key=value format of specification and variation files is
 * defined here, once: forEachKey() lists every key beside the field
 * it sets, and applyKeyValues() (text to config) and
 * configKeyValues() (config to text) are two walks of that list.
 * Numbers go through parseNumber() and enum values through their
 * enumNames() tables (util/parse.hh).
 */

#ifndef CACHETIME_SIM_SYSTEM_CONFIG_HH
#define CACHETIME_SIM_SYSTEM_CONFIG_HH

#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/cache_level.hh"
#include "cache/coherence.hh"
#include "cpu/cpu.hh"
#include "memory/memory_timing.hh"
#include "memory/tlb.hh"
#include "memory/write_buffer.hh"
#include "sim/core_map.hh"
#include "util/parse.hh"

namespace cachetime
{

/** Where virtual-to-physical translation happens. */
enum class AddressMode : std::uint8_t
{
    /** Virtual caches with the pid in the tag (the paper's setup). */
    Virtual,
    /**
     * Physically-addressed caches behind a TLB; a TLB miss stalls
     * the access by the configured penalty.
     */
    Physical,
};

/** @return every spelling of a mode (util/parse.hh). */
EnumNames<AddressMode> enumNames(AddressMode);

/** @return a short stable name for the mode. */
const char *addressModeName(AddressMode mode);

/** Complete machine description. */
struct SystemConfig
{
    /** CPU == cache cycle time in nanoseconds. */
    double cycleNs = 40.0;

    CpuConfig cpu;

    /** Translation placement; Virtual is the paper's default. */
    AddressMode addressing = AddressMode::Virtual;
    TlbConfig tlb;

    /** Split (Harvard) first level; if false, dcache is unified. */
    bool split = true;

    CacheConfig icache;
    CacheConfig dcache;

    /** Write buffer below the first level. */
    WriteBufferConfig l1Buffer;

    /** Optional second-level (unified) cache. */
    bool hasL2 = false;
    CacheConfig l2cache;
    CacheLevelTiming l2Timing;
    WriteBufferConfig l2Buffer;

    /**
     * One cache level between the L1s and main memory.  A write
     * buffer sits below the level, per the paper ("write buffers
     * are included between every level of the modeled system").
     */
    struct MidLevelConfig
    {
        CacheConfig cache;
        CacheLevelTiming timing;
        WriteBufferConfig buffer;
    };

    /**
     * The full intermediate hierarchy, nearest level first (L2, L3,
     * ...).  When non-empty this takes precedence over the hasL2 /
     * l2cache sugar above, which describes the common
     * single-intermediate-level case.
     */
    std::vector<MidLevelConfig> midLevels;

    /** @return the effective intermediate levels (sugar resolved). */
    std::vector<MidLevelConfig> resolvedMidLevels() const;

    MainMemoryConfig memory;

    // --- coherent multi-core mode (ROADMAP item 1) ------------------

    /**
     * Number of cores; above 1 requires a coherence protocol.  Each
     * core owns private L1s (split or unified per `split`) in front
     * of the shared L2, and trace pids pick their core via coreMap.
     */
    unsigned cores = 1;

    /**
     * Snooping protocol between the private L1 data caches; None
     * selects the classic single-requester engine.  Coherent mode
     * constrains the configuration (validate() enforces it): a
     * single shared L2, write-back write-allocate whole-block-fetch
     * caches with physical tags, no write buffers, no victim cache
     * or prefetching, virtual addressing, and single-issue timing.
     * applyCoherenceDefaults() rewrites a config into that shape.
     */
    CoherenceProtocol protocol = CoherenceProtocol::None;

    /** How trace pids map onto cores. */
    CoreMapPolicy coreMap = CoreMapPolicy::Modulo;

    /** @return true when the coherent multi-core engine runs. */
    bool coherent() const { return protocol != CoherenceProtocol::None; }

    /**
     * Force the constraints of coherent mode onto this config: both
     * L1s and the L2 become write-back, write-allocate, whole-block
     * fetch, physically tagged, without victim buffers or prefetch;
     * write buffers, pair issue and early continuation turn off;
     * addressing reverts to Virtual.  A missing L2 is synthesized at
     * 4x the total L1 capacity.  Size/assoc/block and every timing
     * parameter are preserved.
     */
    void applyCoherenceDefaults();

    /** Fatal-exit unless the whole configuration is consistent. */
    void validate() const;

    /**
     * @return total first-level data capacity in words (the paper's
     * "Total L1 Size" x-axis counts I + D data portions).
     */
    std::uint64_t totalL1Words() const;

    /** Set both L1 caches to @p words each (I and D varied together). */
    void setL1SizeWordsEach(std::uint64_t words);

    /** Set block size (and whole-block fetch) on both L1 caches. */
    void setL1BlockWords(unsigned words);

    /** Set the set size (associativity) on both L1 caches. */
    void setL1Assoc(unsigned assoc);

    /** @return a short human-readable summary, for tables. */
    std::string describe() const;

    /** The Section 2 baseline machine. */
    static SystemConfig paperDefault();
};

/**
 * The key=value format: calls @p visit(key, field) for every key, in
 * the order configKeyValues() writes them, with the field of
 * @p config (a SystemConfig, const or not) that the key sets.  A
 * field is a double, an unsigned integer, a bool or an enum with
 * enumNames().  @p visit(key, field, scale) is a parse-only alias:
 * its value times scale sets the field (size_kb).  A key added here
 * is read, written and round-trip tested with no other change.
 */
template <typename Config, typename Visit>
void
forEachKey(Config &config, Visit &&visit)
{
    auto cache = [&](const std::string &prefix, auto &c) {
        visit(prefix + "size_words", c.sizeWords);
        visit(prefix + "size_kb", c.sizeWords, 1024 / wordBytes);
        visit(prefix + "block_words", c.blockWords);
        visit(prefix + "assoc", c.assoc);
        visit(prefix + "fetch_words", c.fetchWords);
        visit(prefix + "write_policy", c.writePolicy);
        visit(prefix + "alloc_policy", c.allocPolicy);
        visit(prefix + "repl_policy", c.replPolicy);
        visit(prefix + "prefetch", c.prefetchPolicy);
        visit(prefix + "victim_entries", c.victimEntries);
        visit(prefix + "virtual_tags", c.virtualTags);
        visit(prefix + "repl_seed", c.replSeed);
    };
    auto buffer = [&](const std::string &prefix, auto &b) {
        visit(prefix + "enabled", b.enabled);
        visit(prefix + "depth", b.depth);
        visit(prefix + "read_priority", b.readPriority);
        visit(prefix + "check_read_match", b.checkReadMatch);
        visit(prefix + "match_granularity_words",
              b.matchGranularityWords);
        visit(prefix + "coalesce", b.coalesce);
        visit(prefix + "drain_on_idle", b.drainOnIdle);
        visit(prefix + "high_water", b.highWater);
    };
    visit("cycle_ns", config.cycleNs);
    visit("addressing", config.addressing);
    visit("tlb.entries", config.tlb.entries);
    visit("tlb.assoc", config.tlb.assoc);
    visit("tlb.page_words", config.tlb.pageWords);
    visit("tlb.miss_penalty_cycles", config.tlb.missPenaltyCycles);
    visit("tlb.phys_frames", config.tlb.physFrames);
    visit("split", config.split);
    visit("cores", config.cores);
    visit("protocol", config.protocol);
    visit("core_map", config.coreMap);
    visit("cpu.read_hit_cycles", config.cpu.readHitCycles);
    visit("cpu.write_hit_cycles", config.cpu.writeHitCycles);
    visit("cpu.pair_issue", config.cpu.pairIssue);
    visit("cpu.early_continuation", config.cpu.earlyContinuation);
    cache("icache.", config.icache);
    cache("dcache.", config.dcache);
    buffer("l1buffer.", config.l1Buffer);
    // The single-L2 sugar (hasL2, l2cache, l2Timing, l2Buffer).
    visit("has_l2", config.hasL2);
    cache("l2cache.", config.l2cache);
    visit("l2.hit_cycles", config.l2Timing.hitCycles);
    visit("l2.upstream_rate_words", config.l2Timing.upstreamRate.words);
    visit("l2.upstream_rate_cycles",
          config.l2Timing.upstreamRate.cycles);
    visit("l2.victim_rate_words", config.l2Timing.victimRate.words);
    visit("l2.victim_rate_cycles", config.l2Timing.victimRate.cycles);
    buffer("l2buffer.", config.l2Buffer);
    visit("memory.read_latency_ns", config.memory.readLatencyNs);
    visit("memory.write_ns", config.memory.writeNs);
    visit("memory.recovery_ns", config.memory.recoveryNs);
    visit("memory.address_cycles", config.memory.addressCycles);
    visit("memory.rate_words", config.memory.rate.words);
    visit("memory.rate_cycles", config.memory.rate.cycles);
    visit("memory.banks", config.memory.banks);
    visit("memory.load_forwarding", config.memory.loadForwarding);
    visit("memory.streaming", config.memory.streaming);
}

/**
 * Parse "key=value" lines (# comments allowed) into @p config,
 * starting from its current values; later lines override earlier
 * ones.  Unknown keys and malformed values are fatal.  This plays
 * the role of the paper's variation files layered over a
 * specification file.
 */
void applyKeyValues(SystemConfig &config, const std::string &text);

/**
 * @return @p config as key=value lines, one per forEachKey() key
 * except the parse-only aliases, in that order: doubles as %.17g,
 * bools as 0/1, enums by name.  Applying the text to any
 * SystemConfig sets every field it names to @p config's value.
 * Explicit midLevels have no keys.
 */
std::string configKeyValues(const SystemConfig &config);

} // namespace cachetime

#endif // CACHETIME_SIM_SYSTEM_CONFIG_HH
