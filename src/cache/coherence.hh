/**
 * @file
 * Snooping coherence over private L1s: protocol enums, the
 * coherence traffic counters, and the per-core coherent L1 model.
 *
 * The paper evaluates single-stream hierarchies; ROADMAP item 1
 * promotes the multiprogrammed PID streams to cores with private
 * L1s in front of the shared L2 and charges coherence traffic in
 * the same cycle-count x cycle-time currency.  Three protocols are
 * modeled:
 *
 *   VI    write-back valid/invalid: a single owner per block.  Any
 *         bus transaction for a block invalidates every other copy
 *         (a modified copy is flushed to the L2 first).  Encoded
 *         here as MESI-without-Shared: every fill installs
 *         Exclusive and a write hit promotes it silently.
 *   MSI   read misses install Shared (a modified peer flushes and
 *         downgrades); a write hit on Shared is an *upgrade* bus
 *         transaction invalidating the peers; write misses install
 *         Modified.
 *   MESI  MSI plus the Exclusive state: a read miss with no sharer
 *         installs Exclusive, so the first write needs no upgrade.
 *
 * CoherentL1 is the mechanical line store: states, replacement and
 * demand counters.  Protocol decisions (who to snoop, what a
 * transaction costs) live in CoherentSystem, and independently in
 * the straight-line oracle.  Unlike the SoA demand-path Cache this
 * model is deliberately simple AoS - coherent mode is a modeling
 * mode, not the throughput path.
 */

#ifndef CACHETIME_CACHE_COHERENCE_HH
#define CACHETIME_CACHE_COHERENCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh" // CacheStats
#include "cache/cache_config.hh"
#include "trace/ref.hh"
#include "util/parse.hh"
#include "util/rng.hh"

namespace cachetime
{

class StateReader;
class StateWriter;

/** Snooping protocol run between the private L1 data caches. */
enum class CoherenceProtocol : std::uint8_t
{
    None, ///< single-requester mode (the classic System engine)
    VI,
    MSI,
    MESI,
};

/** @return every spelling of a protocol (util/parse.hh). */
EnumNames<CoherenceProtocol> enumNames(CoherenceProtocol);

/** @return a short stable name ("none", "vi", "msi", "mesi"). */
const char *coherenceProtocolName(CoherenceProtocol protocol);

/** Parse a protocol name; fatal() on anything unknown. */
CoherenceProtocol parseCoherenceProtocol(const std::string &name);

/** MESI line states; VI and MSI use subsets of the encoding. */
enum class CohState : std::uint8_t
{
    Invalid = 0,
    Shared,
    Exclusive,
    Modified,
};

/** @return one-letter name ("I", "S", "E", "M"). */
const char *cohStateName(CohState state);

/**
 * Bus-side coherence counters, reset at the warm-start boundary.
 * Cycle fields are charged through MemoryTiming / CacheLevelTiming
 * so they live in the same currency as every other latency.
 */
struct CoherenceStats
{
    std::uint64_t busTransactions = 0; ///< misses + upgrades arbitrated
    std::uint64_t snoops = 0;          ///< transactions peers observed
    std::uint64_t invalidations = 0;   ///< peer copies invalidated
    std::uint64_t upgrades = 0;        ///< S->M ownership requests
    std::uint64_t interventions = 0;   ///< dirty peer answered a snoop
    std::uint64_t writebacks = 0;      ///< snoop-forced flushes to L2

    Tick upgradeCycles = 0;      ///< bus cycles spent on upgrades
    Tick interventionCycles = 0; ///< cycles flushing dirty peer copies
    Tick busBusyCycles = 0;      ///< total cycles the bus was held

    void reset() { *this = CoherenceStats(); }

    void merge(const CoherenceStats &other) { mergeCounters(*this, other); }

    /** Every counter once (stats/counter_list.hh). */
    template <typename Visit>
    static void
    forEachCounter(Visit &&visit)
    {
        using S = CoherenceStats;
        visit("busTransactions", "bus transactions arbitrated",
              &S::busTransactions);
        visit("snoops", "transactions peers observed", &S::snoops);
        visit("invalidations", "peer copies invalidated",
              &S::invalidations);
        visit("upgrades", "shared-to-modified ownership requests",
              &S::upgrades);
        visit("interventions", "snoops answered by a dirty peer",
              &S::interventions);
        visit("writebacks", "snoop-forced flushes to the L2",
              &S::writebacks);
        visit("upgradeCycles", "bus cycles spent on upgrades",
              &S::upgradeCycles);
        visit("interventionCycles", "cycles flushing dirty peer copies",
              &S::interventionCycles);
        visit("busBusyCycles", "total cycles the bus was held",
              &S::busBusyCycles);
    }
};

/**
 * One private first-level cache holding MESI-state lines.
 *
 * Whole-block operation only (coherent configs are validated to
 * whole-block fetch, write-back, write-allocate), physically tagged
 * (the cores share one address space; sharing is the point), and
 * the usual Random/LRU/FIFO replacement with its own seeded stream.
 */
class CoherentL1
{
  public:
    CoherentL1(const CacheConfig &config, std::string name);

    /** Side-effect-free state probe (Invalid when not resident). */
    CohState state(Addr addr) const;

    /**
     * Demand read lookup: charges readAccesses (and readMisses when
     * absent) and bumps recency on a hit.
     * @return the line state; Invalid means miss.
     */
    CohState lookupRead(Addr addr);

    /** Store counterpart; a present line in any state is a hit. */
    CohState lookupWrite(Addr addr);

    /** Overwrite the state of a resident line (hit promotions). */
    void setState(Addr addr, CohState state);

    /** What a fill displaced. */
    struct Victim
    {
        bool valid = false;   ///< a resident block was displaced
        bool dirty = false;   ///< it was Modified
        Addr blockAddr = 0;   ///< word address of its first word
    };

    /**
     * Install @p addr's block in @p state after a miss; charges the
     * fill/replacement counters and returns the displaced victim.
     */
    Victim fill(Addr addr, CohState state);

    /**
     * Snoop-invalidate the block if resident (no demand counters).
     * @return the state the copy held (Invalid when absent).
     */
    CohState snoopInvalidate(Addr addr);

    /** Snoop-downgrade M/E to Shared. @return the prior state. */
    CohState snoopDowngrade(Addr addr);

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }
    const CacheConfig &config() const { return config_; }
    const std::string &name() const { return name_; }

    /** @return word address of the first word of @p addr's block. */
    Addr
    blockStart(Addr addr) const
    {
        return addr / config_.blockWords * config_.blockWords;
    }

    /**
     * Serialize every line's tag/state/replacement metadata plus
     * the sequence counters and the replacement RNG, so a restored
     * cache continues bit-identically (statistics are not state).
     */
    void saveState(StateWriter &w) const;

    /** Restore saveState() output; fatal() on a shape mismatch. */
    void loadState(StateReader &r);

  private:
    struct Line
    {
        Addr tag = 0;
        CohState state = CohState::Invalid;
        std::uint64_t lastUse = 0;
        std::uint64_t fillSeq = 0;
    };

    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** @return way index of @p tag in @p set, or kNoWay. */
    std::size_t findWay(std::uint64_t set, Addr tag) const;

    Line *lookup(Addr addr); // nullptr when absent
    const Line *lookup(Addr addr) const;

    CacheConfig config_;
    std::string name_;
    std::uint64_t sets_;
    std::vector<Line> lines_; ///< sets_ x assoc, way-major per set
    std::uint64_t useSeq_ = 0;
    std::uint64_t fillCount_ = 0;
    Rng replRng_;
    CacheStats stats_;
};

} // namespace cachetime

#endif // CACHETIME_CACHE_COHERENCE_HH
