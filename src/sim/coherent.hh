/**
 * @file
 * The coherent multi-core engine: N cores with private L1s over the
 * shared L2, a snooping bus, and VI/MSI/MESI coherence (ROADMAP
 * item 1).
 *
 * Determinism and ordering.  The engine consumes the trace in
 * strict stream order - one reference retires completely before the
 * next is issued, whichever core it lands on - so a run is a pure
 * function of (config, trace) with no scheduling freedom.  Cores
 * overlap in *simulated* time through per-core clocks: core c
 * issues its next reference at its own clock, bus transactions
 * serialize on the shared bus horizon (a transaction starts at
 * max(core clock, bus free) and advances both), and the run's cycle
 * count is the maximum core clock at the end.  The host-side sweep
 * pool parallelizes across configurations only, so the
 * bit-identical-at-any-thread-count guarantee of the classic engine
 * carries over unchanged.
 *
 * Timing currency.  Every coherence action is charged through the
 * same MemoryTiming / CacheLevelTiming arithmetic as the classic
 * engine: a bus transaction costs the memory address cycles
 * (arbitration + broadcast), a dirty peer flush costs the L2 victim
 * transfer (plus memory time when the L2 must allocate), a fill
 * costs the L2 hit time, any L2 miss's memory read, and the
 * upstream transfer of the L1 block.  Misses and upgrades retry as
 * hits once the bus transaction completes.
 *
 * Simplifications, mirrored exactly by the oracle: instruction
 * caches are private read-only satellites outside the coherence
 * domain (they still occupy the bus on fills); the L2 is
 * non-inclusive backing store (an L2 eviction does not back-
 * invalidate L1 copies); there are no write buffers.
 */

#ifndef CACHETIME_SIM_COHERENT_HH
#define CACHETIME_SIM_COHERENT_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "cache/miss_classify.hh"
#include "memory/main_memory.hh"
#include "memory/memory_timing.hh"
#include "sim/core_map.hh"
#include "sim/simulator.hh"
#include "stats/interval.hh"

namespace cachetime
{

/**
 * One coherent multi-core machine, behind the same Simulator
 * interface as System.  Sampled traces (warm segments) are not
 * supported in coherent mode.
 */
class CoherentSystem final : public Simulator
{
  public:
    /** @param config validated; config.coherent() must hold. */
    explicit CoherentSystem(const SystemConfig &config);
    ~CoherentSystem() override;

    void beginRun(const RefSource &source) override;
    void feedChunk(const Ref *refs, std::size_t n) override;
    SimResult endRun() override;
    void setIntervalCollector(IntervalCollector *collector) override;

    /**
     * The warm state is everything the next reference's outcome can
     * depend on: per-core clocks and L1 contents (MESI states
     * included), the classifiers' shadow structures and
     * pending-invalidation marks, the shared L2, the bus horizon and
     * the run cursor.
     */
    void captureState(StateWriter &w) const override;

    /** fatal() when the checkpoint's config shape differs. */
    void restoreState(StateReader &r) override;

    const SystemConfig &config() const override { return config_; }

  private:
    struct Core
    {
        std::unique_ptr<CoherentL1> icache; ///< null when unified
        std::unique_ptr<CoherentL1> dcache;
        std::unique_ptr<MissClassifier> iClass; ///< null when unified
        std::unique_ptr<MissClassifier> dClass;
        Tick now = 0;
    };

    /**
     * (Re)build the machine's fresh state: every core's L1s (with
     * their coherence states), clock and miss classifiers, the shared
     * L2, the bus horizon and every counter.
     */
    void build();

    /** @return the run's wall clock: the furthest core clock. */
    Tick wall() const;

    void consume(const Ref &ref);
    void serveIfetch(unsigned core, Addr addr);
    void serveRead(unsigned core, Addr addr);
    void serveWrite(unsigned core, Addr addr);

    /** Snoop peers of @p core for @p addr ahead of a bus read or
     * write; returns (extra bus cycles, whether any peer kept a
     * Shared copy). */
    struct SnoopResult
    {
        Tick cycles = 0;
        bool sharers = false;
    };
    SnoopResult snoopPeers(unsigned core, Addr addr, bool for_write);

    /** L2 read of one L1 block; charges L2 + memory stats. */
    Tick l2Fetch(Addr addr, unsigned words);

    /** L2 write (L1 victim or snoop flush); ditto. */
    Tick l2Put(Addr addr, unsigned words);

    void crossWarmBoundary();
    IntervalCounters captureIntervalCounters() const;

    SystemConfig config_;
    CoreMap map_;
    CoherenceProtocol protocol_;
    unsigned blockWords_;
    Tick snoopCycles_; ///< bus arbitration/broadcast per transaction

    std::vector<Core> cores_;
    std::unique_ptr<Cache> l2_;
    CacheLevelTiming l2Timing_;
    MemoryTiming memTiming_;
    MainMemoryStats memStats_;
    CoherenceStats coh_;
    Tick bus_ = 0;

    Histogram missPenalty_{32, 2};
    Tick stallRead_ = 0;
    Tick stallWrite_ = 0;

    // Armed-run cursor.
    bool ran_ = false; ///< beginRun() has armed this machine before
    std::string traceName_;
    std::size_t warmStart_ = 0;
    std::size_t consumed_ = 0;
    bool measuring_ = false;
    Tick measureStart_ = 0;
    std::uint64_t mReads_ = 0;  ///< measured loads + ifetches
    std::uint64_t mWrites_ = 0; ///< measured stores

    IntervalCollector *interval_ = nullptr;
    std::uint64_t nextIntervalBoundary_ = 0;
};

} // namespace cachetime

#endif // CACHETIME_SIM_COHERENT_HH
