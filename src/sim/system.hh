/**
 * @file
 * The whole simulated machine: CPU + split L1 caches + write
 * buffer(s) + optional L2 + main memory, driven by a trace.
 *
 * System owns every component and implements the first-level timing
 * rules of Section 2:
 *
 *  - read hits take one CPU cycle, write hits two (tag then data);
 *  - on a read miss the memory read starts immediately; a dirty
 *    victim streams into the write buffer over a one-word-wide path
 *    during the memory latency, so the write-back is hidden unless
 *    the block is long relative to the latency;
 *  - stores that miss are not allocated; the words go down through
 *    the write buffer;
 *  - I and D references issue as couplets and both must complete
 *    before the next group issues.
 */

#ifndef CACHETIME_SIM_SYSTEM_HH
#define CACHETIME_SIM_SYSTEM_HH

#include <memory>

#include "cache/cache.hh"
#include "cache/cache_level.hh"
#include "cpu/cpu.hh"
#include "memory/main_memory.hh"
#include "memory/tlb.hh"
#include "util/histogram.hh"
#include "memory/write_buffer.hh"
#include "sim/simulator.hh"

namespace cachetime
{

struct IntervalCounters;

/**
 * One simulated uniprocessor machine.  A System may run several
 * streams; beginRun() resets state (cache contents, clock) between
 * runs.  References inside the source's warm segments are issued
 * (state and clock advance) but excluded from every measured
 * counter.
 */
class System final : public Simulator
{
  public:
    /** Build the machine; the configuration is validated here. */
    explicit System(const SystemConfig &config);

    void beginRun(const RefSource &source) override;
    void feedChunk(const Ref *refs, std::size_t n) override;
    SimResult endRun() override;

    /**
     * Every windowRefs() issued references the run snapshots its
     * cumulative measured counters into the collector.  Attaching a
     * collector never changes a simulated counter - the engine only
     * splits chunks at window boundaries (already bit-identical by
     * the resumable-run design) and snapshots read-only; couplets
     * straddling a boundary are kept whole.
     */
    void setIntervalCollector(IntervalCollector *collector) override
    {
        interval_ = collector;
    }

    /**
     * The warm state is the simulated clock, L1 busy horizons, cache
     * contents (tags, LRU, dirty bits, victim buffers, replacement
     * streams), TLB, write-buffer queues, intermediate levels and
     * memory bank horizons, in tagged sections.
     */
    void captureState(StateWriter &w) const override;

    /** The config must match the capturing machine's exactStateKey(). */
    void restoreState(StateReader &r) override;

    /**
     * Restore only the timing-independent warm state: L1 cache(s)
     * and TLB.  Their evolution depends only on the reference
     * stream and their own organizational config (warmStateKey()),
     * so a checkpoint taken under one timing configuration seeds
     * them for any other.  Timing-entangled state - clock, write
     * buffers, L2 contents, busy horizons - stays cold; the sampling
     * engine's detailed warm-up before each measurement unit exists
     * to re-warm exactly that remainder.
     */
    void restoreWarmState(StateReader &r);

    const SystemConfig &config() const override { return config_; }

  private:
    /**
     * (Re)build every stateful component from config_: memory, the
     * intermediate levels with their write buffers (memory-first so
     * each level drains into the one below), the L1 write buffer,
     * the TLB when addressing is physical, and the L1 cache(s).
     */
    void buildHierarchy();

    /** Reset caches, buffers, clock and statistics for a new run. */
    void reset();

    /** Reset statistics only (warm-start boundary). */
    void resetStats();

    /**
     * The reference-processing engine: issues one span of references
     * in place, pairing I/D couplets inline.  Per-run decisions are
     * hoisted into template parameters so the per-reference path
     * carries no re-checks:
     * @tparam TraceOn  emit per-reference debug trace events
     * @tparam Pair     split caches with couplet issue enabled
     * @tparam HasTlb   physical addressing (translate every ref)
     * feedChunk() dispatches to the right instantiation per span;
     * cross-span progress lives in progress_ and is staged through
     * locals so the steady-state loop still runs out of registers.
     */
    template <bool TraceOn, bool Pair, bool Split, bool HasTlb>
    void consumeChunk(const Ref *refs, std::size_t n);

    /** Dispatch one span to the right consumeChunk instantiation. */
    void dispatchChunk(const Ref *refs, std::size_t n);

    /**
     * @return the cumulative measured counters of the armed run at
     * the current position: the folded result_ plus, mid-span of a
     * measured segment, the live component stats and pending
     * progress_ accumulators.  Read-only; the interval snapshots
     * are built from differences of these.
     */
    IntervalCounters captureIntervalCounters() const;

    /**
     * Fold the measured span ending at @p now into result_ (counter
     * accumulators are taken from progress_, which the chunk loop
     * synchronizes before the call).
     */
    void foldMeasured(Tick now);

    /**
     * @return completion time of a read issued at @p issue.  The
     * probe + hit path is forced inline into runLoop(); everything
     * past the HitKind check lives out of line in readMissTail().
     */
    template <bool TraceOn, bool HasTlb>
    [[gnu::always_inline]] inline Tick
    accessRead(Cache &cache, Tick &busy, const Ref &ref, Tick issue);

    /** Victim-swap / fetch / early-continuation miss timing. */
    Tick readMissTail(Cache &cache, Tick &busy, Addr addr, Pid pid,
                      Tick start, AccessOutcome &outcome);

    /**
     * Issue a one-block-lookahead prefetch for the block after
     * @p addr, if the cache's policy requests it.  The fetch
     * occupies the downstream path and the cache's fill port, but
     * the CPU does not wait for it.
     */
    void maybePrefetch(Cache &cache, Tick &busy, Addr addr, Pid pid,
                       Tick when);

    /** @return completion time of a write issued at @p issue. */
    template <bool TraceOn, bool HasTlb>
    [[gnu::always_inline]] inline Tick
    accessWrite(Cache &cache, Tick &busy, const Ref &ref,
                Tick issue);

    /** Victim-swap / no-allocate / write-allocate miss timing. */
    Tick writeMissTail(Cache &cache, Tick &busy, Addr addr, Pid pid,
                       Tick start, AccessOutcome &outcome);

    SystemConfig config_;

    std::unique_ptr<Cache> icache_;
    std::unique_ptr<Cache> dcache_;
    std::unique_ptr<Tlb> tlb_;
    std::unique_ptr<MainMemory> memory_;
    /** Intermediate levels, nearest to memory first when built. */
    std::vector<std::unique_ptr<CacheLevel>> midLevels_;
    std::vector<std::unique_ptr<WriteBuffer>> midBuffers_;
    std::unique_ptr<WriteBuffer> l1Buffer_; ///< L1 -> (L2|memory)

    /** The level L1 misses and writes go to (the L1 write buffer). */
    MemLevel *l1Down_ = nullptr;

    /** Per-L1-cache busy horizon (fills outlast early continuation). */
    Tick icacheBusy_ = 0;
    Tick dcacheBusy_ = 0;

    /** Observed L1 read-miss service times, in cycles. */
    Histogram missPenalty_{32, 2};

    // Stall attribution (serial, per access; couplet overlap means
    // the parts can sum to more than the total).
    Tick stallRead_ = 0;
    Tick stallWrite_ = 0;
    Tick stallTlb_ = 0;

    /**
     * Cross-chunk position of an armed run.  Everything the chunk
     * loop keeps in registers is staged here at span boundaries so
     * a run can be suspended and resumed between feedChunk() calls.
     */
    struct RunProgress
    {
        Tick now = 0;            ///< simulated clock
        Tick segStart = 0;       ///< clock at measure-on
        bool measuring = false;  ///< inside a measured span
        std::size_t segIdx = 0;  ///< warm-segment cursor
        std::size_t boundary = 0; ///< next position state can change
        std::size_t consumed = 0; ///< references issued so far
        std::uint64_t groups = 0; ///< measured issue groups pending fold
        std::uint64_t reads = 0;  ///< measured read refs pending fold
        std::uint64_t writes = 0; ///< measured write refs pending fold
    };

    RunProgress progress_;
    SimResult result_;           ///< accumulating result of the armed run
    /** Warm metadata captured by beginRun (copied; sources may die). */
    std::size_t runWarmStart_ = 0;
    std::vector<WarmSegment> runSegments_;
    bool runTraceOn_ = false;    ///< dispatch flags hoisted by beginRun
    bool runPair_ = false;

    /** Windowed-snapshot collector; optional and observation-only. */
    IntervalCollector *interval_ = nullptr;
    /** Next issued-ref position that closes a window. */
    std::uint64_t nextIntervalBoundary_ = 0;
};

} // namespace cachetime

#endif // CACHETIME_SIM_SYSTEM_HH
