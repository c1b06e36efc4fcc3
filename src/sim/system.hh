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
 *
 * The front end - the L1 cache(s) and, under physical addressing,
 * the TLB - is time-free: what it answers depends only on the
 * reference stream, its organization and the issue shape, never on a
 * latency.  So machines that differ only in timing can share one.
 * Inside a fused batch (core/sweep.hh) the first machine of a front
 * end leads: it probes its own L1s and TLB and records every answer
 * its timing code reads on a per-span tape.  The others follow: they
 * own no L1 or TLB arrays and replay the tape through the same
 * reference loop, keeping their own clock, busy horizons, write
 * buffers, lower levels and stall counters.
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

/** How a System's front end (L1 cache(s) and TLB) answers probes. */
enum class FrontMode : std::uint8_t
{
    Own,    ///< probes its own L1s and TLB (every lone machine)
    Lead,   ///< probes its own and records each answer on the tape
    Follow, ///< owns no L1 or TLB; replays its leader's tape
};

/**
 * One simulated uniprocessor machine.  A System may run several
 * streams; beginRun() returns a machine that has already run to its
 * freshly built state (cache contents, clock, buffers).  References
 * inside the source's warm segments are issued (state and clock
 * advance) but excluded from every measured counter.
 */
class System final : public Simulator
{
  public:
    /** Build the machine; the configuration is validated here. */
    explicit System(const SystemConfig &config);

    /**
     * @return a machine for @p config that shares this machine's
     * front end, which must be built from an equal frontEndKey()
     * (core/sim_cache.hh) and not yet have run; this machine becomes
     * its leader.  The follower owns no L1 or TLB arrays.  Drive the
     * two in lockstep: every beginRun(), feedChunk() and endRun() of
     * the leader comes before the followers' matching call, and each
     * span is fed to the leader and its followers before the next.
     * simulateBatch() is the one caller.
     */
    std::unique_ptr<System> follower(const SystemConfig &config);

    /**
     * Arm a run over @p source.  A machine that has run before is
     * reset() first, its caches in place: one reused per SMARTS
     * unit allocates no cache array after its first run.
     */
    void beginRun(const RefSource &source) override;
    void feedChunk(const Ref *refs, std::size_t n) override;
    SimResult endRun() override;

    /**
     * Every windowRefs() issued references the run snapshots its
     * cumulative measured counters into the collector.  Attaching a
     * collector never changes a simulated counter - the engine only
     * splits chunks at window boundaries (already bit-identical by
     * the resumable-run design) and snapshots read-only; couplets
     * straddling a boundary are kept whole.  Panics on a follower.
     */
    void setIntervalCollector(IntervalCollector *collector) override;

    /**
     * The warm state is the simulated clock, L1 busy horizons, cache
     * contents (tags, LRU, dirty bits, victim buffers, replacement
     * streams), TLB, write-buffer queues, intermediate levels and
     * memory bank horizons, in tagged sections.  Panics on a
     * follower, which has no cache contents of its own.
     */
    void captureState(StateWriter &w) const override;

    /**
     * The config must match the capturing machine's exactStateKey().
     * Panics on a follower.
     */
    void restoreState(StateReader &r) override;

    /**
     * Restore only the timing-independent warm state: L1 cache(s)
     * and TLB.  Their evolution depends only on the reference
     * stream and their own organizational config (warmStateKey()),
     * so a checkpoint taken under one timing configuration seeds
     * them for any other.  Timing-entangled state - clock, write
     * buffers, L2 contents, busy horizons - stays cold; the sampling
     * engine's detailed warm-up before each measurement unit exists
     * to re-warm exactly that remainder.  Panics on a follower.
     */
    void restoreWarmState(StateReader &r);

    const SystemConfig &config() const override { return config_; }

  private:
    struct FrontTape;
    struct FrontCounters;

    /**
     * A follower of the front end recorded on @p tape, or, when
     * @p tape is null, a machine that owns its front end.
     */
    System(const SystemConfig &config, std::shared_ptr<FrontTape> tape);

    /**
     * One L1 as the timing code sees it: every mode reads its
     * organizational config and name, and only a machine that owns
     * its front end probes the cache itself.
     */
    struct L1Port
    {
        Cache *cache = nullptr;              ///< null on a follower
        const CacheConfig *config = nullptr;
        const char *name = "";
    };

    /** Where a follower stands in the current span of its tape. */
    struct TapeCursor
    {
        std::size_t kind = 0;
        std::size_t outcome = 0;
        std::size_t translation = 0;
        std::size_t fold = 0;
    };

    /** panic() naming @p what unless this machine owns a front end. */
    void requireFront(const char *what) const;

    /**
     * Build every stateful component from config_: memory, the
     * intermediate levels with their write buffers (memory-first so
     * each level drains into the one below), the L1 write buffer,
     * and - unless this machine follows - the TLB when addressing is
     * physical and the L1 cache(s).  Called again, it rebuilds
     * memory, the buffers and the TLB, and resets every cache it
     * built in place (Cache::reset()): no cache array is
     * reallocated.
     */
    void buildHierarchy();

    /**
     * Return caches, buffers, clock and statistics to the built
     * state for a new run, through buildHierarchy().
     */
    void reset();

    /** Reset statistics only (warm-start boundary). */
    void resetStats();

    /**
     * The reference-processing engine: issues one span of references
     * in place, pairing I/D couplets inline.  Per-run decisions are
     * hoisted into template parameters so the per-reference path
     * carries no re-checks:
     * @tparam Pair     split caches with couplet issue enabled
     * @tparam HasTlb   physical addressing (translate every ref)
     * @tparam Mode     how the front end answers (FrontMode)
     * feedChunk() dispatches to the right instantiation per span;
     * cross-span progress lives in progress_ and is staged through
     * locals so the steady-state loop still runs out of registers.
     */
    template <bool Pair, bool Split, bool HasTlb, FrontMode Mode>
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
     * synchronizes before the call).  The L1 and TLB counters come
     * from the front end: read live and, by a leader, recorded; read
     * back from the tape by a follower.
     */
    void foldMeasured(Tick now);

    /**
     * The front end's answer to one demand access (a store when
     * @p Write): probed, probed and recorded, or replayed, per
     * @p Mode.  @p outcome is filled only on HitKind::Miss.
     */
    template <FrontMode Mode, bool Write>
    [[gnu::always_inline]] inline HitKind
    probe(const L1Port &l1, Addr addr, Pid pid, AccessOutcome &outcome);

    /** The TLB's translation of @p ref, likewise per @p Mode. */
    template <FrontMode Mode>
    [[gnu::always_inline]] inline Tlb::Translation
    translate(const Ref &ref);

    /**
     * @return completion time of a read issued at @p issue.  The
     * probe + hit path is forced inline into runLoop(); everything
     * past the HitKind check lives out of line in readMissTail().
     */
    template <bool HasTlb, FrontMode Mode>
    [[gnu::always_inline]] inline Tick
    accessRead(const L1Port &l1, Tick &busy, const Ref &ref,
               Tick issue);

    /** Victim-swap / fetch / early-continuation miss timing. */
    template <FrontMode Mode>
    Tick readMissTail(const L1Port &l1, Tick &busy, Addr addr, Pid pid,
                      Tick start, AccessOutcome &outcome);

    /**
     * Issue a one-block-lookahead prefetch for the block after
     * @p addr, if the cache's policy requests it.  The fetch
     * occupies the downstream path and the cache's fill port, but
     * the CPU does not wait for it.
     */
    template <FrontMode Mode>
    void maybePrefetch(const L1Port &l1, Tick &busy, Addr addr, Pid pid,
                       Tick when);

    /** @return completion time of a write issued at @p issue. */
    template <bool HasTlb, FrontMode Mode>
    [[gnu::always_inline]] inline Tick
    accessWrite(const L1Port &l1, Tick &busy, const Ref &ref,
                Tick issue);

    /** Victim-swap / no-allocate / write-allocate miss timing. */
    template <FrontMode Mode>
    Tick writeMissTail(const L1Port &l1, Tick &busy, Addr addr, Pid pid,
                       Tick start, AccessOutcome &outcome);

    SystemConfig config_;

    FrontMode mode_ = FrontMode::Own;
    /** Shared by a leader and its followers; null for Own. */
    std::shared_ptr<FrontTape> tape_;
    TapeCursor cursor_; ///< a follower's replay position
    /** True once beginRun() has armed this machine. */
    bool ran_ = false;

    std::unique_ptr<Cache> icache_; ///< null when unified or following
    std::unique_ptr<Cache> dcache_; ///< null when following
    std::unique_ptr<Tlb> tlb_;      ///< null when virtual or following
    L1Port iport_; ///< the I side; the D side's when unified
    L1Port dport_;
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
        /** Which positions count (copied by beginRun; sources may die). */
        MeasureWindow window;
        std::size_t consumed = 0; ///< references issued so far
        std::uint64_t groups = 0; ///< measured issue groups pending fold
        std::uint64_t reads = 0;  ///< measured read refs pending fold
        std::uint64_t writes = 0; ///< measured write refs pending fold
    };

    RunProgress progress_;
    SimResult result_;           ///< accumulating result of the armed run
    bool runPair_ = false;       ///< dispatch flag hoisted by beginRun

    /** Windowed-snapshot collector; optional and observation-only. */
    IntervalCollector *interval_ = nullptr;
    /** Next issued-ref position that closes a window. */
    std::uint64_t nextIntervalBoundary_ = 0;
};

} // namespace cachetime

#endif // CACHETIME_SIM_SYSTEM_HH
