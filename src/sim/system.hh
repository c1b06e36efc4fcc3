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
 * A machine is a front end and one or more timing back ends.  The
 * front end - the L1 cache(s), the TLB under physical addressing,
 * and their counters - is time-free: what it answers depends only on
 * the reference stream, its organization and the issue shape, never
 * on a latency.  A back end holds everything timed: the clock, the
 * L1 busy horizons, the write buffers, any lower levels, memory, and
 * the stall and miss-penalty counters.
 *
 * Per span, the front end probes every reference once and writes an
 * event list: every issue group that needs a back end (an L1 miss, a
 * tagged-prefetch hit, a write-through store, a TLB miss) and every
 * measure-window edge, with the plain hit groups between events
 * counted per issue shape.  Each back end then runs only the events
 * through the miss tails and jumps each run of hit groups by its
 * shape counts, stepping group by group only while a busy horizon
 * is still open after an event (DESIGN.md §10).  A lone machine is
 * one front end with one back end; a fused batch (core/sweep.hh)
 * adds a back end per timing config that shares the organization,
 * so every such config pays per event instead of per reference.
 */

#ifndef CACHETIME_SIM_SYSTEM_HH
#define CACHETIME_SIM_SYSTEM_HH

#include <memory>
#include <vector>

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
 * One simulated uniprocessor machine, or several that differ only in
 * timing and share one front end.  A System may run several streams;
 * beginRun() returns a machine that has already run to its freshly
 * built state (cache contents, clock, buffers).  References inside
 * the source's warm segments are issued (state and clock advance)
 * but excluded from every measured counter.
 */
class System final : public Simulator
{
  public:
    /** Build the machine; the configuration is validated here. */
    explicit System(const SystemConfig &config);
    ~System() override;

    /**
     * Add a timing back end for @p config, which must have this
     * machine's frontEndKey() (core/sim_cache.hh): it shares the
     * front end and owns no L1 or TLB arrays.  Only a machine that
     * has not run and has no interval collector takes one.
     * simulateBatch() is the one caller.
     */
    void addBackEnd(const SystemConfig &config);

    /** @return the number of back ends, the first included. */
    std::size_t backEnds() const;

    /**
     * Arm a run over @p source.  A machine that has run before is
     * reset() first, its caches in place: one reused per SMARTS
     * unit allocates no cache array after its first run.
     */
    void beginRun(const RefSource &source) override;
    void feedChunk(const Ref *refs, std::size_t n) override;

    /** The one back end's result; panics on several. */
    SimResult endRun() override;

    /** Finish the armed run: every back end's result, in order. */
    std::vector<SimResult> endRuns();

    /** @return references the front end scanned in the armed run. */
    std::uint64_t scannedRefs() const;

    /** @return events the back ends replayed in the armed run. */
    std::uint64_t replayedEvents() const;

    /**
     * Every windowRefs() issued references the run snapshots its
     * cumulative measured counters into the collector.  Attaching a
     * collector never changes a simulated counter - the engine only
     * splits chunks at window boundaries (already bit-identical by
     * the resumable-run design) and snapshots read-only; couplets
     * straddling a boundary are kept whole.  Panics on a machine
     * with several back ends.
     */
    void setIntervalCollector(IntervalCollector *collector) override;

    /**
     * The warm state is the simulated clock, L1 busy horizons, cache
     * contents (tags, LRU, dirty bits, victim buffers, replacement
     * streams), TLB, write-buffer queues, intermediate levels and
     * memory bank horizons, in tagged sections.  A busy horizon at
     * or below the clock stands for any such value: the machine
     * times alike from each.  Panics on several back ends.
     */
    void captureState(StateWriter &w) const override;

    /**
     * The config must match the capturing machine's exactStateKey().
     * Panics on several back ends.
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
     * to re-warm exactly that remainder.  Panics on several back
     * ends.
     */
    void restoreWarmState(StateReader &r);

    /** @return the first back end's configuration. */
    const SystemConfig &config() const override;

  private:
    struct FrontCounters;
    struct Event;
    struct EventList;
    class FrontEnd;
    class BackEnd;

    /** panic() naming @p what unless there is exactly one back end. */
    void requireLone(const char *what) const;

    /**
     * Issue one piece of at most refChunkSize + 1 references: the
     * front end scans it into an event list, then every back end
     * replays the events.
     */
    void issue(const Ref *refs, std::size_t n);

    /**
     * @return the cumulative measured counters of the armed run at
     * the current position: the folded result plus, mid-span of a
     * measured segment, the live component stats and pending
     * accumulators.  Read-only; the interval snapshots are built
     * from differences of these.
     */
    IntervalCounters captureIntervalCounters() const;

    std::unique_ptr<FrontEnd> front_;
    std::vector<std::unique_ptr<BackEnd>> backs_;

    /** True once beginRun() has armed this machine. */
    bool ran_ = false;
    std::uint64_t scannedRefs_ = 0;
    std::uint64_t replayedEvents_ = 0;

    /** Windowed-snapshot collector; optional and observation-only. */
    IntervalCollector *interval_ = nullptr;
    /** Next issued-ref position that closes a window. */
    std::uint64_t nextIntervalBoundary_ = 0;
};

} // namespace cachetime

#endif // CACHETIME_SIM_SYSTEM_HH
