#include "sim/system.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/sim_cache.hh" // frontEndKey
#include "stats/interval.hh"
#include "trace_debug/trace_debug.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace cachetime
{

namespace
{

/** The shapes of an issue group; a run of hit groups is counted per shape. */
enum Shape : std::uint8_t
{
    IAlone, ///< an ifetch issued alone
    ILoad,  ///< an ifetch paired with a load
    IStore, ///< an ifetch paired with a store
    Load,   ///< a load issued alone
    Store,  ///< a store issued alone
    kShapes
};

/** References, reads and writes in one group of each shape. */
constexpr std::uint8_t shapeRefs[kShapes] = {1, 2, 2, 1, 1};
constexpr std::uint8_t shapeReads[kShapes] = {1, 2, 1, 1, 0};
constexpr std::uint8_t shapeWrites[kShapes] = {0, 0, 1, 0, 1};

/** The shape of the group starting at refs[pos] of a piece of @p n. */
Shape
groupAt(const Ref *refs, std::size_t n, std::size_t pos, bool pair)
{
    if (refs[pos].kind != RefKind::IFetch)
        return refs[pos].kind == RefKind::Store ? Store : Load;
    if (pair && pos + 1 < n && isData(refs[pos + 1].kind))
        return refs[pos + 1].kind == RefKind::Store ? IStore : ILoad;
    return IAlone;
}

/** Where a replay stands in a piece's side streams. */
struct Cursor
{
    std::size_t outcome = 0;
    std::size_t paddr = 0;
    std::size_t fold = 0;
};

/** A piece's hit counts fit an event's 16-bit fields. */
static_assert(refChunkSize + 1 <= std::numeric_limits<std::uint16_t>::max());

} // namespace

/**
 * A front end's counters since measure-on: its L1 and TLB stats and
 * the measured issue groups, reads and writes.
 */
struct System::FrontCounters
{
    CacheStats icache;
    CacheStats dcache;
    TlbStats tlb;
    std::uint64_t groups = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

/**
 * One entry of a piece's event list: an issue group the back ends
 * time in full, or a measure-window edge, with the plain hit groups
 * issued since the previous entry counted per shape.
 */
struct System::Event
{
    enum Kind : std::uint8_t
    {
        Group,      ///< the issue group at pos
        MeasureOn,  ///< a measured segment starts at pos
        MeasureOff, ///< it ends at pos; the next fold holds its counters
        End,        ///< the piece ends at pos
    };

    /** Bits of a Group's sides: slow and tlbMiss. */
    static constexpr std::uint8_t iSide = 1;
    static constexpr std::uint8_t dSide = 2;

    std::uint32_t pos; ///< piece position of the group or edge
    /** Plain hit groups of each shape issued before pos. */
    std::array<std::uint16_t, kShapes> hits;
    Kind kind;
    Shape shape;          ///< a Group's shape
    /** A Group's sides that need more than a plain hit's timing. */
    std::uint8_t slow;
    std::uint8_t tlbMiss; ///< a Group's sides that missed the TLB
    HitKind ikind;        ///< a Group's I-side answer
    HitKind dkind;        ///< a Group's D-side answer
};

/**
 * One piece's front-end answers, each stream in issue order: the
 * events, the outcome of every L1 miss and prefetch they hold (I side
 * before D), under physical addressing the translated address of
 * each slow side, and the front end's counters at each measure-off
 * edge.  Cleared per piece and reused, so a run allocates nothing per
 * piece once the vectors have grown.
 */
struct System::EventList
{
    /**
     * Entries for the largest piece: each of its at most
     * refChunkSize + 1 groups makes at most one group entry and one
     * edge, and the End entry closes it.  Only the pages a piece
     * writes become resident.
     */
    static constexpr std::size_t capacity = 2 * (refChunkSize + 1) + 1;

    /** Entries [0, count) are the piece's. */
    std::unique_ptr<Event[]> events =
        std::make_unique_for_overwrite<Event[]>(capacity);
    std::size_t count = 0;
    std::vector<AccessOutcome> outcomes;
    std::vector<Addr> paddrs;
    std::vector<FrontCounters> folds;

    void
    clear()
    {
        count = 0;
        outcomes.clear();
        paddrs.clear();
        folds.clear();
    }
};

/**
 * The L1 cache(s) and the TLB, with the measure window that decides
 * where their counters reset and fold.  It never reads a clock.
 */
class System::FrontEnd
{
  public:
    explicit FrontEnd(const SystemConfig &config)
        : config_(config),
          pair_(config.split && config.cpu.pairIssue)
    {
        if (config_.addressing == AddressMode::Physical)
            tlb_ = std::make_unique<Tlb>(config_.tlb);
        if (config_.split)
            icache_ = std::make_unique<Cache>(config_.icache, "L1I");
        dcache_ = std::make_unique<Cache>(config_.dcache,
                                          config_.split ? "L1D" : "L1");
        dport_ = port(*dcache_);
        iport_ = icache_ ? port(*icache_) : dport_;
    }

    /**
     * Arm a run over @p source; @p rerun empties the caches in place
     * and builds a fresh TLB.
     */
    void
    beginRun(const RefSource &source, bool rerun)
    {
        if (rerun) {
            if (tlb_)
                tlb_ = std::make_unique<Tlb>(config_.tlb);
            if (icache_)
                icache_->reset();
            dcache_->reset();
        }
        window_ = MeasureWindow(source.warmStart(), source.warmSegments());
        consumed_ = 0;
        measuring_ = false;
        measured_ = {};
    }

    /** Probe refs[0, n) once and write the piece's events to @p list. */
    void
    scan(const Ref *refs, std::size_t n, EventList &list)
    {
        // Pair implies Split, so three issue shapes cover both flags.
        auto shape = [&](auto tlb_c) {
            if (pair_)
                scanShape<true, true, tlb_c.value>(refs, n, list);
            else if (config_.split)
                scanShape<false, true, tlb_c.value>(refs, n, list);
            else
                scanShape<false, false, tlb_c.value>(refs, n, list);
        };
        if (tlb_)
            shape(std::true_type{});
        else
            shape(std::false_type{});
    }

    /**
     * @return the counters since the last measure-on edge; outside
     * a measured span they hold what the last fold already took.
     */
    FrontCounters
    counters() const
    {
        FrontCounters front;
        if (icache_)
            front.icache = icache_->stats();
        front.dcache = dcache_->stats();
        if (tlb_)
            front.tlb = tlb_->stats();
        for (unsigned s = 0; s < kShapes; ++s) {
            front.groups += measured_[s];
            front.reads += measured_[s] * shapeReads[s];
            front.writes += measured_[s] * shapeWrites[s];
        }
        return front;
    }

    bool pair() const { return pair_; }
    std::size_t consumed() const { return consumed_; }
    Cache *icache() const { return icache_.get(); }
    Cache &dcache() const { return *dcache_; }
    Tlb *tlb() const { return tlb_.get(); }

  private:
    /** One L1 as the scan sees it. */
    struct Port
    {
        Cache *cache = nullptr;
        unsigned blockWords = 0;
        bool prefetch = false;     ///< any prefetch policy
        bool tagged = false;       ///< tagged prefetch
        bool writeThrough = false;
    };

    /** One side's answer within an issue group. */
    struct Side
    {
        HitKind kind = HitKind::Hit;
        bool tlbMiss = false;
        Addr paddr = 0;
    };

    static Port
    port(Cache &cache)
    {
        const CacheConfig &c = cache.config();
        return {&cache, c.blockWords, c.prefetchPolicy != PrefetchPolicy::None,
                c.prefetchPolicy == PrefetchPolicy::Tagged,
                c.writePolicy == WritePolicy::WriteThrough};
    }

    /**
     * Translate and probe one reference (a store when @p Write),
     * then issue the prefetch the answer asks for.  Outcomes go to
     * @p list.  @return whether the side needs the back ends.
     */
    template <bool HasTlb, bool Write>
    [[gnu::always_inline]] inline bool
    probe(const Port &l1, const Ref &ref, Side &side, EventList &list)
    {
        Addr addr = ref.addr;
        Pid pid = ref.pid;
        bool tlb_miss = false;
        if constexpr (HasTlb) {
            Tlb::Translation t = tlb_->translate(ref.addr, ref.pid);
            tlb_miss = !t.hit;
            side.tlbMiss = tlb_miss;
            side.paddr = t.paddr;
            // Physical tags carry no process id.
            addr = t.paddr;
            pid = 0;
        }
        AccessOutcome outcome{AccessOutcome::Uninit{}};
        if constexpr (Write)
            side.kind = l1.cache->writeFast(addr, 1, pid, outcome);
        else
            side.kind = l1.cache->readFast(addr, 1, pid, outcome);
        if (side.kind == HitKind::Hit) [[likely]]
            return tlb_miss || (Write && l1.writeThrough);
        return answer<Write>(l1, addr, pid, side.kind, outcome, list) ||
               tlb_miss;
    }

    /** The rest of probe() for a miss or a prefetched hit. */
    template <bool Write>
    bool
    answer(const Port &l1, Addr addr, Pid pid, HitKind kind,
           const AccessOutcome &outcome, EventList &list)
    {
        // One-block lookahead: after a demand read fill on any
        // prefetching cache, and on the first use of a prefetched
        // block under tagged prefetch.
        auto lookahead = [&] {
            const Addr next = (addr / l1.blockWords + 1) * l1.blockWords;
            list.outcomes.push_back(l1.cache->prefetch(next, pid));
        };
        if (kind == HitKind::Miss) {
            list.outcomes.push_back(outcome);
            if (!Write && l1.prefetch &&
                !(outcome.victimCacheHit && !outcome.filled))
                lookahead();
            return true;
        }
        if (!Write && l1.tagged) {
            lookahead();
            return true;
        }
        return Write && l1.writeThrough;
    }

    /**
     * The scan, with the per-run decisions hoisted into template
     * parameters so the per-reference path re-checks none of them:
     * @tparam Pair   split caches with couplet issue enabled
     * @tparam Split  split I and D caches
     * @tparam HasTlb physical addressing (translate every ref)
     */
    template <bool Pair, bool Split, bool HasTlb>
    void
    scanShape(const Ref *refs, std::size_t n, EventList &list)
    {
        static_assert(Split || !Pair, "paired issue requires a split L1");
        // A unified L1 answers ifetches through the D side's cache.
        const Port iside = iport_;
        const Port dside = dport_;
        const std::size_t base = consumed_;
        std::size_t boundary = window_.boundary();
        Event *const out = list.events.get();
        std::size_t count = 0;
        // Plain hit groups of each shape since the last entry; every
        // index is a constant, so the counts live in registers.
        std::array<std::uint16_t, kShapes> hits{};
        // Close the run of hit groups before pos with an entry.
        auto close = [&](Event::Kind kind, std::size_t pos) -> Event & {
            Event &e = out[count++];
            e.pos = static_cast<std::uint32_t>(pos);
            e.hits = hits;
            e.kind = kind;
            if (measuring_) {
                for (unsigned s = 0; s < kShapes; ++s)
                    measured_[s] += hits[s];
            }
            hits = {};
            return e;
        };

        std::size_t head = 0;
        while (head < n) {
            // Measurement state is decided at issue-group granularity:
            // the state at the group's first reference governs the
            // whole group.
            if (base + head >= boundary) [[unlikely]] {
                bool want = window_.measured(base + head);
                boundary = window_.boundary();
                if (want != measuring_) {
                    close(want ? Event::MeasureOn : Event::MeasureOff, head);
                    if (want) {
                        if (icache_)
                            icache_->resetStats();
                        dcache_->resetStats();
                        if (tlb_)
                            tlb_->resetStats();
                        measured_ = {};
                    } else {
                        list.folds.push_back(counters());
                    }
                    measuring_ = want;
                }
            }

            const std::size_t pos = head;
            const Ref &first = refs[head++];
            Side is;
            Side ds;
            bool islow = false;
            bool dslow = false;
            Shape shape;
            // Each plain group counts under its shape where the shape
            // is known, so no branch re-dispatches on it.
            if (first.kind == RefKind::IFetch) {
                islow = probe<HasTlb, false>(iside, first, is, list);
                if (Pair && head < n && isData(refs[head].kind)) {
                    const Ref &data = refs[head++];
                    if (data.kind == RefKind::Store) {
                        dslow = probe<HasTlb, true>(dside, data, ds, list);
                        shape = IStore;
                        if (!islow && !dslow) [[likely]] {
                            ++hits[IStore];
                            continue;
                        }
                    } else {
                        dslow = probe<HasTlb, false>(dside, data, ds, list);
                        shape = ILoad;
                        if (!islow && !dslow) [[likely]] {
                            ++hits[ILoad];
                            continue;
                        }
                    }
                } else {
                    shape = IAlone;
                    if (!islow) [[likely]] {
                        ++hits[IAlone];
                        continue;
                    }
                }
            } else if (first.kind == RefKind::Store) {
                dslow = probe<HasTlb, true>(dside, first, ds, list);
                shape = Store;
                if (!dslow) [[likely]] {
                    ++hits[Store];
                    continue;
                }
            } else {
                dslow = probe<HasTlb, false>(dside, first, ds, list);
                shape = Load;
                if (!dslow) [[likely]] {
                    ++hits[Load];
                    continue;
                }
            }

            Event &e = close(Event::Group, pos);
            e.shape = shape;
            e.slow = static_cast<std::uint8_t>(
                (islow ? Event::iSide : 0) | (dslow ? Event::dSide : 0));
            e.tlbMiss = static_cast<std::uint8_t>(
                (is.tlbMiss ? Event::iSide : 0) |
                (ds.tlbMiss ? Event::dSide : 0));
            e.ikind = is.kind;
            e.dkind = ds.kind;
            if (measuring_)
                ++measured_[shape];
            if constexpr (HasTlb) {
                if (islow)
                    list.paddrs.push_back(is.paddr);
                if (dslow)
                    list.paddrs.push_back(ds.paddr);
            }
        }
        close(Event::End, n);
        list.count = count;
        consumed_ = base + n;
    }

    SystemConfig config_;
    bool pair_;
    std::unique_ptr<Cache> icache_; ///< null when unified
    std::unique_ptr<Cache> dcache_;
    std::unique_ptr<Tlb> tlb_;      ///< null when virtual
    Port iport_; ///< the I side; the D side's when unified
    Port dport_;

    /** Which positions count (copied by beginRun; sources may die). */
    MeasureWindow window_;
    std::size_t consumed_ = 0; ///< references scanned so far
    bool measuring_ = false;
    /** Measured issue groups of each shape since measure-on. */
    std::array<std::uint64_t, kShapes> measured_{};
};

/**
 * Everything timed: the clock, the L1 busy horizons, the write
 * buffers, the intermediate levels, memory, and the measured result.
 * It replays its front end's events and owns no L1 or TLB.
 */
class System::BackEnd
{
  public:
    explicit BackEnd(const SystemConfig &config) : config_(config)
    {
        config_.validate();
        if (config_.addressing == AddressMode::Physical) {
            // Physical caches tag with the physical address alone.
            config_.icache.virtualTags = false;
            config_.dcache.virtualTags = false;
            config_.l2cache.virtualTags = false;
        }
        physical_ = config_.addressing == AddressMode::Physical;
        pair_ = config_.split && config_.cpu.pairIssue;
        dport_ = {&config_.dcache, config_.split ? "L1D" : "L1"};
        iport_ = config_.split ? L1Port{&config_.icache, "L1I"} : dport_;
        build();
    }

    /**
     * Arm a run over @p source; @p rerun first returns buffers,
     * levels, clock and statistics to the built state.
     */
    void
    beginRun(const RefSource &source, bool rerun)
    {
        if (rerun) {
            // Reallocating the cache arrays here would churn the
            // heap: a SMARTS replay resets once per unit.
            build();
            icacheBusy_ = 0;
            dcacheBusy_ = 0;
            missPenalty_.reset();
            stallRead_ = 0;
            stallWrite_ = 0;
            stallTlb_ = 0;
        }
        result_ = SimResult{};
        result_.traceName = source.name();
        result_.configSummary = config_.describe();
        result_.cycleNs = config_.cycleNs;
        result_.midLevels.resize(midLevels_.size());
        result_.midBuffers.resize(midBuffers_.size());
        result_.physical = physical_;
        now_ = 0;
        segStart_ = 0;
        measuring_ = false;
    }

    /**
     * Time event @p e of the piece refs[0, n): first the run of hit
     * groups from @p from to e.pos, by its shape counts once both busy
     * horizons are at or below the clock and group by group until
     * they are, then the group or edge itself.  @p at walks the
     * piece's side streams.
     */
    [[gnu::always_inline]] inline void
    apply(const Event &e, const Ref *refs, std::size_t n, std::size_t from,
          const EventList &list, Cursor &at)
    {
        Tick &ibusy = config_.split ? icacheBusy_ : dcacheBusy_;
        Tick &dbusy = dcacheBusy_;
        const Tick read = config_.cpu.readHitCycles;
        const Tick write = config_.cpu.writeHitCycles;
        Tick jump = read * (e.hits[IAlone] + e.hits[ILoad] + e.hits[Load]) +
                    std::max(read, write) * e.hits[IStore] +
                    write * e.hits[Store];
        // An early-continuation fill or a prefetch can hold a horizon
        // past the clock; hits wait on it group by group.
        for (std::size_t pos = from;
             (ibusy > now_ || dbusy > now_) && pos < e.pos;) [[unlikely]] {
            const Shape shape = groupAt(refs, n, pos, pair_);
            Tick done;
            if (shape <= IStore) {
                done = hitAt(ibusy, read);
                if (shape != IAlone)
                    done = std::max(
                        done, hitAt(dbusy, shape == IStore ? write : read));
            } else {
                done = hitAt(dbusy, shape == Store ? write : read);
            }
            // What the jump would have charged for this group.
            jump -= shape == IStore ? std::max(read, write)
                    : shape == Store ? write
                                     : read;
            now_ = done;
            pos += shapeRefs[shape];
        }
        now_ += jump;

        switch (e.kind) {
          case Event::Group:
            issueGroup(e, refs + e.pos, list, at);
            break;
          case Event::MeasureOn:
            resetStats();
            segStart_ = now_;
            measuring_ = true;
            break;
          case Event::MeasureOff:
            fold(result_, list.folds[at.fold++]);
            measuring_ = false;
            break;
          case Event::End:
            break;
        }
    }

    /**
     * Fold the measured span ending now into @p result, with the
     * front end's L1 and TLB counters @p front (a single fold over
     * the whole post-warm span when there are no warm segments, so
     * the unsegmented path is bit-identical to reading the stats
     * directly).
     */
    void
    fold(SimResult &result, const FrontCounters &front) const
    {
        result.cycles += now_ - segStart_;
        result.groups += front.groups;
        result.refs += front.reads + front.writes;
        result.readRefs += front.reads;
        result.writeRefs += front.writes;

        result.icache.merge(front.icache);
        result.dcache.merge(front.dcache);
        result.tlb.merge(front.tlb);
        // midLevels_ is ordered memory-first; expose CPU-first.
        for (std::size_t i = midLevels_.size(); i-- > 0;) {
            std::size_t out = midLevels_.size() - 1 - i;
            result.midLevels[out].merge(midLevels_[i]->cache().stats());
            result.midBuffers[out].merge(midBuffers_[i]->stats());
        }
        result.l1Buffer.merge(l1Buffer_->stats());
        result.memory.merge(memory_->stats());
        result.missPenaltyCycles.merge(missPenalty_);
        result.stallReadCycles += stallRead_;
        result.stallWriteCycles += stallWrite_;
        result.stallTlbCycles += stallTlb_;
    }

    /** Fold a measured span still open at the end of the run. */
    void
    finish(const FrontCounters &front)
    {
        if (measuring_) {
            fold(result_, front);
            measuring_ = false;
        }
    }

    /**
     * @return the result so far, @p front the live front end's
     * counters: inside a measured span, fold() applied to a copy of
     * the folded result; outside one the live stats hold leftovers
     * the last fold already took, which the next measure-on edge
     * clears.
     */
    SimResult
    resultSoFar(const FrontCounters &front) const
    {
        SimResult result = result_;
        if (measuring_)
            fold(result, front);
        return result;
    }

    void saveClock(StateWriter &w) const;
    void loadClock(StateReader &r);
    void saveBelow(StateWriter &w) const;
    void loadBelow(StateReader &r);

    const SystemConfig &config() const { return config_; }
    SimResult takeResult() { return std::move(result_); }

  private:
    /** One L1 as the timing code sees it: its config and name. */
    struct L1Port
    {
        const CacheConfig *config = nullptr;
        const char *name = "";
    };

    /**
     * Build memory, then the intermediate levels with their write
     * buffers (memory-first so each level drains into the one
     * below), then the L1 write buffer.  Called again, it rebuilds
     * memory and the buffers and resets each level's cache in place.
     */
    void
    build()
    {
        const bool built = memory_ != nullptr;
        memory_ = std::make_unique<MainMemory>(config_.memory,
                                               config_.cycleNs);
        midBuffers_.clear();
        MemLevel *below = memory_.get();
        auto mids = config_.resolvedMidLevels();
        for (std::size_t i = mids.size(), k = 0; i-- > 0; ++k) {
            std::string name = "L";
            name += std::to_string(i + 2);
            midBuffers_.push_back(std::make_unique<WriteBuffer>(
                mids[i].buffer, below, name + ".wbuf"));
            if (built)
                midLevels_[k]->reset(midBuffers_.back().get());
            else
                midLevels_.push_back(std::make_unique<CacheLevel>(
                    mids[i].cache, mids[i].timing,
                    midBuffers_.back().get(), name));
            below = midLevels_[k].get();
        }
        l1Buffer_ = std::make_unique<WriteBuffer>(config_.l1Buffer, below,
                                                  "L1.wbuf");
        l1Down_ = l1Buffer_.get();
    }

    /** Reset statistics only (measure-on edge). */
    void
    resetStats()
    {
        for (auto &level : midLevels_)
            level->resetStats();
        for (auto &buffer : midBuffers_)
            buffer->resetStats();
        l1Buffer_->resetStats();
        memory_->resetStats();
        missPenalty_.reset();
        // Stall attribution must cover the same window as the cycle
        // count, so the measure-on edge clears it too.
        stallRead_ = 0;
        stallWrite_ = 0;
        stallTlb_ = 0;
    }

    /** A hit issued now on an L1 whose horizon is @p busy. */
    Tick
    hitAt(Tick &busy, Tick cycles)
    {
        Tick done = std::max(now_, busy) + cycles;
        busy = std::max(busy, done);
        return done;
    }

    /**
     * Time the event group @p e, whose references start at @p g: a
     * plain side costs its hit cycles, a slow one goes through the
     * access paths, the I side before the D side, as they issued.
     */
    void
    issueGroup(const Event &e, const Ref *g, const EventList &list,
               Cursor &at)
    {
        Tick &ibusy = config_.split ? icacheBusy_ : dcacheBusy_;
        Tick &dbusy = dcacheBusy_;
        const Tick read = config_.cpu.readHitCycles;
        const Tick write = config_.cpu.writeHitCycles;
        Tick done = 0;
        if (e.shape <= IStore) {
            done = e.slow & Event::iSide
                       ? accessRead(iport_, ibusy, g[0], e.ikind,
                                    e.tlbMiss & Event::iSide, list, at)
                       : hitAt(ibusy, read);
        }
        if (e.shape != IAlone) {
            const Ref &data = g[e.shape <= IStore ? 1 : 0];
            const bool store = data.kind == RefKind::Store;
            const bool tlb_miss = e.tlbMiss & Event::dSide;
            Tick d;
            if (!(e.slow & Event::dSide))
                d = hitAt(dbusy, store ? write : read);
            else if (store)
                d = accessWrite(dport_, dbusy, data, e.dkind, tlb_miss,
                                list, at);
            else
                d = accessRead(dport_, dbusy, data, e.dkind, tlb_miss,
                               list, at);
            done = std::max(done, d);
        }
        if (done <= now_) [[unlikely]]
            panic("System: time failed to advance at piece position %u",
                  e.pos);
        now_ = done;
    }

    /**
     * The start of an access issued now: after the L1's horizon
     * and any TLB refill; @p addr and @p pid become the tags' view.
     */
    Tick
    startAccess(Tick busy, const Ref &ref, bool tlb_miss,
                const EventList &list, Cursor &at, Addr &addr, Pid &pid)
    {
        Tick start = std::max(now_, busy);
        addr = ref.addr;
        pid = ref.pid;
        if (physical_) {
            if (tlb_miss) {
                start += config_.tlb.missPenaltyCycles;
                stallTlb_ += config_.tlb.missPenaltyCycles;
            }
            // Physical tags carry no process id.
            addr = list.paddrs[at.paddr++];
            pid = 0;
        }
        return start;
    }

    /** @return completion time of a read answered @p kind. */
    Tick
    accessRead(const L1Port &l1, Tick &busy, const Ref &ref, HitKind kind,
               bool tlb_miss, const EventList &list, Cursor &at)
    {
        Addr addr;
        Pid pid;
        Tick start = startAccess(busy, ref, tlb_miss, list, at, addr, pid);
        if (kind != HitKind::Miss) {
            Tick done = start + config_.cpu.readHitCycles;
            busy = std::max(busy, done);
            if (kind == HitKind::HitPrefetched &&
                l1.config->prefetchPolicy == PrefetchPolicy::Tagged) {
                // Tagged prefetch: first use of a prefetched block
                // triggers the next lookahead.
                prefetch(l1, busy, pid, done, list.outcomes[at.outcome++]);
            }
            return done;
        }
        const AccessOutcome &outcome = list.outcomes[at.outcome++];
        return readMissTail(l1, busy, addr, pid, start, outcome, list, at);
    }

    /** Victim-swap / fetch / early-continuation miss timing. */
    Tick
    readMissTail(const L1Port &l1, Tick &busy, Addr addr, Pid pid,
                 Tick start, const AccessOutcome &outcome,
                 const EventList &list, Cursor &at)
    {
        if (outcome.victimCacheHit && !outcome.filled) {
            // Victim-cache swap: a short fixed penalty instead of the
            // memory round trip; a dirty castout still drains below.
            Tick done = start + config_.cpu.readHitCycles +
                        config_.cpu.victimSwapCycles;
            if (outcome.victimDirty) {
                l1Down_->writeBlock(done, outcome.victimBlockAddr,
                                    l1.config->blockWords,
                                    outcome.victimPid);
            }
            busy = std::max(busy, done);
            missPenalty_.sample(static_cast<std::uint64_t>(done - start));
            stallRead_ += done - start - config_.cpu.readHitCycles;
            CACHETIME_TRACE_EVENT(
                trace_debug::Cache,
                "%s t=%llu read victim-hit addr=%llx latency=%llu",
                l1.name, static_cast<unsigned long long>(start),
                static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(done - start));
            return done;
        }

        // Miss: the tag probe costs the hit time, then the fetch goes
        // down through the write buffer (which checks for stale data).
        Tick request = start + config_.cpu.readHitCycles;
        ReadReply reply =
            l1Down_->readBlock(request, outcome.fetchAddr,
                               outcome.fetchedWords,
                               outcome.fetchCriticalOffset, pid);

        // Dirty victim: extracted over a one-word-wide path during the
        // memory latency; write-back is hidden iff the latency covers
        // the block transfer into the buffer.
        Tick victim_ready = request;
        if (outcome.victimDirty) {
            unsigned block = l1.config->blockWords;
            victim_ready = request + block; // one word per cycle
            Tick stall = l1Down_->writeBlock(
                victim_ready, outcome.victimBlockAddr, block,
                outcome.victimPid);
            victim_ready = std::max(victim_ready, stall);
        }

        Tick fill_done = std::max(reply.complete, victim_ready);
        busy = std::max(busy, fill_done);
        missPenalty_.sample(static_cast<std::uint64_t>(fill_done - start));

        Tick done = fill_done;
        if (config_.cpu.earlyContinuation) {
            // Resume on the demanded word; unless the memory streams
            // data to CPU and cache simultaneously, one extra forward
            // cycle is charged.
            Tick resume = reply.criticalWord +
                          (config_.memory.streaming ? 0 : 1);
            resume = std::max(resume, victim_ready);
            done = std::min(resume, fill_done);
        }
        stallRead_ += done - start - config_.cpu.readHitCycles;
        CACHETIME_TRACE_EVENT(
            trace_debug::Cache,
            "%s t=%llu read miss%s addr=%llx latency=%llu%s",
            l1.name, static_cast<unsigned long long>(start),
            outcome.tagMatch ? " (sub-block)" : "",
            static_cast<unsigned long long>(addr),
            static_cast<unsigned long long>(done - start),
            outcome.victimDirty ? " writeback" : "");
        if (l1.config->prefetchPolicy != PrefetchPolicy::None) {
            // One-block lookahead behind the demand fill.
            prefetch(l1, busy, pid, fill_done,
                     list.outcomes[at.outcome++]);
        }
        return done;
    }

    /**
     * Time a one-block-lookahead prefetch the front end issued,
     * answered @p outcome.  The fetch occupies the downstream path
     * and the cache's fill port, but the CPU does not wait for it.
     */
    void
    prefetch(const L1Port &l1, Tick &busy, Pid pid, Tick when,
             const AccessOutcome &outcome)
    {
        if (!outcome.filled)
            return; // already resident
        ReadReply reply = l1Down_->readBlock(when, outcome.fetchAddr,
                                             outcome.fetchedWords, 0, pid);
        Tick victim_ready = when;
        if (outcome.victimDirty) {
            const unsigned block = l1.config->blockWords;
            victim_ready = when + block;
            Tick stall = l1Down_->writeBlock(
                victim_ready, outcome.victimBlockAddr, block,
                outcome.victimPid);
            victim_ready = std::max(victim_ready, stall);
        }
        // The fill port stays busy; the CPU does not wait.
        busy = std::max(busy, std::max(reply.complete, victim_ready));
    }

    /** @return completion time of a write answered @p kind. */
    Tick
    accessWrite(const L1Port &l1, Tick &busy, const Ref &ref, HitKind kind,
                bool tlb_miss, const EventList &list, Cursor &at)
    {
        Addr addr;
        Pid pid;
        Tick start = startAccess(busy, ref, tlb_miss, list, at, addr, pid);
        Tick done = start + config_.cpu.writeHitCycles;
        if (kind != HitKind::Miss) {
            if (l1.config->writePolicy == WritePolicy::WriteThrough) {
                Tick stall = l1Down_->writeBlock(done, addr, 1, pid);
                done = std::max(done, stall);
            }
            busy = std::max(busy, done);
            stallWrite_ += done - start - config_.cpu.writeHitCycles;
            return done;
        }
        return writeMissTail(l1, busy, addr, pid, start,
                             list.outcomes[at.outcome++]);
    }

    /** Victim-swap / no-allocate / write-allocate miss timing. */
    Tick
    writeMissTail(const L1Port &l1, Tick &busy, Addr addr, Pid pid,
                  Tick start, const AccessOutcome &outcome)
    {
        Tick done = start + config_.cpu.writeHitCycles;

        if (outcome.victimCacheHit && !outcome.filled) {
            // The store landed in a block swapped back from the victim
            // cache; only the swap penalty (and any castout) is paid.
            done += config_.cpu.victimSwapCycles;
            if (outcome.victimDirty) {
                l1Down_->writeBlock(done, outcome.victimBlockAddr,
                                    l1.config->blockWords,
                                    outcome.victimPid);
            }
            busy = std::max(busy, done);
            stallWrite_ += done - start - config_.cpu.writeHitCycles;
            return done;
        }

        if (!outcome.filled) {
            // No-write-allocate: the word goes straight down.
            Tick stall = l1Down_->writeBlock(done, addr, 1, pid);
            done = std::max(done, stall);
            busy = std::max(busy, done);
            stallWrite_ += done - start - config_.cpu.writeHitCycles;
            CACHETIME_TRACE_EVENT(
                trace_debug::Cache,
                "%s t=%llu write miss (no-allocate) addr=%llx "
                "latency=%llu",
                l1.name, static_cast<unsigned long long>(start),
                static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(done - start));
            return done;
        }

        // Write-allocate: fetch the block, then complete the write.
        Tick request = start + config_.cpu.readHitCycles;
        ReadReply reply =
            l1Down_->readBlock(request, outcome.fetchAddr,
                               outcome.fetchedWords,
                               outcome.fetchCriticalOffset, pid);
        Tick victim_ready = request;
        if (outcome.victimDirty) {
            unsigned block = l1.config->blockWords;
            victim_ready = request + block;
            Tick stall = l1Down_->writeBlock(
                victim_ready, outcome.victimBlockAddr, block,
                outcome.victimPid);
            victim_ready = std::max(victim_ready, stall);
        }
        done = std::max(reply.complete, victim_ready) + 1;
        if (l1.config->writePolicy == WritePolicy::WriteThrough) {
            Tick stall = l1Down_->writeBlock(done, addr, 1, pid);
            done = std::max(done, stall);
        }
        busy = std::max(busy, done);
        stallWrite_ += done - start - config_.cpu.writeHitCycles;
        CACHETIME_TRACE_EVENT(
            trace_debug::Cache,
            "%s t=%llu write miss (allocate) addr=%llx latency=%llu%s",
            l1.name, static_cast<unsigned long long>(start),
            static_cast<unsigned long long>(addr),
            static_cast<unsigned long long>(done - start),
            outcome.victimDirty ? " writeback" : "");
        return done;
    }

    SystemConfig config_;
    bool physical_ = false;
    bool pair_ = false;
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

    Tick now_ = 0;           ///< simulated clock
    Tick segStart_ = 0;      ///< clock at measure-on
    bool measuring_ = false; ///< inside a measured span

    SimResult result_; ///< accumulating result of the armed run
};

namespace
{

/** @return true when @p tag (4 raw bytes) equals literal @p want. */
bool
tagIs(const std::string &tag, const char want[4])
{
    return tag.size() == 4 && std::memcmp(tag.data(), want, 4) == 0;
}

/** beginSection and fatal() unless the tag is @p want. */
void
expectSection(StateReader &r, const char want[4])
{
    std::string tag = r.beginSection();
    if (!tagIs(tag, want))
        fatal("checkpoint state: expected section '%s', found '%s'",
              want, tag.c_str());
}

} // namespace

void
System::BackEnd::saveClock(StateWriter &w) const
{
    w.beginSection("CLK");
    w.u64(static_cast<std::uint64_t>(now_));
    w.u64(static_cast<std::uint64_t>(icacheBusy_));
    w.u64(static_cast<std::uint64_t>(dcacheBusy_));
    w.endSection();
}

void
System::BackEnd::loadClock(StateReader &r)
{
    expectSection(r, "CLK");
    now_ = static_cast<Tick>(r.u64());
    icacheBusy_ = static_cast<Tick>(r.u64());
    dcacheBusy_ = static_cast<Tick>(r.u64());
    r.endSection();
}

void
System::BackEnd::saveBelow(StateWriter &w) const
{
    w.beginSection("WB1");
    l1Buffer_->saveState(w);
    w.endSection();
    w.beginSection("MID");
    w.u64(midLevels_.size());
    for (std::size_t i = 0; i < midLevels_.size(); ++i) {
        midBuffers_[i]->saveState(w);
        midLevels_[i]->saveState(w);
    }
    w.endSection();
    w.beginSection("MEM");
    memory_->saveState(w);
    w.endSection();
}

void
System::BackEnd::loadBelow(StateReader &r)
{
    expectSection(r, "WB1");
    l1Buffer_->loadState(r);
    r.endSection();
    expectSection(r, "MID");
    std::uint64_t mids = r.u64();
    if (mids != midLevels_.size())
        fatal("checkpoint state: %llu intermediate levels, this "
              "machine has %zu (config mismatch)",
              static_cast<unsigned long long>(mids), midLevels_.size());
    for (std::size_t i = 0; i < midLevels_.size(); ++i) {
        midBuffers_[i]->loadState(r);
        midLevels_[i]->loadState(r);
    }
    r.endSection();
    expectSection(r, "MEM");
    memory_->loadState(r);
    r.endSection();
}

System::System(const SystemConfig &config)
    : System(std::span<const SystemConfig>(&config, 1))
{
}

System::System(std::span<const SystemConfig> group)
{
    if (group.empty())
        panic("System: a machine needs a config");
    backs_.push_back(std::make_unique<BackEnd>(group.front()));
    // The front end reads the first back end's config, whose caches
    // take physical tags under physical addressing.
    front_ = std::make_unique<FrontEnd>(backs_.front()->config());
    for (const SystemConfig &config : group.subspan(1)) {
        if (config.coherent() ||
            frontEndKey(config) != frontEndKey(group.front()))
            panic("System: %s cannot share the front end of %s",
                  config.describe().c_str(),
                  group.front().describe().c_str());
        backs_.push_back(std::make_unique<BackEnd>(config));
    }
}

System::~System() = default;

const SystemConfig &
System::config() const
{
    return backs_.front()->config();
}

void
System::requireLone(const char *what) const
{
    if (backs_.size() != 1)
        panic("System: %s needs a machine with one back end, this one "
              "has %zu",
              what, backs_.size());
}

void
System::setIntervalCollector(IntervalCollector *collector)
{
    requireLone("setIntervalCollector");
    interval_ = collector;
}

void
System::beginRun(const RefSource &source)
{
    // A fresh machine is in its built state already; only one that
    // has run is rebuilt.
    const bool rerun = ran_;
    ran_ = true;
    CACHETIME_TRACE_EVENT(
        trace_debug::Sim, "run start trace=%s refs=%llu warm=%zu",
        source.name().c_str(),
        static_cast<unsigned long long>(source.size()),
        source.warmStart());
    front_->beginRun(source, rerun);
    for (auto &back : backs_)
        back->beginRun(source, rerun);
    scannedRefs_ = 0;
    replayedEvents_ = 0;
    if (interval_) {
        interval_->beginRun(source.name());
        nextIntervalBoundary_ = interval_->firstBoundaryAfter(0);
    }
}

void
System::issue(const Ref *refs, std::size_t n)
{
    // The list lives only within this call, so one per thread serves
    // every machine the thread runs: a lone machine holds none.
    static thread_local EventList list;
    if (n > refChunkSize + 1)
        panic("System: a piece of %zu references outgrows the event list",
              n);
    list.clear();
    front_->scan(refs, n, list);
    // Event-major: each event goes to every back end before the
    // next, so the list is read once and the back ends take one
    // event's branches in a row.
    Cursor at;
    std::size_t from = 0;
    for (std::size_t k = 0; k < list.count; ++k) {
        const Event &e = list.events[k];
        Cursor next;
        for (auto &back : backs_) {
            next = at;
            back->apply(e, refs, n, from, list, next);
        }
        at = next;
        from = e.pos + (e.kind == Event::Group ? shapeRefs[e.shape] : 0);
    }
    scannedRefs_ += n;
    // Every list ends with its End entry, which is no event.
    replayedEvents_ += (list.count - 1) * backs_.size();
}

void
System::feedChunk(const Ref *refs, std::size_t n)
{
    const bool pair = front_->pair();
    while (n != 0) {
        // A piece holds at most one span, which bounds the event
        // list; a ChunkFeeder span is one piece.
        std::size_t take = n > refChunkSize + 1 ? refChunkSize : n;
        if (interval_ && nextIntervalBoundary_ > front_->consumed()) {
            std::uint64_t room = nextIntervalBoundary_ - front_->consumed();
            if (room < take)
                take = static_cast<std::size_t>(room);
        }
        // A piece may end one reference late, never inside a
        // couplet, so every pairing decision matches the uncut
        // stream.
        take = coupletSafeCut(refs, n, take, pair);
        issue(refs, take);
        refs += take;
        n -= take;
        if (interval_ && front_->consumed() >= nextIntervalBoundary_) {
            interval_->atBoundary(
                front_->consumed(),
                backs_.front()->resultSoFar(front_->counters())
                    .intervalCounters());
            nextIntervalBoundary_ =
                interval_->firstBoundaryAfter(front_->consumed());
        }
    }
}

std::vector<SimResult>
System::endRuns()
{
    const FrontCounters front = front_->counters();
    std::vector<SimResult> out;
    out.reserve(backs_.size());
    for (auto &back : backs_) {
        back->finish(front);
        out.push_back(back->takeResult());
        CACHETIME_TRACE_EVENT(
            trace_debug::Sim, "run end trace=%s cycles=%llu refs=%llu",
            out.back().traceName.c_str(),
            static_cast<unsigned long long>(out.back().cycles),
            static_cast<unsigned long long>(out.back().refs));
    }
    if (interval_)
        interval_->endRun(front_->consumed(),
                          out.front().intervalCounters());
    return out;
}

SimResult
System::endRun()
{
    requireLone("endRun");
    return std::move(endRuns().front());
}

std::uint64_t
System::scannedRefs() const
{
    return scannedRefs_;
}

std::uint64_t
System::replayedEvents() const
{
    return replayedEvents_;
}

void
System::captureState(StateWriter &w) const
{
    requireLone("captureState");
    backs_.front()->saveClock(w);
    if (Cache *icache = front_->icache()) {
        w.beginSection("L1I");
        icache->saveState(w);
        w.endSection();
    }
    w.beginSection("L1D");
    front_->dcache().saveState(w);
    w.endSection();
    if (Tlb *tlb = front_->tlb()) {
        w.beginSection("TLB");
        tlb->saveState(w);
        w.endSection();
    }
    backs_.front()->saveBelow(w);
}

void
System::restoreState(StateReader &r)
{
    requireLone("restoreState");
    backs_.front()->loadClock(r);
    if (Cache *icache = front_->icache()) {
        expectSection(r, "L1I");
        icache->loadState(r);
        r.endSection();
    }
    expectSection(r, "L1D");
    front_->dcache().loadState(r);
    r.endSection();
    if (Tlb *tlb = front_->tlb()) {
        expectSection(r, "TLB");
        tlb->loadState(r);
        r.endSection();
    }
    backs_.front()->loadBelow(r);
}

void
System::restoreWarmState(StateReader &r)
{
    requireLone("restoreWarmState");
    Cache *icache = front_->icache();
    Tlb *tlb = front_->tlb();
    bool saw_d = false;
    bool saw_i = false;
    bool saw_tlb = false;
    while (r.remaining() > 0) {
        std::string tag = r.beginSection();
        if (tagIs(tag, "L1I")) {
            if (!icache)
                fatal("checkpoint warm state has a split L1, this "
                      "machine is unified (warm-key mismatch)");
            icache->loadState(r);
            r.endSection();
            saw_i = true;
        } else if (tagIs(tag, "L1D")) {
            front_->dcache().loadState(r);
            r.endSection();
            saw_d = true;
        } else if (tagIs(tag, "TLB")) {
            if (!tlb)
                fatal("checkpoint warm state has a TLB, this machine "
                      "is virtually addressed (warm-key mismatch)");
            tlb->loadState(r);
            r.endSection();
            saw_tlb = true;
        } else {
            // Timing-entangled sections (clock, buffers, L2, memory)
            // are deliberately not restored across configs.
            r.skipSection();
        }
    }
    if (!saw_d || (icache && !saw_i) || (tlb && !saw_tlb))
        fatal("checkpoint warm state is missing a cache/TLB section "
              "(corrupt or warm-key mismatch)");
}

} // namespace cachetime
