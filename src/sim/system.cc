#include "sim/system.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "core/sim_cache.hh" // frontEndKey
#include "stats/interval.hh"
#include "trace_debug/trace_debug.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace cachetime
{

/** A front end's L1 and TLB counters at one measure-off fold. */
struct System::FrontCounters
{
    CacheStats icache;
    CacheStats dcache;
    TlbStats tlb;
};

/**
 * Everything a leader's timing code read from its front end during
 * the current span, one stream per kind of answer, each in call
 * order.  The leader clears it at every span start and each follower
 * replays the span from the top, so it holds one span: about
 * refChunkSize demand answers, the span's translations, and an
 * outcome per miss or prefetch.
 */
struct System::FrontTape
{
    std::vector<HitKind> kinds;          ///< every readFast/writeFast
    std::vector<AccessOutcome> outcomes; ///< every miss and prefetch
    std::vector<Tlb::Translation> translations;
    /** Every fold of the span, then the end-of-run fold. */
    std::vector<FrontCounters> folds;

    void
    clear()
    {
        kinds.clear();
        outcomes.clear();
        translations.clear();
        folds.clear();
    }
};

System::System(const SystemConfig &config) : System(config, nullptr) {}

System::System(const SystemConfig &config, std::shared_ptr<FrontTape> tape)
    : config_(config),
      mode_(tape ? FrontMode::Follow : FrontMode::Own),
      tape_(std::move(tape))
{
    config_.validate();

    if (config_.addressing == AddressMode::Physical) {
        // Physical caches tag with the physical address alone.
        config_.icache.virtualTags = false;
        config_.dcache.virtualTags = false;
        config_.l2cache.virtualTags = false;
    }
    buildHierarchy();
}

std::unique_ptr<System>
System::follower(const SystemConfig &config)
{
    if (mode_ == FrontMode::Follow || ran_)
        panic("System: only a machine that owns its front end and has "
              "not run yet can lead");
    if (config.coherent() || frontEndKey(config) != frontEndKey(config_))
        panic("System: %s cannot follow the front end of %s",
              config.describe().c_str(), config_.describe().c_str());
    if (!tape_) {
        tape_ = std::make_shared<FrontTape>();
        mode_ = FrontMode::Lead;
    }
    return std::unique_ptr<System>(new System(config, tape_));
}

void
System::requireFront(const char *what) const
{
    if (mode_ == FrontMode::Follow)
        panic("System: %s needs the L1s and TLB a follower does not own",
              what);
}

void
System::setIntervalCollector(IntervalCollector *collector)
{
    requireFront("setIntervalCollector");
    interval_ = collector;
}

void
System::buildHierarchy()
{
    // Memory, the write buffers and the TLB are small and built
    // afresh.  A cache an earlier call built is reset in place
    // instead, so a machine that runs many streams allocates its
    // cache arrays once.
    const bool built = memory_ != nullptr;
    memory_ = std::make_unique<MainMemory>(config_.memory,
                                           config_.cycleNs);
    midBuffers_.clear();
    MemLevel *below = memory_.get();
    auto mids = config_.resolvedMidLevels();
    // Build from the memory upward so each level drains into the
    // one below through its own write buffer.
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
    l1Buffer_ = std::make_unique<WriteBuffer>(config_.l1Buffer,
                                              below, "L1.wbuf");
    l1Down_ = l1Buffer_.get();

    const char *dname = config_.split ? "L1D" : "L1";
    if (mode_ != FrontMode::Follow) {
        if (config_.addressing == AddressMode::Physical)
            tlb_ = std::make_unique<Tlb>(config_.tlb);
        if (built) {
            if (icache_)
                icache_->reset();
            dcache_->reset();
        } else {
            if (config_.split)
                icache_ =
                    std::make_unique<Cache>(config_.icache, "L1I");
            dcache_ = std::make_unique<Cache>(config_.dcache, dname);
        }
    }
    dport_ = {dcache_.get(), &config_.dcache, dname};
    iport_ = config_.split ? L1Port{icache_.get(), &config_.icache, "L1I"}
                           : dport_;
}

void
System::reset()
{
    // Reallocating the cache arrays here would churn the heap: a
    // SMARTS replay resets once per unit, and machines running
    // concurrently leave the freed blocks as retained memory.
    buildHierarchy();
    icacheBusy_ = 0;
    dcacheBusy_ = 0;
    missPenalty_.reset();
    stallRead_ = 0;
    stallWrite_ = 0;
    stallTlb_ = 0;
}

void
System::resetStats()
{
    // A follower's L1 and TLB counters arrive per fold on the tape.
    if (icache_)
        icache_->resetStats();
    if (dcache_)
        dcache_->resetStats();
    for (auto &level : midLevels_)
        level->resetStats();
    for (auto &buffer : midBuffers_)
        buffer->resetStats();
    l1Buffer_->resetStats();
    memory_->resetStats();
    if (tlb_)
        tlb_->resetStats();
    missPenalty_.reset();
    // Stall attribution must cover the same window as the cycle
    // count, so the warm-start boundary clears it too.
    stallRead_ = 0;
    stallWrite_ = 0;
    stallTlb_ = 0;
}

template <FrontMode Mode, bool Write>
HitKind
System::probe(const L1Port &l1, Addr addr, Pid pid, AccessOutcome &outcome)
{
    if constexpr (Mode == FrontMode::Follow) {
        HitKind kind = tape_->kinds[cursor_.kind++];
        if (kind == HitKind::Miss)
            outcome = tape_->outcomes[cursor_.outcome++];
        return kind;
    } else {
        HitKind kind;
        if constexpr (Write)
            kind = l1.cache->writeFast(addr, 1, pid, outcome);
        else
            kind = l1.cache->readFast(addr, 1, pid, outcome);
        if constexpr (Mode == FrontMode::Lead) {
            tape_->kinds.push_back(kind);
            if (kind == HitKind::Miss)
                tape_->outcomes.push_back(outcome);
        }
        return kind;
    }
}

template <FrontMode Mode>
Tlb::Translation
System::translate(const Ref &ref)
{
    if constexpr (Mode == FrontMode::Follow) {
        return tape_->translations[cursor_.translation++];
    } else {
        Tlb::Translation t = tlb_->translate(ref.addr, ref.pid);
        if constexpr (Mode == FrontMode::Lead)
            tape_->translations.push_back(t);
        return t;
    }
}

template <FrontMode Mode>
void
System::maybePrefetch(const L1Port &l1, Tick &busy, Addr addr, Pid pid,
                      Tick when)
{
    const unsigned block = l1.config->blockWords;
    Addr next = (addr / block + 1) * block;
    AccessOutcome outcome{AccessOutcome::Uninit{}};
    if constexpr (Mode == FrontMode::Follow) {
        outcome = tape_->outcomes[cursor_.outcome++];
    } else {
        outcome = l1.cache->prefetch(next, pid);
        if constexpr (Mode == FrontMode::Lead)
            tape_->outcomes.push_back(outcome);
    }
    if (!outcome.filled)
        return; // already resident
    ReadReply reply = l1Down_->readBlock(when, outcome.fetchAddr,
                                         outcome.fetchedWords, 0,
                                         pid);
    Tick victim_ready = when;
    if (outcome.victimDirty) {
        victim_ready = when + block;
        Tick stall = l1Down_->writeBlock(
            victim_ready, outcome.victimBlockAddr, block,
            outcome.victimPid);
        victim_ready = std::max(victim_ready, stall);
    }
    // The fill port stays busy; the CPU does not wait.
    busy = std::max(busy, std::max(reply.complete, victim_ready));
}

template <bool HasTlb, FrontMode Mode>
Tick
System::accessRead(const L1Port &l1, Tick &busy, const Ref &ref,
                   Tick issue)
{
    Tick start = std::max(issue, busy);
    Pid pid = ref.pid;
    Addr addr = ref.addr;
    if constexpr (HasTlb) {
        Tlb::Translation t = translate<Mode>(ref);
        if (!t.hit) {
            start += config_.tlb.missPenaltyCycles;
            stallTlb_ += config_.tlb.missPenaltyCycles;
        }
        // Physical tags carry no process id.
        pid = 0;
        addr = t.paddr;
    }

    AccessOutcome outcome{AccessOutcome::Uninit{}};
    HitKind kind = probe<Mode, false>(l1, addr, pid, outcome);
    if (kind != HitKind::Miss) [[likely]] {
        // Hit fast path: the outcome was never written; only the
        // one-byte discriminant came back.
        Tick done = start + config_.cpu.readHitCycles;
        busy = std::max(busy, done);
        if (kind == HitKind::HitPrefetched &&
            l1.config->prefetchPolicy == PrefetchPolicy::Tagged)
            [[unlikely]] {
            // Tagged prefetch: first use of a prefetched block
            // triggers the next lookahead.
            maybePrefetch<Mode>(l1, busy, addr, pid, done);
        }
        return done;
    }

    return readMissTail<Mode>(l1, busy, addr, pid, start, outcome);
}

template <FrontMode Mode>
Tick
System::readMissTail(const L1Port &l1, Tick &busy, Addr addr, Pid pid,
                     Tick start, AccessOutcome &outcome)
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
        missPenalty_.sample(
            static_cast<std::uint64_t>(done - start));
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
        maybePrefetch<Mode>(l1, busy, addr, pid, fill_done);
    }
    return done;
}

template <bool HasTlb, FrontMode Mode>
Tick
System::accessWrite(const L1Port &l1, Tick &busy, const Ref &ref,
                    Tick issue)
{
    Tick start = std::max(issue, busy);
    Pid pid = ref.pid;
    Addr addr = ref.addr;
    if constexpr (HasTlb) {
        Tlb::Translation t = translate<Mode>(ref);
        if (!t.hit) {
            start += config_.tlb.missPenaltyCycles;
            stallTlb_ += config_.tlb.missPenaltyCycles;
        }
        // Physical tags carry no process id.
        pid = 0;
        addr = t.paddr;
    }

    AccessOutcome outcome{AccessOutcome::Uninit{}};
    HitKind kind = probe<Mode, true>(l1, addr, pid, outcome);
    Tick done = start + config_.cpu.writeHitCycles;

    if (kind != HitKind::Miss) [[likely]] {
        if (l1.config->writePolicy == WritePolicy::WriteThrough) {
            Tick stall =
                l1Down_->writeBlock(done, addr, 1, pid);
            done = std::max(done, stall);
        }
        busy = std::max(busy, done);
        stallWrite_ += done - start - config_.cpu.writeHitCycles;
        return done;
    }

    return writeMissTail<Mode>(l1, busy, addr, pid, start, outcome);
}

template <FrontMode Mode>
Tick
System::writeMissTail(const L1Port &l1, Tick &busy, Addr addr, Pid pid,
                      Tick start, AccessOutcome &outcome)
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

void
System::foldMeasured(Tick now)
{
    // Fold the current measured span's component counters into the
    // accumulated result (a single fold over the whole post-warm
    // span when there are no warm segments, so the unsegmented path
    // is bit-identical to reading the stats directly).
    result_.cycles += now - progress_.segStart;
    result_.groups += progress_.groups;
    result_.refs += progress_.reads + progress_.writes;
    result_.readRefs += progress_.reads;
    result_.writeRefs += progress_.writes;
    progress_.groups = progress_.reads = progress_.writes = 0;

    // The front end's counters; absent components stay zero.
    FrontCounters front;
    if (mode_ == FrontMode::Follow) {
        if (cursor_.fold == tape_->folds.size())
            panic("System: a follower folded where its leader did not");
        front = tape_->folds[cursor_.fold++];
    } else {
        if (icache_)
            front.icache = icache_->stats();
        front.dcache = dcache_->stats();
        if (tlb_)
            front.tlb = tlb_->stats();
        if (mode_ == FrontMode::Lead)
            tape_->folds.push_back(front);
    }
    result_.icache.merge(front.icache);
    result_.dcache.merge(front.dcache);
    result_.tlb.merge(front.tlb);
    // midLevels_ is ordered memory-first; expose CPU-first.
    for (std::size_t i = midLevels_.size(); i-- > 0;) {
        std::size_t out = midLevels_.size() - 1 - i;
        result_.midLevels[out].merge(midLevels_[i]->cache().stats());
        result_.midBuffers[out].merge(midBuffers_[i]->stats());
    }
    result_.l1Buffer.merge(l1Buffer_->stats());
    result_.memory.merge(memory_->stats());
    result_.missPenaltyCycles.merge(missPenalty_);
    result_.stallReadCycles += stallRead_;
    result_.stallWriteCycles += stallWrite_;
    result_.stallTlbCycles += stallTlb_;
}

template <bool Pair, bool Split, bool HasTlb, FrontMode Mode>
void
System::consumeChunk(const Ref *buffer, std::size_t n)
{
    static_assert(Split || !Pair, "paired issue requires a split L1");
    const L1Port iside = iport_;
    const L1Port dside = dport_;
    // Busy horizons live in locals for the duration of the span so
    // the per-access load/max/store cycle stays in registers; they
    // are written back below for the next span and for drain().
    // Unified caches share one port, so ifetches contend on the same
    // horizon as data references - with Split known at compile time
    // the aliasing is resolved here instead of per access.
    Tick ibusyLocal = Split ? icacheBusy_ : 0;
    Tick dbusyLocal = dcacheBusy_;
    Tick &ibusy = Split ? ibusyLocal : dbusyLocal;
    Tick &dbusy = dbusyLocal;

    // Cross-span progress is staged through locals so the
    // steady-state loop runs out of registers; the per-span
    // load/store is negligible against refChunkSize references.
    std::size_t head = 0;
    std::size_t consumed = progress_.consumed;
    Tick now = progress_.now;
    bool measuring = progress_.measuring;
    // Measurement state changes only at the window's boundary, so
    // the steady-state loop pays one compare per group.
    MeasureWindow &window = progress_.window;
    std::size_t boundary = window.boundary();
    std::uint64_t groups = progress_.groups;
    std::uint64_t reads = progress_.reads;
    std::uint64_t writes = progress_.writes;

    while (head < n) {
        // Measurement state is decided at issue-group granularity:
        // the state at the group's first reference governs the whole
        // group (the warm-start boundary has always worked this way).
        if (consumed >= boundary) [[unlikely]] {
            bool want = window.measured(consumed);
            boundary = window.boundary();
            if (want != measuring) {
                if (want) {
                    resetStats();
                    progress_.segStart = now;
                } else {
                    progress_.groups = groups;
                    progress_.reads = reads;
                    progress_.writes = writes;
                    foldMeasured(now);
                    groups = reads = writes = 0;
                }
                measuring = want;
            }
        }

        const Ref &first = buffer[head];
        std::uint64_t greads = 0;
        std::uint64_t gwrites = 0;
        Tick done;
        if (first.kind == RefKind::IFetch) {
            ++greads;
            done = accessRead<HasTlb, Mode>(iside, ibusy, first, now);
            ++head;
            ++consumed;
            if (Pair && head < n && isData(buffer[head].kind)) {
                const Ref &data = buffer[head];
                Tick d;
                if (data.kind == RefKind::Store) {
                    ++gwrites;
                    d = accessWrite<HasTlb, Mode>(dside, dbusy, data,
                                                  now);
                } else {
                    ++greads;
                    d = accessRead<HasTlb, Mode>(dside, dbusy, data,
                                                 now);
                }
                done = std::max(done, d);
                ++head;
                ++consumed;
            }
        } else if (first.kind == RefKind::Store) {
            ++gwrites;
            done = accessWrite<HasTlb, Mode>(dside, dbusy, first, now);
            ++head;
            ++consumed;
        } else {
            ++greads;
            done = accessRead<HasTlb, Mode>(dside, dbusy, first, now);
            ++head;
            ++consumed;
        }
        if (done <= now) [[unlikely]]
            panic("System: time failed to advance at ref %zu",
                  consumed);
        now = done;

        if (measuring) [[likely]] {
            ++groups;
            reads += greads;
            writes += gwrites;
        }
    }

    progress_.consumed = consumed;
    progress_.now = now;
    progress_.measuring = measuring;
    progress_.groups = groups;
    progress_.reads = reads;
    progress_.writes = writes;
    if (Split)
        icacheBusy_ = ibusyLocal;
    dcacheBusy_ = dbusyLocal;
}

void
System::beginRun(const RefSource &source)
{
    // A fresh machine is in its built state already; only one that
    // has run is rebuilt.
    if (ran_)
        reset();
    ran_ = true;
    CACHETIME_TRACE_EVENT(
        trace_debug::Sim, "run start trace=%s refs=%llu warm=%zu",
        source.name().c_str(),
        static_cast<unsigned long long>(source.size()),
        source.warmStart());

    result_ = SimResult{};
    result_.traceName = source.name();
    result_.configSummary = config_.describe();
    result_.cycleNs = config_.cycleNs;
    result_.midLevels.resize(midLevels_.size());
    result_.midBuffers.resize(midBuffers_.size());
    result_.physical = config_.addressing == AddressMode::Physical;

    progress_ = RunProgress{};
    progress_.window =
        MeasureWindow(source.warmStart(), source.warmSegments());
    // Hoist the per-run decisions out of the reference loop: each
    // span dispatches to a dedicated instantiation whose
    // per-reference path re-checks none of them.
    runPair_ = config_.split && config_.cpu.pairIssue;

    if (interval_) {
        interval_->beginRun(result_.traceName);
        nextIntervalBoundary_ = interval_->firstBoundaryAfter(0);
    }
}

IntervalCounters
System::captureIntervalCounters() const
{
    IntervalCounters c;
    const bool measuring = progress_.measuring;
    c.refs = result_.refs + progress_.reads + progress_.writes;
    c.readRefs = result_.readRefs + progress_.reads;
    c.writeRefs = result_.writeRefs + progress_.writes;
    c.groups = result_.groups + progress_.groups;
    c.cycles =
        result_.cycles +
        (measuring ? progress_.now - progress_.segStart : Tick{0});

    // Folded counters plus, inside a measured span, the live
    // component stats (foldMeasured() has not seen them yet; outside
    // a span the live structs hold already-folded leftovers that
    // the next measure-on resetStats() will clear).
    CacheStats ic = result_.icache;
    CacheStats dc = result_.dcache;
    WriteBufferStats wb = result_.l1Buffer;
    TlbStats tlb = result_.tlb;
    MainMemoryStats mem = result_.memory;
    if (measuring) {
        if (config_.split)
            ic.merge(icache_->stats());
        dc.merge(dcache_->stats());
        wb.merge(l1Buffer_->stats());
        if (tlb_)
            tlb.merge(tlb_->stats());
        mem.merge(memory_->stats());
    }
    if (config_.split) {
        c.ifetchAccesses = ic.readAccesses;
        c.ifetchMisses = ic.readMisses;
    }
    c.readAccesses = dc.readAccesses;
    c.readMisses = dc.readMisses;
    c.writeAccesses = dc.writeAccesses;
    c.writeMisses = dc.writeMisses;
    c.wbufEnqueued = wb.enqueued;
    c.wbufFullStalls = wb.fullStalls;
    c.wbufOccupancyCount = wb.occupancy.count();
    c.wbufOccupancySum = wb.occupancy.sum();
    c.tlbAccesses = tlb.accesses;
    c.tlbMisses = tlb.misses;
    c.memReads = mem.reads;
    c.memWrites = mem.writes;
    return c;
}

void
System::feedChunk(const Ref *refs, std::size_t n)
{
    // A leader's tape holds one span: cleared here, then replayed
    // from the top by each follower, which must consume all of it.
    if (mode_ == FrontMode::Lead)
        tape_->clear();
    cursor_ = TapeCursor{};
    if (!interval_) [[likely]]
        dispatchChunk(refs, n);
    while (interval_ && n != 0) {
        std::size_t take = n;
        if (nextIntervalBoundary_ > progress_.consumed) {
            std::uint64_t room =
                nextIntervalBoundary_ - progress_.consumed;
            if (room < take)
                take = static_cast<std::size_t>(room);
        }
        // A window may close one reference late, never inside a
        // couplet, so every pairing decision matches the uncut
        // stream.
        take = coupletSafeCut(refs, n, take, runPair_);
        dispatchChunk(refs, take);
        refs += take;
        n -= take;
        if (progress_.consumed >= nextIntervalBoundary_) {
            interval_->atBoundary(progress_.consumed,
                                  captureIntervalCounters());
            nextIntervalBoundary_ =
                interval_->firstBoundaryAfter(progress_.consumed);
        }
    }
    if (mode_ == FrontMode::Follow &&
        (cursor_.kind != tape_->kinds.size() ||
         cursor_.outcome != tape_->outcomes.size() ||
         cursor_.translation != tape_->translations.size() ||
         cursor_.fold != tape_->folds.size()))
        panic("System: a follower diverged from its leader's tape");
}

void
System::dispatchChunk(const Ref *refs, std::size_t n)
{
    using std::bool_constant;
    // Pair implies Split, so three issue shapes cover both flags.
    auto shape = [&](auto tlb_c, auto mode_c) {
        if (runPair_)
            consumeChunk<true, true, tlb_c.value, mode_c.value>(refs, n);
        else if (config_.split)
            consumeChunk<false, true, tlb_c.value, mode_c.value>(refs, n);
        else
            consumeChunk<false, false, tlb_c.value, mode_c.value>(refs,
                                                                  n);
    };
    auto mode = [&](auto tlb_c) {
        using M = FrontMode;
        switch (mode_) {
          case M::Own:
            return shape(tlb_c, std::integral_constant<M, M::Own>{});
          case M::Lead:
            return shape(tlb_c, std::integral_constant<M, M::Lead>{});
          case M::Follow:
            return shape(tlb_c, std::integral_constant<M, M::Follow>{});
        }
    };
    if (config_.addressing == AddressMode::Physical)
        mode(bool_constant<true>{});
    else
        mode(bool_constant<false>{});
}

SimResult
System::endRun()
{
    if (progress_.measuring) {
        foldMeasured(progress_.now);
        progress_.measuring = false;
    }
    if (interval_)
        interval_->endRun(progress_.consumed,
                          captureIntervalCounters());
    CACHETIME_TRACE_EVENT(
        trace_debug::Sim, "run end trace=%s cycles=%llu refs=%llu",
        result_.traceName.c_str(),
        static_cast<unsigned long long>(result_.cycles),
        static_cast<unsigned long long>(result_.refs));
    return std::move(result_);
}

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
System::captureState(StateWriter &w) const
{
    requireFront("captureState");
    w.beginSection("CLK");
    w.u64(static_cast<std::uint64_t>(progress_.now));
    w.u64(static_cast<std::uint64_t>(icacheBusy_));
    w.u64(static_cast<std::uint64_t>(dcacheBusy_));
    w.endSection();
    if (config_.split) {
        w.beginSection("L1I");
        icache_->saveState(w);
        w.endSection();
    }
    w.beginSection("L1D");
    dcache_->saveState(w);
    w.endSection();
    if (tlb_) {
        w.beginSection("TLB");
        tlb_->saveState(w);
        w.endSection();
    }
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
System::restoreState(StateReader &r)
{
    requireFront("restoreState");
    expectSection(r, "CLK");
    progress_.now = static_cast<Tick>(r.u64());
    icacheBusy_ = static_cast<Tick>(r.u64());
    dcacheBusy_ = static_cast<Tick>(r.u64());
    r.endSection();
    if (config_.split) {
        expectSection(r, "L1I");
        icache_->loadState(r);
        r.endSection();
    }
    expectSection(r, "L1D");
    dcache_->loadState(r);
    r.endSection();
    if (tlb_) {
        expectSection(r, "TLB");
        tlb_->loadState(r);
        r.endSection();
    }
    expectSection(r, "WB1");
    l1Buffer_->loadState(r);
    r.endSection();
    expectSection(r, "MID");
    std::uint64_t mids = r.u64();
    if (mids != midLevels_.size())
        fatal("checkpoint state: %llu intermediate levels, this "
              "machine has %zu (config mismatch)",
              static_cast<unsigned long long>(mids),
              midLevels_.size());
    for (std::size_t i = 0; i < midLevels_.size(); ++i) {
        midBuffers_[i]->loadState(r);
        midLevels_[i]->loadState(r);
    }
    r.endSection();
    expectSection(r, "MEM");
    memory_->loadState(r);
    r.endSection();
}

void
System::restoreWarmState(StateReader &r)
{
    requireFront("restoreWarmState");
    bool saw_d = false;
    bool saw_i = false;
    bool saw_tlb = false;
    while (r.remaining() > 0) {
        std::string tag = r.beginSection();
        if (tagIs(tag, "L1I")) {
            if (!config_.split)
                fatal("checkpoint warm state has a split L1, this "
                      "machine is unified (warm-key mismatch)");
            icache_->loadState(r);
            r.endSection();
            saw_i = true;
        } else if (tagIs(tag, "L1D")) {
            dcache_->loadState(r);
            r.endSection();
            saw_d = true;
        } else if (tagIs(tag, "TLB")) {
            if (!tlb_)
                fatal("checkpoint warm state has a TLB, this machine "
                      "is virtually addressed (warm-key mismatch)");
            tlb_->loadState(r);
            r.endSection();
            saw_tlb = true;
        } else {
            // Timing-entangled sections (clock, buffers, L2, memory)
            // are deliberately not restored across configs.
            r.skipSection();
        }
    }
    if (!saw_d || (config_.split && !saw_i) || (tlb_ && !saw_tlb))
        fatal("checkpoint warm state is missing a cache/TLB section "
              "(corrupt or warm-key mismatch)");
}

} // namespace cachetime
