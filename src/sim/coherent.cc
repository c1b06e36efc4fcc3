#include "sim/coherent.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace cachetime
{

CoherentSystem::CoherentSystem(const SystemConfig &config)
    : config_(config), map_(config.coreMap, config.cores),
      protocol_(config.protocol),
      blockWords_(config.dcache.blockWords),
      snoopCycles_(config.memory.addressCycles),
      memTiming_(config.memory, config.cycleNs)
{
    config_.validate();
    if (!config_.coherent())
        fatal("CoherentSystem: config has no coherence protocol");
    build();
}

CoherentSystem::~CoherentSystem() = default;

void
CoherentSystem::build()
{
    auto mids = config_.resolvedMidLevels();
    l2_ = std::make_unique<Cache>(mids.front().cache, "L2");
    l2Timing_ = mids.front().timing;

    cores_.clear();
    cores_.resize(config_.cores);
    for (unsigned c = 0; c < config_.cores; ++c) {
        std::string suffix = std::to_string(c);
        Core &core = cores_[c];
        if (config_.split) {
            core.icache = std::make_unique<CoherentL1>(
                config_.icache, "L1I" + suffix);
            core.iClass = std::make_unique<MissClassifier>(
                std::max<std::uint64_t>(
                    1, config_.icache.sizeWords /
                           config_.icache.blockWords),
                config_.icache.blockWords);
        }
        core.dcache = std::make_unique<CoherentL1>(
            config_.dcache, "L1D" + suffix);
        core.dClass = std::make_unique<MissClassifier>(
            std::max<std::uint64_t>(
                1, config_.dcache.sizeWords / config_.dcache.blockWords),
            config_.dcache.blockWords);
    }

    memStats_ = MainMemoryStats{};
    coh_.reset();
    bus_ = 0;
    missPenalty_.reset();
    stallRead_ = 0;
    stallWrite_ = 0;
}

Tick
CoherentSystem::wall() const
{
    Tick latest = 0;
    for (const Core &core : cores_)
        latest = std::max(latest, core.now);
    return latest;
}

void
CoherentSystem::setIntervalCollector(IntervalCollector *collector)
{
    interval_ = collector;
}

Tick
CoherentSystem::l2Fetch(Addr addr, unsigned words)
{
    Tick cost = l2Timing_.hitCycles;
    AccessOutcome outcome = l2_->read(addr, words, 0);
    if (outcome.filled) {
        ++memStats_.reads;
        memStats_.wordsRead += outcome.fetchedWords;
        Tick mem = memTiming_.readTimeCycles(outcome.fetchedWords);
        if (outcome.victimValid && outcome.victimDirty) {
            ++memStats_.writes;
            memStats_.wordsWritten += outcome.victimDirtyWords;
            mem += memTiming_.writeTimeCycles(outcome.victimDirtyWords);
        }
        memStats_.busyCycles += mem;
        cost += mem;
    }
    cost += l2Timing_.upstreamRate.transferCycles(words);
    return cost;
}

Tick
CoherentSystem::l2Put(Addr addr, unsigned words)
{
    Tick cost =
        l2Timing_.hitCycles + l2Timing_.victimRate.transferCycles(words);
    AccessOutcome outcome = l2_->write(addr, words, 0);
    if (outcome.filled) {
        // Write-allocate fill of the enclosing L2 block.
        ++memStats_.reads;
        memStats_.wordsRead += outcome.fetchedWords;
        Tick mem = memTiming_.readTimeCycles(outcome.fetchedWords);
        if (outcome.victimValid && outcome.victimDirty) {
            ++memStats_.writes;
            memStats_.wordsWritten += outcome.victimDirtyWords;
            mem += memTiming_.writeTimeCycles(outcome.victimDirtyWords);
        }
        memStats_.busyCycles += mem;
        cost += mem;
    }
    return cost;
}

CoherentSystem::SnoopResult
CoherentSystem::snoopPeers(unsigned core, Addr addr, bool for_write)
{
    SnoopResult result;
    ++coh_.snoops;
    for (unsigned p = 0; p < cores_.size(); ++p) {
        if (p == core)
            continue;
        CoherentL1 &peer = *cores_[p].dcache;
        CohState state = peer.state(addr);
        if (state == CohState::Invalid)
            continue;
        // VI keeps a single owner: every transaction invalidates.
        bool invalidate =
            for_write || protocol_ == CoherenceProtocol::VI;
        if (invalidate) {
            peer.snoopInvalidate(addr);
            ++coh_.invalidations;
            cores_[p].dClass->invalidate(addr, 0);
            if (state == CohState::Modified) {
                ++coh_.interventions;
                ++coh_.writebacks;
                Tick flush =
                    l2Put(peer.blockStart(addr), blockWords_);
                coh_.interventionCycles += flush;
                result.cycles += flush;
            }
        } else {
            result.sharers = true;
            if (state == CohState::Modified) {
                peer.snoopDowngrade(addr);
                ++coh_.interventions;
                ++coh_.writebacks;
                Tick flush =
                    l2Put(peer.blockStart(addr), blockWords_);
                coh_.interventionCycles += flush;
                result.cycles += flush;
            } else if (state == CohState::Exclusive) {
                peer.snoopDowngrade(addr);
            }
        }
    }
    return result;
}

void
CoherentSystem::serveIfetch(unsigned core, Addr addr)
{
    // Split-side instruction fetch: private and read-only, outside
    // the coherence domain, but fills still occupy the shared bus.
    Core &c = cores_[core];
    Tick issue = c.now;
    MissClass cls = c.iClass->observe(addr, 0);
    if (c.icache->lookupRead(addr) != CohState::Invalid) {
        c.now = issue + config_.cpu.readHitCycles;
        return;
    }
    c.iClass->account(cls);
    Tick start = std::max(issue, bus_);
    ++coh_.busTransactions;
    Tick cost = snoopCycles_;
    unsigned iblock = config_.icache.blockWords;
    cost += l2Fetch(c.icache->blockStart(addr), iblock);
    CoherentL1::Victim victim =
        c.icache->fill(addr, CohState::Exclusive);
    if (victim.valid && victim.dirty)
        cost += l2Put(victim.blockAddr, iblock);
    coh_.busBusyCycles += cost;
    bus_ = start + cost;
    Tick done = bus_ + config_.cpu.readHitCycles;
    missPenalty_.sample(static_cast<std::uint64_t>(done - issue));
    stallRead_ += done - issue - config_.cpu.readHitCycles;
    c.now = done;
}

void
CoherentSystem::serveRead(unsigned core, Addr addr)
{
    Core &c = cores_[core];
    Tick issue = c.now;
    MissClass cls = c.dClass->observe(addr, 0);
    if (c.dcache->lookupRead(addr) != CohState::Invalid) {
        c.now = issue + config_.cpu.readHitCycles;
        return;
    }
    c.dClass->account(cls);
    Tick start = std::max(issue, bus_);
    ++coh_.busTransactions;
    SnoopResult snoop = snoopPeers(core, addr, false);
    Tick cost = snoopCycles_ + snoop.cycles;
    cost += l2Fetch(c.dcache->blockStart(addr), blockWords_);
    CohState fill_state;
    switch (protocol_) {
      case CoherenceProtocol::VI:
        fill_state = CohState::Exclusive;
        break;
      case CoherenceProtocol::MSI:
        fill_state = CohState::Shared;
        break;
      default: // MESI
        fill_state =
            snoop.sharers ? CohState::Shared : CohState::Exclusive;
        break;
    }
    CoherentL1::Victim victim = c.dcache->fill(addr, fill_state);
    if (victim.valid && victim.dirty)
        cost += l2Put(victim.blockAddr, blockWords_);
    coh_.busBusyCycles += cost;
    bus_ = start + cost;
    Tick done = bus_ + config_.cpu.readHitCycles;
    missPenalty_.sample(static_cast<std::uint64_t>(done - issue));
    stallRead_ += done - issue - config_.cpu.readHitCycles;
    c.now = done;
}

void
CoherentSystem::serveWrite(unsigned core, Addr addr)
{
    Core &c = cores_[core];
    Tick issue = c.now;
    MissClass cls = c.dClass->observe(addr, 0);
    CohState state = c.dcache->lookupWrite(addr);
    switch (state) {
      case CohState::Modified:
        c.now = issue + config_.cpu.writeHitCycles;
        return;
      case CohState::Exclusive:
        // Silent promotion; in VI this is the dirty bit going on.
        c.dcache->setState(addr, CohState::Modified);
        c.now = issue + config_.cpu.writeHitCycles;
        return;
      case CohState::Shared: {
        // Upgrade: ownership request on the bus, no data transfer.
        Tick start = std::max(issue, bus_);
        ++coh_.busTransactions;
        ++coh_.upgrades;
        SnoopResult snoop = snoopPeers(core, addr, true);
        Tick cost = snoopCycles_ + snoop.cycles;
        c.dcache->setState(addr, CohState::Modified);
        coh_.upgradeCycles += cost;
        coh_.busBusyCycles += cost;
        bus_ = start + cost;
        Tick done = bus_ + config_.cpu.writeHitCycles;
        stallWrite_ += done - issue - config_.cpu.writeHitCycles;
        c.now = done;
        return;
      }
      case CohState::Invalid:
        break;
    }
    // Write miss: read-for-ownership, then the store retries.
    c.dClass->account(cls);
    Tick start = std::max(issue, bus_);
    ++coh_.busTransactions;
    SnoopResult snoop = snoopPeers(core, addr, true);
    Tick cost = snoopCycles_ + snoop.cycles;
    cost += l2Fetch(c.dcache->blockStart(addr), blockWords_);
    CoherentL1::Victim victim =
        c.dcache->fill(addr, CohState::Modified);
    if (victim.valid && victim.dirty)
        cost += l2Put(victim.blockAddr, blockWords_);
    coh_.busBusyCycles += cost;
    bus_ = start + cost;
    Tick done = bus_ + config_.cpu.writeHitCycles;
    stallWrite_ += done - issue - config_.cpu.writeHitCycles;
    c.now = done;
}

void
CoherentSystem::crossWarmBoundary()
{
    for (Core &core : cores_) {
        if (core.icache) {
            core.icache->resetStats();
            core.iClass->resetStats();
        }
        core.dcache->resetStats();
        core.dClass->resetStats();
    }
    l2_->resetStats();
    memStats_ = MainMemoryStats{};
    coh_.reset();
    missPenalty_.reset();
    stallRead_ = 0;
    stallWrite_ = 0;
    mReads_ = 0;
    mWrites_ = 0;
    measuring_ = true;
    measureStart_ = wall();
}

void
CoherentSystem::consume(const Ref &ref)
{
    if (!measuring_ && consumed_ == warmStart_)
        crossWarmBoundary();
    unsigned core = map_.coreOf(ref.pid);
    switch (ref.kind) {
      case RefKind::IFetch:
        if (config_.split)
            serveIfetch(core, ref.addr);
        else
            serveRead(core, ref.addr);
        if (measuring_)
            ++mReads_;
        break;
      case RefKind::Load:
        serveRead(core, ref.addr);
        if (measuring_)
            ++mReads_;
        break;
      case RefKind::Store:
        serveWrite(core, ref.addr);
        if (measuring_)
            ++mWrites_;
        break;
    }
    ++consumed_;
}

void
CoherentSystem::beginRun(const RefSource &source)
{
    if (!source.warmSegments().empty())
        fatal("coherent mode does not support sampled traces "
              "(warm segments)");
    // A fresh machine is in its built state already; only one that
    // has run is rebuilt.
    if (ran_)
        build();
    ran_ = true;
    traceName_ = source.name();
    warmStart_ = source.warmStart();
    consumed_ = 0;
    measuring_ = false;
    measureStart_ = 0;
    mReads_ = 0;
    mWrites_ = 0;
    if (interval_) {
        interval_->beginRun(traceName_);
        nextIntervalBoundary_ = interval_->firstBoundaryAfter(0);
    }
}

void
CoherentSystem::feedChunk(const Ref *refs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        consume(refs[i]);
        if (interval_ && consumed_ >= nextIntervalBoundary_) {
            interval_->atBoundary(consumed_,
                                  captureIntervalCounters());
            nextIntervalBoundary_ =
                interval_->firstBoundaryAfter(consumed_);
        }
    }
}

IntervalCounters
CoherentSystem::captureIntervalCounters() const
{
    IntervalCounters c;
    c.refs = mReads_ + mWrites_;
    c.readRefs = mReads_;
    c.writeRefs = mWrites_;
    c.groups = c.refs;
    if (!measuring_)
        return c; // warm-up prefix: measured counters stay zero
    c.cycles = static_cast<std::uint64_t>(wall() - measureStart_);
    for (const Core &core : cores_) {
        if (core.icache) {
            c.ifetchAccesses += core.icache->stats().readAccesses;
            c.ifetchMisses += core.icache->stats().readMisses;
        }
        const CacheStats &d = core.dcache->stats();
        c.readAccesses += d.readAccesses;
        c.readMisses += d.readMisses;
        c.writeAccesses += d.writeAccesses;
        c.writeMisses += d.writeMisses;
    }
    c.memReads = memStats_.reads;
    c.memWrites = memStats_.writes;
    c.cohInvalidations = coh_.invalidations;
    c.cohUpgrades = coh_.upgrades;
    c.cohBusBusyCycles =
        static_cast<std::uint64_t>(coh_.busBusyCycles);
    return c;
}

SimResult
CoherentSystem::endRun()
{
    SimResult result;
    result.traceName = traceName_;
    result.configSummary = config_.describe();
    result.cycleNs = config_.cycleNs;
    result.cores = config_.cores;
    result.coherent = true;
    if (measuring_) {
        result.refs = mReads_ + mWrites_;
        result.readRefs = mReads_;
        result.writeRefs = mWrites_;
        result.groups = result.refs;
        result.cycles = wall() - measureStart_;
        for (const Core &core : cores_) {
            if (core.icache) {
                result.coreIcache.push_back(core.icache->stats());
                result.icache.merge(core.icache->stats());
                result.missClasses.merge(core.iClass->stats());
            }
            result.coreDcache.push_back(core.dcache->stats());
            result.dcache.merge(core.dcache->stats());
            result.missClasses.merge(core.dClass->stats());
        }
        result.midLevels.push_back(l2_->stats());
        result.memory = memStats_;
        result.coherenceStats = coh_;
        result.missPenaltyCycles = missPenalty_;
        result.stallReadCycles = stallRead_;
        result.stallWriteCycles = stallWrite_;
    }
    if (interval_)
        interval_->endRun(consumed_, captureIntervalCounters());
    measuring_ = false;
    return result;
}

void
CoherentSystem::captureState(StateWriter &w) const
{
    w.beginSection("COHS");
    w.u64(config_.cores);
    w.u8(static_cast<std::uint8_t>(protocol_));
    w.b(config_.split);
    w.u64(consumed_);
    w.u64(warmStart_);
    w.b(measuring_);
    w.u64(static_cast<std::uint64_t>(measureStart_));
    w.u64(static_cast<std::uint64_t>(bus_));
    for (const Core &core : cores_)
        w.u64(static_cast<std::uint64_t>(core.now));
    w.endSection();
    for (const Core &core : cores_) {
        if (core.icache) {
            core.icache->saveState(w);
            core.iClass->saveState(w);
        }
        core.dcache->saveState(w);
        core.dClass->saveState(w);
    }
    l2_->saveState(w);
}

void
CoherentSystem::restoreState(StateReader &r)
{
    if (r.beginSection() != "COHS")
        fatal("coherent checkpoint: bad leading section");
    if (r.u64() != config_.cores ||
        r.u8() != static_cast<std::uint8_t>(protocol_) ||
        r.b() != config_.split)
        fatal("coherent checkpoint: config shape mismatch");
    consumed_ = r.u64();
    warmStart_ = r.u64();
    measuring_ = r.b();
    measureStart_ = static_cast<Tick>(r.u64());
    bus_ = static_cast<Tick>(r.u64());
    for (Core &core : cores_)
        core.now = static_cast<Tick>(r.u64());
    r.endSection();
    for (Core &core : cores_) {
        if (core.icache) {
            core.icache->loadState(r);
            core.iClass->loadState(r);
        }
        core.dcache->loadState(r);
        core.dClass->loadState(r);
    }
    l2_->loadState(r);
}

} // namespace cachetime
