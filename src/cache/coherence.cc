#include "cache/coherence.hh"

#include "util/logging.hh"
#include "util/serialize.hh"

namespace cachetime
{

EnumNames<CoherenceProtocol>
enumNames(CoherenceProtocol)
{
    static constexpr EnumName<CoherenceProtocol> names[] = {
        {CoherenceProtocol::None, "none"},
        {CoherenceProtocol::VI, "vi"},
        {CoherenceProtocol::MSI, "msi"},
        {CoherenceProtocol::MESI, "mesi"},
    };
    return names;
}

const char *
coherenceProtocolName(CoherenceProtocol protocol)
{
    return enumName(enumNames(protocol), protocol);
}

CoherenceProtocol
parseCoherenceProtocol(const std::string &name)
{
    return parseEnum(enumNames(CoherenceProtocol{}), name,
                     "coherence: protocol");
}

const char *
cohStateName(CohState state)
{
    switch (state) {
      case CohState::Invalid:
        return "I";
      case CohState::Shared:
        return "S";
      case CohState::Exclusive:
        return "E";
      case CohState::Modified:
        return "M";
    }
    return "?";
}

CoherentL1::CoherentL1(const CacheConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      sets_(config.numSets()), replRng_(config.replSeed)
{
    config_.validate(name_.c_str());
    if (config_.fetchWords != 0 &&
        config_.fetchWords != config_.blockWords) {
        fatal("%s: coherent caches fetch whole blocks",
              name_.c_str());
    }
    lines_.assign(sets_ * config_.assoc, Line{});
}

std::size_t
CoherentL1::findWay(std::uint64_t set, Addr tag) const
{
    const Line *base = &lines_[set * config_.assoc];
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if (base[way].state != CohState::Invalid &&
            base[way].tag == tag) {
            return way;
        }
    }
    return kNoWay;
}

CoherentL1::Line *
CoherentL1::lookup(Addr addr)
{
    std::uint64_t block = addr / config_.blockWords;
    std::uint64_t set = block % sets_;
    std::size_t way = findWay(set, block / sets_);
    if (way == kNoWay)
        return nullptr;
    return &lines_[set * config_.assoc + way];
}

const CoherentL1::Line *
CoherentL1::lookup(Addr addr) const
{
    return const_cast<CoherentL1 *>(this)->lookup(addr);
}

CohState
CoherentL1::state(Addr addr) const
{
    const Line *line = lookup(addr);
    return line ? line->state : CohState::Invalid;
}

CohState
CoherentL1::lookupRead(Addr addr)
{
    ++stats_.readAccesses;
    Line *line = lookup(addr);
    if (!line) {
        ++stats_.readMisses;
        return CohState::Invalid;
    }
    line->lastUse = ++useSeq_;
    return line->state;
}

CohState
CoherentL1::lookupWrite(Addr addr)
{
    ++stats_.writeAccesses;
    Line *line = lookup(addr);
    if (!line) {
        ++stats_.writeMisses;
        return CohState::Invalid;
    }
    line->lastUse = ++useSeq_;
    return line->state;
}

void
CoherentL1::setState(Addr addr, CohState state)
{
    Line *line = lookup(addr);
    if (!line)
        fatal("%s: setState on a non-resident block", name_.c_str());
    line->state = state;
}

CoherentL1::Victim
CoherentL1::fill(Addr addr, CohState state)
{
    std::uint64_t block = addr / config_.blockWords;
    std::uint64_t set = block % sets_;
    Addr tag = block / sets_;
    Line *base = &lines_[set * config_.assoc];

    if (findWay(set, tag) != kNoWay)
        fatal("%s: fill of an already-resident block", name_.c_str());

    // Prefer an invalid way; otherwise replace by policy.  The
    // oracle mirrors this exactly, including the Rng draw order.
    std::size_t victim_way = kNoWay;
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if (base[way].state == CohState::Invalid) {
            victim_way = way;
            break;
        }
    }

    Victim victim;
    if (victim_way == kNoWay) {
        switch (config_.replPolicy) {
          case ReplPolicy::Random:
            victim_way = replRng_.below(config_.assoc);
            break;
          case ReplPolicy::LRU:
            victim_way = 0;
            for (unsigned way = 1; way < config_.assoc; ++way) {
                if (base[way].lastUse < base[victim_way].lastUse)
                    victim_way = way;
            }
            break;
          case ReplPolicy::FIFO:
            victim_way = 0;
            for (unsigned way = 1; way < config_.assoc; ++way) {
                if (base[way].fillSeq < base[victim_way].fillSeq)
                    victim_way = way;
            }
            break;
        }
        Line &old = base[victim_way];
        victim.valid = true;
        victim.dirty = old.state == CohState::Modified;
        victim.blockAddr =
            (old.tag * sets_ + set) * config_.blockWords;
        ++stats_.blocksReplaced;
        if (victim.dirty) {
            ++stats_.dirtyBlocksReplaced;
            stats_.dirtyWordsReplaced += config_.blockWords;
        }
    }

    Line &line = base[victim_way];
    line.tag = tag;
    line.state = state;
    line.lastUse = ++useSeq_;
    line.fillSeq = ++fillCount_;

    ++stats_.fills;
    stats_.wordsFetched += config_.blockWords;
    return victim;
}

CohState
CoherentL1::snoopInvalidate(Addr addr)
{
    Line *line = lookup(addr);
    if (!line)
        return CohState::Invalid;
    CohState prior = line->state;
    line->state = CohState::Invalid;
    return prior;
}

CohState
CoherentL1::snoopDowngrade(Addr addr)
{
    Line *line = lookup(addr);
    if (!line)
        return CohState::Invalid;
    CohState prior = line->state;
    line->state = CohState::Shared;
    return prior;
}

void
CoherentL1::saveState(StateWriter &w) const
{
    w.beginSection("CHL1");
    w.u64(sets_);
    w.u64(config_.assoc);
    for (const Line &line : lines_) {
        w.u64(line.tag);
        w.u8(static_cast<std::uint8_t>(line.state));
        w.u64(line.lastUse);
        w.u64(line.fillSeq);
    }
    w.u64(useSeq_);
    w.u64(fillCount_);
    std::uint64_t rng[4];
    replRng_.state(rng);
    for (std::uint64_t word : rng)
        w.u64(word);
    w.endSection();
}

void
CoherentL1::loadState(StateReader &r)
{
    if (r.beginSection() != std::string("CHL1"))
        fatal("%s: bad coherent-L1 checkpoint section",
              name_.c_str());
    if (r.u64() != sets_ || r.u64() != config_.assoc)
        fatal("%s: checkpoint shape mismatch", name_.c_str());
    for (Line &line : lines_) {
        line.tag = r.u64();
        std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(CohState::Modified))
            fatal("%s: corrupt line state in checkpoint",
                  name_.c_str());
        line.state = static_cast<CohState>(state);
        line.lastUse = r.u64();
        line.fillSeq = r.u64();
    }
    useSeq_ = r.u64();
    fillCount_ = r.u64();
    std::uint64_t rng[4];
    for (std::uint64_t &word : rng)
        word = r.u64();
    replRng_.setState(rng);
    r.endSection();
}

} // namespace cachetime
