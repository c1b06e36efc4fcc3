#include "cache/cache.hh"

#include <bit>
#include <cassert>

#include "util/logging.hh"
#include "util/mathutil.hh"
#include "util/serialize.hh"

namespace cachetime
{

double
CacheStats::readMissRatio() const
{
    if (readAccesses == 0)
        return 0.0;
    return static_cast<double>(readMisses) /
           static_cast<double>(readAccesses);
}

double
CacheStats::writeMissRatio() const
{
    if (writeAccesses == 0)
        return 0.0;
    return static_cast<double>(writeMisses) /
           static_cast<double>(writeAccesses);
}

void
CacheConfig::validate(const char *what) const
{
    if (sizeWords == 0 || !isPowerOfTwo(sizeWords))
        fatal("%s: sizeWords (%llu) must be a nonzero power of two",
              what, static_cast<unsigned long long>(sizeWords));
    if (blockWords == 0 || !isPowerOfTwo(blockWords))
        fatal("%s: blockWords (%u) must be a nonzero power of two",
              what, blockWords);
    if (blockWords > Mask128::capacity)
        fatal("%s: blockWords (%u) exceeds the %u-word line limit",
              what, blockWords, Mask128::capacity);
    if (assoc == 0 || !isPowerOfTwo(assoc))
        fatal("%s: assoc (%u) must be a nonzero power of two", what,
              assoc);
    if (static_cast<std::uint64_t>(blockWords) * assoc > sizeWords)
        fatal("%s: block size x assoc exceeds capacity", what);
    unsigned fetch = effectiveFetchWords();
    if (!isPowerOfTwo(fetch) || fetch > blockWords)
        fatal("%s: fetchWords (%u) must be a power of two <= block "
              "size (%u)", what, fetch, blockWords);
}

Cache::Cache(const CacheConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      replRng_(config.replSeed)
{
    config_.validate(name_.c_str());
    lines_.resize(config_.numSets() * config_.assoc);
    keys_.assign(lines_.size(), kInvalidKey);
    fastFlags_.assign(lines_.size(), 0);
    victims_.resize(config_.victimEntries);

    // Shift/mask indexing: every organizational quantity is a
    // validated power of two, so the per-access divisions of the
    // naive model reduce to these precomputed fields.
    blockShift_ = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(config_.blockWords)));
    blockMask_ = config_.blockWords - 1;
    setShift_ = static_cast<unsigned>(std::countr_zero(config_.numSets()));
    assocShift_ = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(config_.assoc)));
    fullValid_.setRange(0, config_.blockWords);
    setMask_ = config_.numSets() - 1;
    pidMask_ = config_.virtualTags ? (std::uint64_t{1} << kPidBits) - 1
                                   : 0;
    replKind_ = config_.replPolicy;
}

void
Cache::syncKey(const Line &line)
{
    std::size_t idx = static_cast<std::size_t>(&line - lines_.data());
    std::uint64_t key;
    if (!line.present)
        key = kInvalidKey;
    else if (line.tag < kTagLimit) [[likely]]
        key = (line.tag << kPidBits) | (line.pid & pidMask_);
    else
        key = kWideKey;
    validBlocks_ += (key != kInvalidKey);
    validBlocks_ -= (keys_[idx] != kInvalidKey);
    keys_[idx] = key;
    fastFlags_[idx] = 0; // re-earned on the next slow hit
}

Cache::VictimEntry *
Cache::findVictim(Addr block_addr, Pid pid)
{
    for (VictimEntry &entry : victims_) {
        if (entry.occupied && entry.blockAddr == block_addr &&
            (!config_.virtualTags || entry.pid == pid)) {
            return &entry;
        }
    }
    return nullptr;
}

void
Cache::parkVictim(const Line &line, Addr block_addr,
                  AccessOutcome &outcome)
{
    // Choose a slot: free, else LRU.
    VictimEntry *slot = &victims_.front();
    for (VictimEntry &entry : victims_) {
        if (!entry.occupied) {
            slot = &entry;
            break;
        }
        if (entry.lastUse < slot->lastUse)
            slot = &entry;
    }
    if (slot->occupied) {
        // Cast out of the whole cache+buffer system: this is where
        // replacement and dirty-write-back accounting happen when a
        // victim cache is present.
        ++stats_.blocksReplaced;
        outcome.victimValid = true;
        if (slot->dirty.any()) {
            outcome.victimDirty = true;
            outcome.victimDirtyWords = slot->dirty.count();
            ++stats_.dirtyBlocksReplaced;
            stats_.dirtyWordsReplaced += slot->dirty.count();
        }
        outcome.victimBlockAddr =
            slot->blockAddr * config_.blockWords;
        outcome.victimPid = slot->pid;
    }
    slot->occupied = true;
    slot->blockAddr = block_addr;
    slot->pid = line.pid;
    slot->valid = line.valid;
    slot->dirty = line.dirty;
    slot->lastUse = seq_;
}

Cache::Line &
Cache::selectWay(Addr block_addr)
{
    const std::size_t base =
        static_cast<std::size_t>(block_addr & setMask_) << assocShift_;
    const unsigned ways = config_.assoc;
    // A one-way set has one candidate, so no policy is consulted and
    // the Random policy's stream does not advance.
    if (ways == 1)
        return lines_[base];
    // Prefer an invalid way (scan the hot keys, not the cold lines).
    const std::uint64_t *keys = keys_.data() + base;
    for (unsigned w = 0; w < ways; ++w) {
        if (keys[w] == kInvalidKey)
            return lines_[base + w];
    }
    // All valid: the configured policy picks the victim.
    Line *set = &lines_[base];
    unsigned w = 0;
    switch (replKind_) {
      case ReplPolicy::Random:
        w = static_cast<unsigned>(replRng_.below(ways));
        break;
      case ReplPolicy::LRU:
        for (unsigned i = 1; i < ways; ++i)
            if (set[i].lastUse < set[w].lastUse)
                w = i;
        break;
      case ReplPolicy::FIFO:
        for (unsigned i = 1; i < ways; ++i)
            if (set[i].fillSeq < set[w].fillSeq)
                w = i;
        break;
    }
    if (w >= ways)
        panic("replacement policy chose way %u of %u", w, ways);
    return set[w];
}

Cache::Line &
Cache::victimLine(Addr block_addr, AccessOutcome &outcome)
{
    Line &victim = selectWay(block_addr);
    if (!victim.present)
        return victim;
    const unsigned dirty_words = victim.dirty.count();
    outcome.victimValid = true;
    outcome.victimDirty = dirty_words != 0;
    outcome.victimDirtyWords = dirty_words;
    // Reconstruct the victim's block address from tag + set index.
    Addr set_index = setIndex(block_addr);
    outcome.victimBlockAddr =
        ((victim.tag << setShift_) | set_index) << blockShift_;
    outcome.victimPid = victim.pid;
    ++stats_.blocksReplaced;
    if (dirty_words != 0) {
        ++stats_.dirtyBlocksReplaced;
        stats_.dirtyWordsReplaced += dirty_words;
    }
    return victim;
}

// Replace a line through the victim buffer: the displaced block is
// parked, and the requested block is swapped back in if the buffer
// holds it.  @return the way now holding (or to be filled with) the
// requested block; sets outcome.victimCacheHit on a swap.
Cache::Line &
Cache::swapThroughVictims(Addr block_addr, Pid pid,
                          AccessOutcome &outcome)
{
    Line &way = selectWay(block_addr);
    Line displaced = way;
    bool displaced_valid = way.present;
    Addr displaced_addr =
        (displaced.tag << setShift_) | setIndex(block_addr);

    if (VictimEntry *entry = findVictim(block_addr, pid)) {
        way.tag = tagOf(block_addr);
        way.pid = entry->pid;
        way.valid = entry->valid;
        way.dirty = entry->dirty;
        way.prefetched = false;
        way.present = true;
        way.fillSeq = seq_;
        way.lastUse = seq_;
        entry->occupied = false;
        ++stats_.victimHits;
        outcome.victimCacheHit = true;
    } else {
        way.present = false;
    }
    syncKey(way);
    if (displaced_valid)
        parkVictim(displaced, displaced_addr, outcome);
    return way;
}

void
Cache::fill(Line &line, Addr block_addr, Pid pid, unsigned offset,
            unsigned words, AccessOutcome &outcome)
{
    Addr tag = tagOf(block_addr);
    bool new_block = !(line.present && line.tag == tag &&
                       (!config_.virtualTags || line.pid == pid));
    if (new_block) {
        line.tag = tag;
        line.pid = pid;
        line.valid.clear();
        line.dirty.clear();
        line.prefetched = false;
        line.present = true;
        line.fillSeq = seq_;
        syncKey(line);
    }
    line.valid.setRange(offset, words);
    line.lastUse = seq_;
    outcome.filled = true;
    outcome.fetchedWords = words;
    outcome.fetchAddr = (block_addr << blockShift_) + offset;
    ++stats_.fills;
    stats_.wordsFetched += words;
}

void
Cache::readMiss(Addr block_addr, Pid pid, unsigned offset,
                unsigned words, AccessOutcome &outcome)
{
    unsigned fetch = config_.effectiveFetchWords();
    unsigned fetch_start = (offset / fetch) * fetch;
    unsigned fetch_words = fetch;
    while (fetch_start + fetch_words < offset + words)
        fetch_words += fetch;
    if (config_.victimEntries > 0) {
        Line &way = swapThroughVictims(block_addr, pid, outcome);
        if (!outcome.victimCacheHit ||
            !way.valid.testRange(offset, words)) {
            // Not parked (or parked without these words): fetch.
            fill(way, block_addr, pid, fetch_start, fetch_words,
                 outcome);
            outcome.fetchCriticalOffset = offset - fetch_start;
        }
        return;
    }
    Line &line = victimLine(block_addr, outcome);
    line.present = false; // mark replaced before refill
    fill(line, block_addr, pid, fetch_start, fetch_words, outcome);
    outcome.fetchCriticalOffset = offset - fetch_start;
}

HitKind
Cache::readMissSlow(Line *line, Addr block_addr, unsigned offset,
                    unsigned words, Pid pid, AccessOutcome &outcome)
{
    if (line) {
        // Sub-block miss: fetch the missing sub-block(s) into the
        // resident line.
        outcome = AccessOutcome();
        outcome.tagMatch = true;
        ++stats_.readMisses;
        ++stats_.subBlockMisses;
        unsigned fetch = config_.effectiveFetchWords();
        unsigned fetch_start = (offset / fetch) * fetch;
        unsigned fetch_words = fetch;
        while (fetch_start + fetch_words < offset + words)
            fetch_words += fetch;
        fill(*line, block_addr, pid, fetch_start, fetch_words, outcome);
        outcome.fetchCriticalOffset = offset - fetch_start;
        return HitKind::Miss;
    }

    // Full miss.
    outcome = AccessOutcome();
    ++stats_.readMisses;
    readMiss(block_addr, pid, offset, words, outcome);
    return HitKind::Miss;
}

HitKind
Cache::writeMissSlow(Addr block_addr, unsigned offset,
                     unsigned words, Pid pid, AccessOutcome &outcome)
{
    outcome = AccessOutcome();
    ++stats_.writeMisses;
    if (config_.victimEntries > 0 && findVictim(block_addr, pid)) {
        // Swap the parked block back in and write into it.
        Line &way = swapThroughVictims(block_addr, pid, outcome);
        way.valid.setRange(offset, words);
        if (config_.writePolicy == WritePolicy::WriteBack)
            way.dirty.setRange(offset, words);
        else
            stats_.wordsWrittenThrough += words;
        return HitKind::Miss;
    }
    if (config_.allocPolicy == AllocPolicy::WriteAllocate) {
        unsigned fetch = config_.effectiveFetchWords();
        unsigned fetch_start = (offset / fetch) * fetch;
        unsigned fetch_words = fetch;
        while (fetch_start + fetch_words < offset + words)
            fetch_words += fetch;
        Line &victim = victimLine(block_addr, outcome);
        victim.present = false;
        fill(victim, block_addr, pid, fetch_start, fetch_words,
             outcome);
        outcome.fetchCriticalOffset = offset - fetch_start;
        victim.valid.setRange(offset, words);
        if (config_.writePolicy == WritePolicy::WriteBack)
            victim.dirty.setRange(offset, words);
        else
            stats_.wordsWrittenThrough += words;
        return HitKind::Miss;
    }

    // No-write-allocate (the paper's default): the words bypass the
    // cache and go straight to the next level.
    stats_.wordsWrittenThrough += words;
    return HitKind::Miss;
}

AccessOutcome
Cache::read(Addr addr, unsigned words, Pid pid)
{
    AccessOutcome outcome;
    HitKind kind = readFast(addr, words, pid, outcome);
    if (kind != HitKind::Miss) {
        outcome.hit = true;
        outcome.tagMatch = true;
        outcome.hitPrefetched = kind == HitKind::HitPrefetched;
    }
    return outcome;
}

AccessOutcome
Cache::write(Addr addr, unsigned words, Pid pid)
{
    AccessOutcome outcome;
    HitKind kind = writeFast(addr, words, pid, outcome);
    if (kind != HitKind::Miss) {
        outcome.hit = true;
        outcome.tagMatch = true;
    }
    return outcome;
}

AccessOutcome
Cache::prefetch(Addr addr, Pid pid)
{
    ++seq_;
    AccessOutcome outcome;
    Addr block_addr = addr >> blockShift_;
    if (Line *line = findLine(block_addr, pid)) {
        // Already resident (possibly partially): nothing to do.
        outcome.hit = line->valid.testRange(
            static_cast<unsigned>(addr & blockMask_), 1);
        return outcome;
    }
    Line &line = victimLine(block_addr, outcome);
    line.present = false;
    fill(line, block_addr, pid, 0, config_.blockWords, outcome);
    line.prefetched = true;
    ++stats_.prefetches;
    return outcome;
}

bool
Cache::prefetchTagged(Addr addr, Pid pid) const
{
    const Line *line = findLine(addr >> blockShift_, pid);
    return line && line->prefetched;
}

AccessOutcome
Cache::access(const Ref &ref)
{
    if (ref.kind == RefKind::Store)
        return write(ref.addr, 1, ref.pid);
    return read(ref.addr, 1, ref.pid);
}

bool
Cache::probe(Addr addr, unsigned words, Pid pid) const
{
    Addr block_addr = addr >> blockShift_;
    unsigned offset = static_cast<unsigned>(addr & blockMask_);
    const Line *line = findLine(block_addr, pid);
    return line && line->valid.testRange(offset, words);
}

void
Cache::invalidateAll()
{
    for (Line &line : lines_) {
        line.present = false;
        line.valid.clear();
        line.dirty.clear();
    }
    keys_.assign(keys_.size(), kInvalidKey);
    fastFlags_.assign(fastFlags_.size(), 0);
    validBlocks_ = 0;
}

void
Cache::reset()
{
    // assign() within the current size reuses each array's storage.
    lines_.assign(lines_.size(), Line{});
    keys_.assign(keys_.size(), kInvalidKey);
    fastFlags_.assign(fastFlags_.size(), 0);
    victims_.assign(victims_.size(), VictimEntry{});
    replRng_ = Rng(config_.replSeed);
    seq_ = 0;
    validBlocks_ = 0;
    stats_.reset();
}

std::uint64_t
Cache::validBlocks() const
{
#ifndef NDEBUG
    std::uint64_t scan = 0;
    for (const Line &line : lines_)
        if (line.present)
            ++scan;
    assert(scan == validBlocks_ &&
           "incremental valid-block counter out of sync");
#endif
    return validBlocks_;
}

void
Cache::saveState(StateWriter &w) const
{
    w.u64(seq_);
    std::uint64_t rng[4];
    replRng_.state(rng);
    for (int i = 0; i < 4; ++i)
        w.u64(rng[i]);

    w.u64(lines_.size());
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const Line &line = lines_[i];
        w.b(line.present);
        // The fast-hit flag is part of the trajectory: a flagged
        // line skips lastUse updates, so restoring it cold would
        // make the continuation's recency bytes drift from the
        // uninterrupted run's even though behaviour is unchanged.
        w.b(fastFlags_[i] != 0);
        if (!line.present)
            continue;
        w.u64(line.tag);
        w.u64(line.pid);
        w.u64(line.lastUse);
        w.u64(line.fillSeq);
        w.u64(line.valid.lo);
        w.u64(line.valid.hi);
        w.u64(line.dirty.lo);
        w.u64(line.dirty.hi);
        w.b(line.prefetched);
    }

    w.u64(victims_.size());
    for (const VictimEntry &entry : victims_) {
        w.b(entry.occupied);
        if (!entry.occupied)
            continue;
        w.u64(entry.blockAddr);
        w.u64(entry.pid);
        w.u64(entry.valid.lo);
        w.u64(entry.valid.hi);
        w.u64(entry.dirty.lo);
        w.u64(entry.dirty.hi);
        w.u64(entry.lastUse);
    }
}

void
Cache::loadState(StateReader &r)
{
    seq_ = r.u64();
    std::uint64_t rng[4];
    for (int i = 0; i < 4; ++i)
        rng[i] = r.u64();
    replRng_.setState(rng);

    std::uint64_t n_lines = r.u64();
    if (n_lines != lines_.size())
        fatal("%s: checkpoint has %llu lines, this cache has %zu "
              "(config mismatch)",
              name_.c_str(), static_cast<unsigned long long>(n_lines),
              lines_.size());
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        Line &line = lines_[i];
        line.present = r.b();
        bool fast = r.b();
        if (!line.present) {
            line.tag = 0;
            line.pid = 0;
            line.lastUse = 0;
            line.fillSeq = 0;
            line.valid.clear();
            line.dirty.clear();
            line.prefetched = false;
        } else {
            line.tag = r.u64();
            line.pid = static_cast<Pid>(r.u64());
            line.lastUse = r.u64();
            line.fillSeq = r.u64();
            line.valid.lo = r.u64();
            line.valid.hi = r.u64();
            line.dirty.lo = r.u64();
            line.dirty.hi = r.u64();
            line.prefetched = r.b();
        }
        syncKey(line); // also maintains validBlocks_
        // After syncKey's conservative clear: the saved flag was
        // sound when captured, so it is sound to restore verbatim.
        fastFlags_[i] = fast ? 1 : 0;
    }

    std::uint64_t n_victims = r.u64();
    if (n_victims != victims_.size())
        fatal("%s: checkpoint has %llu victim slots, this cache has "
              "%zu (config mismatch)",
              name_.c_str(),
              static_cast<unsigned long long>(n_victims),
              victims_.size());
    for (VictimEntry &entry : victims_) {
        entry.occupied = r.b();
        if (!entry.occupied) {
            entry = VictimEntry{};
            continue;
        }
        entry.blockAddr = r.u64();
        entry.pid = static_cast<Pid>(r.u64());
        entry.valid.lo = r.u64();
        entry.valid.hi = r.u64();
        entry.dirty.lo = r.u64();
        entry.dirty.hi = r.u64();
        entry.lastUse = r.u64();
    }
}

} // namespace cachetime
