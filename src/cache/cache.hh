/**
 * @file
 * The organizational (time-free) cache model.
 *
 * Cache answers "what happened?" for each access - hit, miss, which
 * victim, how many dirty words leave - while all timing is imposed
 * by the sim layer.  This split mirrors the paper's methodology: the
 * organizational behaviour of a configuration is independent of the
 * cycle time, and the two are composed into execution time.
 *
 * Tags are virtual and include the process identifier when
 * virtualTags is set (the paper simulates virtual caches
 * throughout).  Per-word valid bits support sub-block fetches and
 * per-word dirty bits support the dirty-word traffic statistic of
 * Figure 3-1.
 *
 * Storage is split structure-of-arrays for simulation speed (see
 * DESIGN.md section 9): the per-line probe state lives in one
 * contiguous array of pid-fused tag keys scanned branch-light by
 * findLine(), while the valid/dirty word masks, the prefetch mark
 * and the replacement metadata sit in a parallel cold array touched
 * only on hits that mutate state or on misses.  All indexing uses
 * precomputed shifts and masks (configurations are validated
 * power-of-two), and the hot demand path (readFast/writeFast)
 * reports hits through a one-byte discriminant without constructing
 * an AccessOutcome.
 */

#ifndef CACHETIME_CACHE_CACHE_HH
#define CACHETIME_CACHE_CACHE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/mask.hh"
#include "stats/counter_list.hh"
#include "trace/ref.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cachetime
{

class StateReader;
class StateWriter;

/** Everything the timing layer needs to know about one access. */
struct AccessOutcome
{
    /**
     * Tag for the deliberately-uninitialized constructor used on
     * the hot path: readFast()/writeFast() leave the outcome
     * untouched on a hit, so callers that check the returned
     * HitKind first can skip zeroing these ~48 bytes per access.
     */
    struct Uninit
    {
    };

    AccessOutcome()
        : hit(false), tagMatch(false), filled(false),
          victimValid(false), victimDirty(false), victimDirtyWords(0),
          victimBlockAddr(0), victimPid(0), fetchedWords(0),
          fetchAddr(0), fetchCriticalOffset(0), hitPrefetched(false),
          victimCacheHit(false)
    {
    }

    /** Leave every field indeterminate; see Uninit. */
    explicit AccessOutcome(Uninit) {}

    bool hit;                  ///< data present (tag match + valid words)
    bool tagMatch;             ///< a tag matched even if words invalid
    bool filled;               ///< a fetch from the next level happened
    bool victimValid;          ///< the fill displaced a valid block
    bool victimDirty;          ///< the displaced block had dirty words
    unsigned victimDirtyWords; ///< dirty word count of the victim
    Addr victimBlockAddr;      ///< word address of the victim block
    Pid victimPid;             ///< pid tag of the victim block
    unsigned fetchedWords;     ///< words requested from the next level
    Addr fetchAddr;            ///< aligned start of the fetched range
    unsigned fetchCriticalOffset; ///< demanded word within fetch
    bool hitPrefetched;        ///< demand hit consumed a prefetch
    bool victimCacheHit;       ///< satisfied by a victim-cache swap
};

/**
 * Trimmed result of a demand access: the hot path in System::run
 * needs only this discriminant on a hit; the full AccessOutcome is
 * filled in by readFast()/writeFast() only when the access misses.
 */
enum class HitKind : std::uint8_t
{
    Miss = 0,      ///< the AccessOutcome was filled in
    Hit,           ///< plain hit; the outcome was not touched
    HitPrefetched, ///< hit that consumed a tagged-prefetch mark
};

/** Running counters; reset at the warm-start boundary. */
struct CacheStats
{
    std::uint64_t readAccesses = 0;   ///< loads + ifetches
    std::uint64_t readMisses = 0;     ///< including sub-block misses
    std::uint64_t writeAccesses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t subBlockMisses = 0; ///< tag hit but words invalid
    std::uint64_t fills = 0;          ///< fetches from the next level
    std::uint64_t wordsFetched = 0;
    std::uint64_t blocksReplaced = 0;
    std::uint64_t dirtyBlocksReplaced = 0;
    std::uint64_t dirtyWordsReplaced = 0;
    std::uint64_t wordsWrittenThrough = 0;
    std::uint64_t prefetches = 0;        ///< prefetch fills issued
    std::uint64_t prefetchHits = 0;      ///< demand hits on them
    std::uint64_t victimHits = 0;        ///< misses swapped back in

    /** @return read misses / read accesses (the paper's miss ratio). */
    double readMissRatio() const;

    /** @return write misses / write accesses. */
    double writeMissRatio() const;

    void reset() { *this = CacheStats(); }

    /** Accumulate @p other (warm-segment measured-stats gathering). */
    void merge(const CacheStats &other) { mergeCounters(*this, other); }

    /** Every counter once (stats/counter_list.hh). */
    template <typename Visit>
    static void
    forEachCounter(Visit &&visit)
    {
        using S = CacheStats;
        visit("readAccesses", "loads + ifetches", &S::readAccesses);
        visit("readMisses", "read misses incl. sub-block",
              &S::readMisses);
        visit("writeAccesses", "stores", &S::writeAccesses);
        visit("writeMisses", "write misses", &S::writeMisses);
        visit("subBlockMisses", "tag hit but words invalid",
              &S::subBlockMisses);
        visit("fills", "fetches from the next level", &S::fills);
        visit("wordsFetched", "words fetched from below",
              &S::wordsFetched);
        visit("blocksReplaced", "blocks replaced", &S::blocksReplaced);
        visit("dirtyBlocksReplaced", "dirty blocks written back",
              &S::dirtyBlocksReplaced);
        visit("dirtyWordsReplaced", "dirty words written back",
              &S::dirtyWordsReplaced);
        visit("wordsWrittenThrough", "words written through",
              &S::wordsWrittenThrough);
        visit("prefetches", "prefetch fills issued", &S::prefetches);
        visit("prefetchHits", "demand hits on prefetched blocks",
              &S::prefetchHits);
        visit("victimHits", "misses swapped back from the victim cache",
              &S::victimHits);
    }
};

/**
 * A set-associative cache with virtual (pid-extended) tags.
 *
 * Thread-compatible but not thread-safe; each simulated system owns
 * its caches exclusively.
 */
class Cache
{
  public:
    /**
     * @param config organizational parameters (validated here)
     * @param name   used in diagnostics, e.g. "L1I"
     */
    explicit Cache(const CacheConfig &config,
                   std::string name = "cache");

    /**
     * Perform a demand read of @p words words starting at @p addr
     * (all within one block).  On a miss the line is filled
     * according to the fetch size.
     */
    AccessOutcome read(Addr addr, unsigned words, Pid pid);

    /**
     * Perform a store of @p words words starting at @p addr.
     * Behaviour depends on the write and allocation policies; the
     * outcome's fetchedWords reflects any write-allocate fill and
     * wordsWrittenThrough is accounted in the stats.
     */
    AccessOutcome write(Addr addr, unsigned words, Pid pid);

    /**
     * Demand read on the hot path: identical state transitions and
     * statistics to read(), but on a hit nothing is written to
     * @p outcome (construct it with AccessOutcome::Uninit).  The
     * outcome is (re)initialized and filled only when the result is
     * HitKind::Miss - including victim-cache swaps and sub-block
     * fills, which the timing layer distinguishes via its fields.
     */
    [[gnu::always_inline]] inline HitKind
    readFast(Addr addr, unsigned words, Pid pid,
             AccessOutcome &outcome);

    /** Store counterpart of readFast(). */
    [[gnu::always_inline]] inline HitKind
    writeFast(Addr addr, unsigned words, Pid pid,
              AccessOutcome &outcome);

    /** Convenience wrapper dispatching on the reference kind. */
    AccessOutcome access(const Ref &ref);

    /**
     * Fill @p addr's block as a *prefetch*: no demand statistics
     * are charged, and nothing happens if the block is already
     * resident.  The outcome reports the fetch and any victim so
     * the timing layer can account the traffic.
     */
    AccessOutcome prefetch(Addr addr, Pid pid);

    /**
     * @return true if the block holding @p addr carries the
     * tagged-prefetch mark (set by prefetch(), cleared by the first
     * demand hit).
     */
    bool prefetchTagged(Addr addr, Pid pid) const;

    /**
     * Probe without side effects.
     * @return true if @p addr..@p addr+words-1 would hit.
     */
    bool probe(Addr addr, unsigned words, Pid pid) const;

    /** Invalidate everything (does not touch statistics). */
    void invalidateAll();

    /**
     * Return to the constructed state in place: every line, key,
     * fast-hit flag and victim slot empty, the replacement stream
     * reseeded from CacheConfig::replSeed, and the access sequence,
     * valid count and statistics zeroed.  The arrays keep their
     * storage, so a machine that runs many streams allocates them
     * once.
     */
    void reset();

    /** @return accumulated statistics. */
    const CacheStats &stats() const { return stats_; }

    /** Reset statistics (warm-start boundary); contents persist. */
    void resetStats() { stats_.reset(); }

    /** @return the organizational configuration. */
    const CacheConfig &config() const { return config_; }

    /** @return the diagnostic name. */
    const std::string &name() const { return name_; }

    /**
     * @return number of valid blocks currently resident.  O(1): the
     * count is maintained incrementally on fill/invalidate (debug
     * builds assert it against a full scan).
     */
    std::uint64_t validBlocks() const;

    /**
     * Serialize the organizational state - every line's tag, valid
     * and dirty masks and replacement metadata, the victim buffer,
     * the access sequence and the replacement RNG stream - so a
     * restored cache continues bit-identically (live-points
     * checkpoints, DESIGN.md section 12).  Statistics are not state:
     * the measurement boundary resets them anyway.
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state written by saveState() on a cache with the same
     * configuration.  The probe keys and fast-hit flags are derived
     * state and are rebuilt here; fatal()s on a shape mismatch or a
     * corrupt record.
     */
    void loadState(StateReader &r);


  private:
    /**
     * Cold per-line state: everything findLine() does not need.
     * The probe-relevant digest of a line (valid + tag + pid) is
     * mirrored into keys_ and must be resynced via syncKey() after
     * any mutation of tag, pid or present.
     */
    struct alignas(64) Line
    {
        Mask128 valid;             ///< per-word valid bits
        Mask128 dirty;             ///< per-word dirty bits
        Addr tag = 0;
        std::uint64_t lastUse = 0; ///< LRU recency (access sequence)
        std::uint64_t fillSeq = 0; ///< FIFO fill order
        Pid pid = 0;
        bool present = false;      ///< line holds a block
        bool prefetched = false;   ///< tagged-prefetch mark
    };
    static_assert(sizeof(Line) == 64,
                  "a hit should touch exactly one cache line");

    /** A parked block in the fully-associative victim cache. */
    struct VictimEntry
    {
        bool occupied = false;
        Addr blockAddr = 0;
        Pid pid = 0;
        Mask128 valid;
        Mask128 dirty;
        std::uint64_t lastUse = 0;
    };

    /** Pid bits fused into the low end of a tag key. */
    static constexpr unsigned kPidBits = 16;
    static_assert(sizeof(Pid) * 8 <= kPidBits,
                  "fused tag keys reserve too few pid bits");

    /**
     * Tags below this limit fuse exactly into a 64-bit key with the
     * pid; fused keys are then < 2^63, so the two top-bit-set
     * sentinels below can never alias a fast probe.  Tags at or
     * above the limit (addresses beyond 2^47 blocks x numSets; no
     * realistic trace) fall back to an exact scan of the cold
     * lines.
     */
    static constexpr Addr kTagLimit = Addr{1} << (63 - kPidBits);

    /** Key of an invalid line; never matches any probe. */
    static constexpr std::uint64_t kInvalidKey = ~std::uint64_t{0};

    /** findIndex() miss sentinel. */
    static constexpr std::size_t kNoLine = ~std::size_t{0};

    /** Key of a valid line whose tag exceeds kTagLimit. */
    static constexpr std::uint64_t kWideKey = ~std::uint64_t{0} - 1;

    /**
     * Park an evicted line; if the buffer casts out a dirty block,
     * report it through @p outcome as the write-back victim.
     */
    void parkVictim(const Line &line, Addr block_addr,
                    AccessOutcome &outcome);

    /** @return the victim-cache slot holding @p block_addr, if any. */
    VictimEntry *findVictim(Addr block_addr, Pid pid);

    /** Replace through the victim buffer (see the .cc comment). */
    Line &swapThroughVictims(Addr block_addr, Pid pid,
                             AccessOutcome &outcome);

    Line *findLine(Addr block_addr, Pid pid);
    const Line *findLine(Addr block_addr, Pid pid) const;

    /** findLine() returning an index into lines_, or kNoLine. */
    [[gnu::always_inline]] inline std::size_t
    findIndex(Addr block_addr, Pid pid) const;

    /** @return whether @p line qualifies for the fast-hit flag. */
    bool
    lineIsFast(const Line &line) const
    {
        return replKind_ != ReplPolicy::LRU && !line.prefetched &&
               (line.valid.lo & fullValid_.lo) == fullValid_.lo &&
               (line.valid.hi & fullValid_.hi) == fullValid_.hi;
    }
    Line &selectWay(Addr block_addr);
    Line &victimLine(Addr block_addr, AccessOutcome &outcome);
    void fill(Line &line, Addr block_addr, Pid pid, unsigned offset,
              unsigned words, AccessOutcome &outcome);

    /** Shared miss tail of readFast(): fetch sizing + placement. */
    void readMiss(Addr block_addr, Pid pid, unsigned offset,
                  unsigned words, AccessOutcome &outcome);

    /**
     * Out-of-line miss tails of the inline fast paths.  @p line is
     * the tag-matched resident line on a sub-block miss, nullptr on
     * a full miss.  Both (re)initialize @p outcome and return
     * HitKind::Miss.
     */
    HitKind readMissSlow(Line *line, Addr block_addr,
                         unsigned offset, unsigned words, Pid pid,
                         AccessOutcome &outcome);
    HitKind writeMissSlow(Addr block_addr, unsigned offset,
                          unsigned words, Pid pid,
                          AccessOutcome &outcome);

    std::uint64_t
    setIndex(Addr block_addr) const
    {
        return block_addr & setMask_;
    }

    Addr tagOf(Addr block_addr) const { return block_addr >> setShift_; }

    /**
     * Recompute @p line's entry in keys_ (and the incremental valid
     * count) from its tag/pid/valid state.  Must be called after
     * every mutation of those fields; fill(), swapThroughVictims()
     * and invalidateAll() are the only mutators.
     */
    void syncKey(const Line &line);

    CacheConfig config_;
    std::string name_;

    // Precomputed shift/mask indexing (configs are validated
    // power-of-two): addr -> block via blockShift_/blockMask_,
    // block_addr -> set/tag via setMask_/setShift_.
    unsigned blockShift_ = 0;
    unsigned setShift_ = 0;
    unsigned assocShift_ = 0;      ///< log2(assoc): set index -> way base
    Addr blockMask_ = 0;
    std::uint64_t setMask_ = 0;
    std::uint64_t pidMask_ = 0; ///< 0 when tags ignore the pid

    /**
     * Hot probe state, numSets x assoc, way-major per set: the
     * pid-fused tag key of each valid line, kInvalidKey/kWideKey
     * sentinels otherwise.  findLine() scans only this array.
     */
    std::vector<std::uint64_t> keys_;

    /**
     * One byte per line, parallel to keys_: nonzero when the line is
     * fully valid, not prefetch-marked, and the replacement policy
     * does not consume recency (non-LRU).  A read hit on a flagged
     * line needs nothing from the cold array at all.  The flag is a
     * conservative cache of lineIsFast(): set only on the slow hit
     * path (where the line is loaded anyway), cleared by syncKey()
     * and invalidateAll().  This stays sound without further
     * bookkeeping because outside syncKey() valid bits only ever
     * grow and the prefetch mark is only set right after a
     * syncKey()-guarded fill.
     */
    std::vector<std::uint8_t> fastFlags_;

    /** Word-valid mask of a completely valid block (precomputed). */
    Mask128 fullValid_;

    std::vector<Line> lines_; ///< cold state, parallel to keys_
    std::vector<VictimEntry> victims_; ///< fully-associative buffer

    // The victim policy, switched on in selectWay(); Random draws
    // from replRng_, seeded from CacheConfig::replSeed.
    ReplPolicy replKind_ = ReplPolicy::Random;
    Rng replRng_;

    std::uint64_t seq_ = 0;   ///< access sequence for LRU/FIFO
    std::uint64_t validBlocks_ = 0; ///< incremental resident count
    CacheStats stats_;
};

// The demand path is defined inline: System's reference loop calls
// these once or twice per simulated reference from another
// translation unit, and the non-LTO build must still inline the
// probe and the hit transitions (the miss tails are out of line in
// cache.cc).

[[gnu::always_inline]] inline std::size_t
Cache::findIndex(Addr block_addr, Pid pid) const
{
    const Addr tag = block_addr >> setShift_;
    const std::size_t base =
        static_cast<std::size_t>(block_addr & setMask_)
        << assocShift_;
    if (tag < kTagLimit) [[likely]] {
        // Fast probe over the contiguous fused-key array; invalid
        // and wide-tagged lines hold sentinels that can never equal
        // a fast probe key.  Four ways per iteration with portable
        // SWAR: for d = way ^ key, ((d - 1) & ~d) has its top bit
        // set iff d == 0, so four is-zero bits gather into one hit
        // mask and the scan takes a branch per four ways instead of
        // per way.  At most one way can match (a block resides in
        // one way), so the lowest set bit is *the* hit.
        const std::uint64_t key =
            (tag << kPidBits) | (pid & pidMask_);
        const std::uint64_t *keys = keys_.data() + base;
        const unsigned assoc = config_.assoc;
        std::size_t found = kNoLine;
        unsigned w = 0;
        for (; w + 4 <= assoc; w += 4) {
            const std::uint64_t d0 = keys[w + 0] ^ key;
            const std::uint64_t d1 = keys[w + 1] ^ key;
            const std::uint64_t d2 = keys[w + 2] ^ key;
            const std::uint64_t d3 = keys[w + 3] ^ key;
            const unsigned mask = static_cast<unsigned>(
                (((d0 - 1) & ~d0) >> 63) |
                ((((d1 - 1) & ~d1) >> 62) & 2) |
                ((((d2 - 1) & ~d2) >> 61) & 4) |
                ((((d3 - 1) & ~d3) >> 60) & 8));
            if (mask) {
                found = base + w +
                        static_cast<unsigned>(std::countr_zero(mask));
                break;
            }
        }
        if (found == kNoLine) {
            for (; w < assoc; ++w) { // scalar tail: assoc mod 4
                if (keys[w] == key) {
                    found = base + w;
                    break;
                }
            }
        }
        assert([&] { // SWAR must agree with the scalar scan
            for (unsigned v = 0; v < assoc; ++v)
                if (keys[v] == key)
                    return found == base + v;
            return found == kNoLine;
        }());
        return found;
    }
    // Wide tags (beyond 2^47 blocks x numSets) cannot fuse exactly;
    // compare the cold lines.  A wide probe can only match a wide
    // line and vice versa, so the two paths partition cleanly.
    const Line *set = &lines_[base];
    for (unsigned w = 0; w < config_.assoc; ++w) {
        const Line &line = set[w];
        if (line.present && line.tag == tag &&
            (!config_.virtualTags || line.pid == pid)) {
            return base + w;
        }
    }
    return kNoLine;
}

[[gnu::always_inline]] inline const Cache::Line *
Cache::findLine(Addr block_addr, Pid pid) const
{
    const std::size_t idx = findIndex(block_addr, pid);
    return idx == kNoLine ? nullptr : &lines_[idx];
}

inline Cache::Line *
Cache::findLine(Addr block_addr, Pid pid)
{
    return const_cast<Line *>(
        static_cast<const Cache *>(this)->findLine(block_addr, pid));
}

inline HitKind
Cache::readFast(Addr addr, unsigned words, Pid pid,
                AccessOutcome &outcome)
{
    ++seq_;
    ++stats_.readAccesses;

    const Addr block_addr = addr >> blockShift_;
    const unsigned offset = static_cast<unsigned>(addr & blockMask_);
    if (offset + words > config_.blockWords) [[unlikely]]
        panic("%s: read of %u words at offset %u crosses a block",
              name_.c_str(), words, offset);

    const std::size_t idx = findIndex(block_addr, pid);
    if (idx != kNoLine) [[likely]] {
        if (fastFlags_[idx]) [[likely]] {
            // Fully valid, unmarked, recency-free replacement: the
            // hit needs nothing from the cold line.  (lastUse is
            // left stale; only LRU reads it, and LRU never flags.)
            return HitKind::Hit;
        }
        Line *line = &lines_[idx];
        // words is a literal 1 at every System call site; the
        // ternaries fold to single-bit mask ops after inlining.
        const bool resident =
            words == 1 ? line->valid.test(offset)
                       : line->valid.testRange(offset, words);
        if (resident) [[likely]] {
            line->lastUse = seq_;
            if (!line->prefetched) [[likely]] {
                fastFlags_[idx] = lineIsFast(*line);
                return HitKind::Hit;
            }
            line->prefetched = false;
            ++stats_.prefetchHits;
            fastFlags_[idx] = lineIsFast(*line);
            return HitKind::HitPrefetched;
        }
        return readMissSlow(line, block_addr, offset, words, pid,
                            outcome);
    }
    return readMissSlow(nullptr, block_addr, offset, words, pid,
                        outcome);
}

inline HitKind
Cache::writeFast(Addr addr, unsigned words, Pid pid,
                 AccessOutcome &outcome)
{
    ++seq_;
    ++stats_.writeAccesses;

    const Addr block_addr = addr >> blockShift_;
    const unsigned offset = static_cast<unsigned>(addr & blockMask_);
    if (offset + words > config_.blockWords) [[unlikely]]
        panic("%s: write of %u words at offset %u crosses a block",
              name_.c_str(), words, offset);

    const std::size_t idx = findIndex(block_addr, pid);
    if (idx != kNoLine) [[likely]] {
        Line *line = &lines_[idx];
        line->lastUse = seq_;
        // The store makes these words valid (write-validate within a
        // resident line) and, for write-back, dirty.  words is a
        // literal 1 at every System call site; the ternaries fold
        // to the single-bit mask ops after inlining.
        if (words == 1)
            line->valid.set(offset);
        else
            line->valid.setRange(offset, words);
        if (config_.writePolicy == WritePolicy::WriteBack) [[likely]] {
            if (words == 1)
                line->dirty.set(offset);
            else
                line->dirty.setRange(offset, words);
        } else {
            stats_.wordsWrittenThrough += words;
        }
        fastFlags_[idx] = lineIsFast(*line);
        return HitKind::Hit;
    }
    return writeMissSlow(block_addr, offset, words, pid, outcome);
}

} // namespace cachetime

#endif // CACHETIME_CACHE_CACHE_HH
