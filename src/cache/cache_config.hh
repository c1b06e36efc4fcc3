/**
 * @file
 * Organizational parameters of one cache.
 *
 * Terminology follows the paper: "set size" is the degree of
 * associativity, a "block" is the storage associated with one tag,
 * and the "fetch size" is the amount brought in from the next level
 * on a miss (it may be a sub-block).
 */

#ifndef CACHETIME_CACHE_CACHE_CONFIG_HH
#define CACHETIME_CACHE_CACHE_CONFIG_HH

#include <cstdint>

#include "util/parse.hh"
#include "util/types.hh"

namespace cachetime
{

/** How stores that hit are propagated. */
enum class WritePolicy : std::uint8_t
{
    WriteBack,    ///< dirty bits; blocks written back on replacement
    WriteThrough, ///< every store is sent to the next level
};

/** What happens on a store that misses. */
enum class AllocPolicy : std::uint8_t
{
    NoWriteAllocate, ///< the paper's default: no fetch on write miss
    WriteAllocate,   ///< fetch the block, then write it
};

/** Victim selection within a set. */
enum class ReplPolicy : std::uint8_t
{
    Random, ///< the paper's Section 4 choice
    LRU,
    FIFO,
};

/** Hardware prefetch of the sequentially next block (Smith). */
enum class PrefetchPolicy : std::uint8_t
{
    None,       ///< demand fetching only (the paper's setup)
    OnMiss,     ///< one-block-lookahead after each demand miss
    Tagged,     ///< lookahead on miss and on first use of a block
};

/** @return every spelling of each policy (util/parse.hh). */
EnumNames<WritePolicy> enumNames(WritePolicy);
EnumNames<AllocPolicy> enumNames(AllocPolicy);
EnumNames<ReplPolicy> enumNames(ReplPolicy);
EnumNames<PrefetchPolicy> enumNames(PrefetchPolicy);

/** @return a short stable name for the policy. */
const char *prefetchPolicyName(PrefetchPolicy policy);

/** @return a short stable name for each enumerator. */
const char *writePolicyName(WritePolicy policy);
const char *allocPolicyName(AllocPolicy policy);
const char *replPolicyName(ReplPolicy policy);

/** Full organizational description of one cache. */
struct CacheConfig
{
    /** Data capacity in words (e.g. 16384 words = 64KB). */
    std::uint64_t sizeWords = 16 * 1024;

    /** Block (line) size in words. */
    unsigned blockWords = 4;

    /** Set size, i.e. degree of associativity. */
    unsigned assoc = 1;

    /**
     * Fetch (transfer) size in words; 0 means fetch whole blocks,
     * smaller values enable sub-block fetching with per-word valid
     * bits.
     */
    unsigned fetchWords = 0;

    WritePolicy writePolicy = WritePolicy::WriteBack;
    AllocPolicy allocPolicy = AllocPolicy::NoWriteAllocate;
    ReplPolicy replPolicy = ReplPolicy::Random;
    PrefetchPolicy prefetchPolicy = PrefetchPolicy::None;

    /**
     * Entries of a fully-associative victim cache beside this
     * cache (Jouppi).  Evicted blocks park there; a miss that hits
     * the victim cache swaps blocks back in a cycle or two instead
     * of paying the memory penalty - conflict-miss relief without
     * the set-associativity cycle-time cost of Section 4.  0
     * disables it (the paper's setup).
     */
    unsigned victimEntries = 0;

    /** Virtual cache: include the pid in the tag (paper default). */
    bool virtualTags = true;

    /** Seed for the Random replacement policy. */
    std::uint64_t replSeed = 0xcace;

    /** @return number of sets (capacity / (block * assoc)). */
    std::uint64_t
    numSets() const
    {
        return sizeWords / (static_cast<std::uint64_t>(blockWords) *
                            assoc);
    }

    /** @return effective fetch size in words. */
    unsigned
    effectiveFetchWords() const
    {
        return fetchWords == 0 ? blockWords : fetchWords;
    }

    /** @return capacity in bytes. */
    std::uint64_t sizeBytes() const { return sizeWords * wordBytes; }

    /** Fatal-exit unless the configuration is self-consistent. */
    void validate(const char *what = "cache") const;
};

} // namespace cachetime

#endif // CACHETIME_CACHE_CACHE_CONFIG_HH
