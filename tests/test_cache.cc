/**
 * @file
 * Unit tests for the organizational cache model.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "util/rng.hh"
#include "util/serialize.hh"

namespace cachetime
{
namespace
{

CacheConfig
smallConfig()
{
    CacheConfig config;
    config.sizeWords = 64; // 4 sets x 1 way x 16... see below
    config.blockWords = 4;
    config.assoc = 1;
    config.replPolicy = ReplPolicy::LRU;
    return config;
}

TEST(CacheConfig, NumSets)
{
    CacheConfig config = smallConfig();
    EXPECT_EQ(config.numSets(), 16u);
    config.assoc = 4;
    EXPECT_EQ(config.numSets(), 4u);
}

TEST(CacheConfig, EffectiveFetchDefaultsToBlock)
{
    CacheConfig config = smallConfig();
    EXPECT_EQ(config.effectiveFetchWords(), 4u);
    config.fetchWords = 2;
    EXPECT_EQ(config.effectiveFetchWords(), 2u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallConfig());
    AccessOutcome first = cache.read(100, 1, 0);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(first.filled);
    EXPECT_EQ(first.fetchedWords, 4u);
    AccessOutcome second = cache.read(100, 1, 0);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(cache.stats().readMisses, 1u);
    EXPECT_EQ(cache.stats().readAccesses, 2u);
}

TEST(Cache, SpatialHitWithinBlock)
{
    Cache cache(smallConfig());
    cache.read(100, 1, 0); // fills block covering words 100..103
    EXPECT_TRUE(cache.read(101, 1, 0).hit);
    EXPECT_TRUE(cache.read(103, 1, 0).hit);
    EXPECT_FALSE(cache.read(104, 1, 0).hit); // next block
}

TEST(Cache, FetchAddressIsAligned)
{
    Cache cache(smallConfig());
    AccessOutcome outcome = cache.read(102, 1, 0);
    EXPECT_EQ(outcome.fetchAddr, 100u);
    EXPECT_EQ(outcome.fetchCriticalOffset, 2u);
}

TEST(Cache, DirectMappedConflict)
{
    Cache cache(smallConfig()); // 16 sets of 4W = 64W
    cache.read(0, 1, 0);
    cache.read(64, 1, 0); // same set (0), different tag -> evict
    EXPECT_FALSE(cache.read(0, 1, 0).hit);
}

/**
 * A one-way set has one candidate, so a direct-mapped Random cache
 * consults no policy on a miss: after conflict misses, the
 * replacement stream its checkpoint records is still the seed's.
 */
TEST(Cache, OneWaySetsDrawNoReplacementNumber)
{
    CacheConfig config = smallConfig(); // 16 sets of 4W
    config.replPolicy = ReplPolicy::Random;
    Cache cache(config);
    for (Addr addr = 0; addr < 8 * 64; addr += 64)
        cache.read(addr, 1, 0); // set 0, a new tag each time
    EXPECT_EQ(cache.stats().readMisses, 8u);
    EXPECT_EQ(cache.stats().blocksReplaced, 7u);

    StateWriter writer;
    cache.saveState(writer);
    StateReader reader(writer.buffer().data(), writer.buffer().size(),
                       "cache");
    reader.u64(); // the recency sequence
    std::uint64_t seed_state[4];
    Rng(config.replSeed).state(seed_state);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(reader.u64(), seed_state[i]) << "state word " << i;
}

TEST(Cache, TwoWayAvoidsThatConflict)
{
    CacheConfig config = smallConfig();
    config.assoc = 2;
    Cache cache(config);
    cache.read(0, 1, 0);
    cache.read(64, 1, 0);
    EXPECT_TRUE(cache.read(0, 1, 0).hit);
    EXPECT_TRUE(cache.read(64, 1, 0).hit);
}

TEST(Cache, VirtualTagsSeparatePids)
{
    Cache cache(smallConfig());
    cache.read(100, 1, 1);
    EXPECT_FALSE(cache.read(100, 1, 2).hit);
    EXPECT_FALSE(cache.read(100, 1, 1).hit); // pid 2 evicted pid 1
}

TEST(Cache, PhysicalTagsIgnorePid)
{
    CacheConfig config = smallConfig();
    config.virtualTags = false;
    Cache cache(config);
    cache.read(100, 1, 1);
    EXPECT_TRUE(cache.read(100, 1, 2).hit);
}

TEST(Cache, WriteBackMarksDirtyAndReportsVictim)
{
    Cache cache(smallConfig());
    cache.read(0, 1, 0);
    cache.write(1, 1, 0); // dirty one word of the resident block
    AccessOutcome evict = cache.read(64, 1, 0); // evicts block 0
    EXPECT_TRUE(evict.victimValid);
    EXPECT_TRUE(evict.victimDirty);
    EXPECT_EQ(evict.victimDirtyWords, 1u);
    EXPECT_EQ(evict.victimBlockAddr, 0u);
    EXPECT_EQ(cache.stats().dirtyBlocksReplaced, 1u);
    EXPECT_EQ(cache.stats().dirtyWordsReplaced, 1u);
}

TEST(Cache, CleanVictimIsNotDirty)
{
    Cache cache(smallConfig());
    cache.read(0, 1, 0);
    AccessOutcome evict = cache.read(64, 1, 0);
    EXPECT_TRUE(evict.victimValid);
    EXPECT_FALSE(evict.victimDirty);
    EXPECT_EQ(cache.stats().dirtyBlocksReplaced, 0u);
}

TEST(Cache, NoWriteAllocateBypasses)
{
    Cache cache(smallConfig()); // no-write-allocate default
    AccessOutcome miss = cache.write(40, 1, 0);
    EXPECT_FALSE(miss.hit);
    EXPECT_FALSE(miss.filled);
    EXPECT_EQ(cache.stats().writeMisses, 1u);
    EXPECT_EQ(cache.stats().wordsWrittenThrough, 1u);
    // The block is still absent.
    EXPECT_FALSE(cache.read(40, 1, 0).hit);
}

TEST(Cache, WriteAllocateFills)
{
    CacheConfig config = smallConfig();
    config.allocPolicy = AllocPolicy::WriteAllocate;
    Cache cache(config);
    AccessOutcome miss = cache.write(40, 1, 0);
    EXPECT_FALSE(miss.hit);
    EXPECT_TRUE(miss.filled);
    EXPECT_TRUE(cache.read(40, 1, 0).hit);
    // The written word is dirty.
    AccessOutcome evict = cache.read(40 + 64, 1, 0);
    EXPECT_TRUE(evict.victimDirty);
}

TEST(Cache, WriteThroughNeverDirty)
{
    CacheConfig config = smallConfig();
    config.writePolicy = WritePolicy::WriteThrough;
    Cache cache(config);
    cache.read(0, 1, 0);
    cache.write(0, 1, 0);
    EXPECT_EQ(cache.stats().wordsWrittenThrough, 1u);
    AccessOutcome evict = cache.read(64, 1, 0);
    EXPECT_FALSE(evict.victimDirty);
}

TEST(Cache, SubBlockFetchValidBits)
{
    CacheConfig config = smallConfig();
    config.fetchWords = 2; // half-block fetches
    Cache cache(config);
    AccessOutcome first = cache.read(100, 1, 0);
    EXPECT_EQ(first.fetchedWords, 2u);
    EXPECT_TRUE(cache.read(101, 1, 0).hit);
    // Other half of the block: tag matches but words invalid.
    AccessOutcome sub = cache.read(102, 1, 0);
    EXPECT_FALSE(sub.hit);
    EXPECT_TRUE(sub.tagMatch);
    EXPECT_EQ(cache.stats().subBlockMisses, 1u);
    EXPECT_FALSE(sub.victimValid); // no replacement needed
    EXPECT_TRUE(cache.read(103, 1, 0).hit);
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.probe(100, 1, 0));
    EXPECT_EQ(cache.stats().readAccesses, 0u);
    cache.read(100, 1, 0);
    EXPECT_TRUE(cache.probe(100, 1, 0));
}

TEST(Cache, InvalidateAllEmptiesCache)
{
    Cache cache(smallConfig());
    cache.read(0, 1, 0);
    cache.read(4, 1, 0);
    EXPECT_EQ(cache.validBlocks(), 2u);
    cache.invalidateAll();
    EXPECT_EQ(cache.validBlocks(), 0u);
    EXPECT_FALSE(cache.probe(0, 1, 0));
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache cache(smallConfig());
    cache.read(0, 1, 0);
    cache.resetStats();
    EXPECT_EQ(cache.stats().readAccesses, 0u);
    EXPECT_TRUE(cache.read(0, 1, 0).hit);
}

TEST(Cache, AccessDispatchesOnKind)
{
    Cache cache(smallConfig());
    cache.access({100, RefKind::IFetch, 0});
    cache.access({200, RefKind::Load, 0});
    cache.access({300, RefKind::Store, 0});
    EXPECT_EQ(cache.stats().readAccesses, 2u);
    EXPECT_EQ(cache.stats().writeAccesses, 1u);
}

TEST(CacheStats, Ratios)
{
    CacheStats stats;
    stats.readAccesses = 200;
    stats.readMisses = 30;
    stats.writeAccesses = 50;
    stats.writeMisses = 10;
    EXPECT_DOUBLE_EQ(stats.readMissRatio(), 0.15);
    EXPECT_DOUBLE_EQ(stats.writeMissRatio(), 0.2);
    CacheStats empty;
    EXPECT_DOUBLE_EQ(empty.readMissRatio(), 0.0);
}

/** LRU stack property: a bigger fully-associative LRU cache never
 * misses more on the same trace (parameterized over sizes). */
class LruInclusion : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LruInclusion, BiggerNeverWorse)
{
    unsigned size_blocks = GetParam();
    auto run = [&](unsigned blocks) {
        CacheConfig config;
        config.blockWords = 4;
        config.assoc = blocks; // fully associative
        config.sizeWords = static_cast<std::uint64_t>(blocks) * 4;
        config.replPolicy = ReplPolicy::LRU;
        Cache cache(config);
        // Deterministic pseudo-random word stream.
        std::uint64_t x = 12345;
        std::uint64_t misses = 0;
        for (int i = 0; i < 4000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            Addr addr = (x >> 33) % 512;
            misses += !cache.read(addr, 1, 0).hit;
        }
        return misses;
    };
    EXPECT_GE(run(size_blocks), run(size_blocks * 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LruInclusion,
                         ::testing::Values(2, 4, 8, 16, 32));

} // namespace
} // namespace cachetime
