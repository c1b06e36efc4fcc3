/**
 * @file
 * Tests for SystemConfig defaults, helpers and key=value parsing.
 */

#include <gtest/gtest.h>

#include "sim/system_config.hh"

namespace cachetime
{
namespace
{

TEST(SystemConfig, PaperDefaultMatchesSectionTwo)
{
    SystemConfig config = SystemConfig::paperDefault();
    EXPECT_DOUBLE_EQ(config.cycleNs, 40.0);
    EXPECT_TRUE(config.split);
    EXPECT_EQ(config.icache.sizeWords, 16u * 1024);   // 64KB
    EXPECT_EQ(config.dcache.sizeWords, 16u * 1024);
    EXPECT_EQ(config.dcache.blockWords, 4u);
    EXPECT_EQ(config.dcache.assoc, 1u);
    EXPECT_EQ(config.dcache.writePolicy, WritePolicy::WriteBack);
    EXPECT_EQ(config.dcache.allocPolicy,
              AllocPolicy::NoWriteAllocate);
    EXPECT_EQ(config.l1Buffer.depth, 4u);
    EXPECT_FALSE(config.hasL2);
    EXPECT_DOUBLE_EQ(config.memory.readLatencyNs, 180.0);
    EXPECT_DOUBLE_EQ(config.memory.writeNs, 100.0);
    EXPECT_DOUBLE_EQ(config.memory.recoveryNs, 120.0);
    EXPECT_EQ(config.memory.rate.words, 1u);
    EXPECT_EQ(config.memory.rate.cycles, 1u);
    EXPECT_EQ(config.cpu.readHitCycles, 1u);
    EXPECT_EQ(config.cpu.writeHitCycles, 2u);
    config.validate(); // must not exit
}

TEST(SystemConfig, TotalL1Words)
{
    SystemConfig config = SystemConfig::paperDefault();
    EXPECT_EQ(config.totalL1Words(), 32u * 1024);
    config.split = false;
    EXPECT_EQ(config.totalL1Words(), 16u * 1024);
}

TEST(SystemConfig, SizeAndBlockHelpers)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(2048);
    EXPECT_EQ(config.icache.sizeWords, 2048u);
    EXPECT_EQ(config.dcache.sizeWords, 2048u);
    config.setL1BlockWords(16);
    EXPECT_EQ(config.icache.blockWords, 16u);
    EXPECT_EQ(config.l1Buffer.matchGranularityWords, 16u);
    config.setL1Assoc(4);
    EXPECT_EQ(config.icache.assoc, 4u);
    EXPECT_EQ(config.dcache.assoc, 4u);
}

TEST(SystemConfig, DescribeMentionsKeyFacts)
{
    SystemConfig config = SystemConfig::paperDefault();
    std::string text = config.describe();
    EXPECT_NE(text.find("64KB"), std::string::npos);
    EXPECT_NE(text.find("40ns"), std::string::npos);
    EXPECT_NE(text.find("4W"), std::string::npos);
}

TEST(ApplyKeyValues, ParsesScalarsAndSections)
{
    SystemConfig config = SystemConfig::paperDefault();
    applyKeyValues(config, R"(
# variation file, like the paper's
cycle_ns=25
dcache.size_kb=16
dcache.assoc=2
dcache.write_policy=wt
dcache.repl_policy=lru
icache.block_words=8
l1buffer.depth=8
l1buffer.coalesce=false
memory.read_latency_ns=260
memory.rate_words=2
cpu.early_continuation=true
has_l2=true
l2cache.size_kb=512
l2cache.block_words=16
l2cache.alloc_policy=wa
l2.hit_cycles=4
)");
    EXPECT_DOUBLE_EQ(config.cycleNs, 25.0);
    EXPECT_EQ(config.dcache.sizeWords, 4096u);
    EXPECT_EQ(config.dcache.assoc, 2u);
    EXPECT_EQ(config.dcache.writePolicy, WritePolicy::WriteThrough);
    EXPECT_EQ(config.dcache.replPolicy, ReplPolicy::LRU);
    EXPECT_EQ(config.icache.blockWords, 8u);
    EXPECT_EQ(config.l1Buffer.depth, 8u);
    EXPECT_FALSE(config.l1Buffer.coalesce);
    EXPECT_DOUBLE_EQ(config.memory.readLatencyNs, 260.0);
    EXPECT_EQ(config.memory.rate.words, 2u);
    EXPECT_TRUE(config.cpu.earlyContinuation);
    EXPECT_TRUE(config.hasL2);
    EXPECT_EQ(config.l2cache.sizeWords, 128u * 1024);
    EXPECT_EQ(config.l2cache.allocPolicy, AllocPolicy::WriteAllocate);
    EXPECT_EQ(config.l2Timing.hitCycles, 4u);
}

TEST(ApplyKeyValues, ParsesTranslationBanksAndPrefetch)
{
    SystemConfig config = SystemConfig::paperDefault();
    applyKeyValues(config, R"(
addressing=physical
tlb.entries=128
tlb.assoc=32
tlb.page_words=2048
tlb.miss_penalty_cycles=30
memory.banks=4
dcache.prefetch=tagged
icache.prefetch=on-miss
)");
    EXPECT_EQ(config.addressing, AddressMode::Physical);
    EXPECT_EQ(config.tlb.entries, 128u);
    EXPECT_EQ(config.tlb.assoc, 32u);
    EXPECT_EQ(config.tlb.pageWords, 2048u);
    EXPECT_EQ(config.tlb.missPenaltyCycles, 30u);
    EXPECT_EQ(config.memory.banks, 4u);
    EXPECT_EQ(config.dcache.prefetchPolicy, PrefetchPolicy::Tagged);
    EXPECT_EQ(config.icache.prefetchPolicy, PrefetchPolicy::OnMiss);
    config.validate();
}

TEST(AddressModeNames, Stable)
{
    EXPECT_STREQ(addressModeName(AddressMode::Virtual), "virtual");
    EXPECT_STREQ(addressModeName(AddressMode::Physical), "physical");
    EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::OnMiss),
                 "on-miss");
}

TEST(ApplyKeyValues, LayersLikeVariationFiles)
{
    // The paper layers variation files over a specification file;
    // later assignments win.
    SystemConfig config = SystemConfig::paperDefault();
    applyKeyValues(config, "cycle_ns=30\n");
    applyKeyValues(config, "cycle_ns=50\ndcache.assoc=8\n");
    EXPECT_DOUBLE_EQ(config.cycleNs, 50.0);
    EXPECT_EQ(config.dcache.assoc, 8u);
    // Untouched values persist.
    EXPECT_EQ(config.dcache.blockWords, 4u);
}

TEST(ApplyKeyValues, IgnoresCommentsAndBlanks)
{
    SystemConfig config = SystemConfig::paperDefault();
    applyKeyValues(config, "\n# only comments\n   \n");
    EXPECT_DOUBLE_EQ(config.cycleNs, 40.0);
    // A comment may follow a line's one key=value.
    applyKeyValues(config, "cycle_ns=25 # note\n");
    EXPECT_DOUBLE_EQ(config.cycleNs, 25.0);
}

} // namespace
} // namespace cachetime
