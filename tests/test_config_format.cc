/**
 * @file
 * Tests for the key=value configuration format as one schema
 * (forEachKey() in sim/system_config.hh): the exact key set, the
 * round trip through configKeyValues() and applyKeyValues(), pins
 * recorded from the parser and writer this schema replaced, the key
 * list in docs/FORMATS.md, and validate()'s finite-time check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/sim_cache.hh"
#include "sim/system_config.hh"
#include "verify/fuzz.hh"

namespace cachetime
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** 64-bit FNV-1a of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Records the keys forEachKey() visits. */
struct KeyLister
{
    std::vector<std::string> written;
    std::vector<std::string> accepted;

    template <typename T>
    void
    operator()(const std::string &key, const T &)
    {
        written.push_back(key);
        accepted.push_back(key);
    }

    template <typename T>
    void
    operator()(const std::string &key, const T &, std::uint64_t)
    {
        accepted.push_back(key);
    }
};

KeyLister
listKeys()
{
    KeyLister lister;
    const SystemConfig config;
    forEachKey(config, lister);
    return lister;
}

/** The 79 keys the repro writer wrote, in its order, before the schema. */
const std::vector<std::string> kWrittenKeys = {
    "cycle_ns", "addressing", "tlb.entries", "tlb.assoc",
    "tlb.page_words", "tlb.miss_penalty_cycles", "tlb.phys_frames",
    "split", "cores", "protocol", "core_map", "cpu.read_hit_cycles",
    "cpu.write_hit_cycles", "cpu.pair_issue", "cpu.early_continuation",
    "icache.size_words", "icache.block_words", "icache.assoc",
    "icache.fetch_words", "icache.write_policy", "icache.alloc_policy",
    "icache.repl_policy", "icache.prefetch", "icache.victim_entries",
    "icache.virtual_tags", "icache.repl_seed", "dcache.size_words",
    "dcache.block_words", "dcache.assoc", "dcache.fetch_words",
    "dcache.write_policy", "dcache.alloc_policy", "dcache.repl_policy",
    "dcache.prefetch", "dcache.victim_entries", "dcache.virtual_tags",
    "dcache.repl_seed", "l1buffer.enabled", "l1buffer.depth",
    "l1buffer.read_priority", "l1buffer.check_read_match",
    "l1buffer.match_granularity_words", "l1buffer.coalesce",
    "l1buffer.drain_on_idle", "l1buffer.high_water", "has_l2",
    "l2cache.size_words", "l2cache.block_words", "l2cache.assoc",
    "l2cache.fetch_words", "l2cache.write_policy",
    "l2cache.alloc_policy", "l2cache.repl_policy", "l2cache.prefetch",
    "l2cache.victim_entries", "l2cache.virtual_tags",
    "l2cache.repl_seed", "l2.hit_cycles", "l2.upstream_rate_words",
    "l2.upstream_rate_cycles", "l2.victim_rate_words",
    "l2.victim_rate_cycles", "l2buffer.enabled", "l2buffer.depth",
    "l2buffer.read_priority", "l2buffer.check_read_match",
    "l2buffer.match_granularity_words", "l2buffer.coalesce",
    "l2buffer.drain_on_idle", "l2buffer.high_water",
    "memory.read_latency_ns", "memory.write_ns", "memory.recovery_ns",
    "memory.address_cycles", "memory.rate_words", "memory.rate_cycles",
    "memory.banks", "memory.load_forwarding", "memory.streaming",
};

TEST(ConfigFormat, WritesTheSameKeysInTheSameOrder)
{
    EXPECT_EQ(listKeys().written, kWrittenKeys);
}

TEST(ConfigFormat, AcceptsExactlyTheWrittenKeysPlusSizeKb)
{
    std::vector<std::string> expected = kWrittenKeys;
    for (const char *alias :
         {"icache.size_kb", "dcache.size_kb", "l2cache.size_kb"})
        expected.push_back(alias);
    std::vector<std::string> accepted = listKeys().accepted;
    std::sort(expected.begin(), expected.end());
    std::sort(accepted.begin(), accepted.end());
    EXPECT_EQ(accepted.size(), 82u);
    EXPECT_EQ(accepted, expected);
}

TEST(ConfigFormat, RoundTripsGeneratedConfigs)
{
    // 200 configs: every seed's mixed and coherent draw.
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        for (const SystemConfig &config :
             {verify::generateCase(seed).config,
              verify::generateCoherentCase(seed).config}) {
            const std::string text = configKeyValues(config);
            SystemConfig loaded;
            applyKeyValues(loaded, text);
            EXPECT_TRUE(simKey(loaded, 0) == simKey(config, 0))
                << "seed " << seed << "\n" << text;
            EXPECT_EQ(configKeyValues(loaded), text) << "seed " << seed;
        }
    }
}

TEST(ConfigFormat, SizeKbAndBoolSpellings)
{
    SystemConfig config;
    applyKeyValues(config, "dcache.size_words=100\ndcache.size_kb=2\n"
                           "split=no\nsplit=yes\n");
    EXPECT_EQ(config.dcache.sizeWords, 2u * 1024 / wordBytes);
    EXPECT_TRUE(config.split);
    // The largest size_kb whose word count fits in 64 bits.
    applyKeyValues(config, "dcache.size_kb=72057594037927935\n");
    EXPECT_EQ(config.dcache.sizeWords,
              72057594037927935ULL * (1024 / wordBytes));
}

TEST(ConfigFormatDeathTest, SizeKbOverflowIsFatal)
{
    SystemConfig config;
    EXPECT_EXIT(applyKeyValues(config,
                               "l2cache.size_kb=72057594037927936\n"),
                ::testing::ExitedWithCode(1),
                "fatal: config: l2cache.size_kb: '72057594037927936' is "
                "out of range");
}

SimKey
specKey(const std::vector<const char *> &files)
{
    SystemConfig config = SystemConfig::paperDefault();
    for (const char *file : files)
        applyKeyValues(config, slurp(std::string(CACHETIME_SOURCE_DIR) +
                                     "/configs/" + file));
    return simKey(config, 0);
}

// Recorded with the if-chain parser the schema replaced.
TEST(ConfigFormat, SpecFilesKeepTheirMachines)
{
    struct Pin
    {
        std::vector<const char *> files;
        SimKey key;
    };
    const Pin pins[] = {
        {{"baseline.spec"},
         {0x3881f9eebb087653ULL, 0x6d20f7c7e271baf2ULL}},
        {{"baseline.spec", "physical.vary"},
         {0x3a02dc84cd0e8075ULL, 0x1e5cb886ad4e480cULL}},
        {{"baseline.spec", "small_fast.vary"},
         {0x6187e09cef4a7d16ULL, 0x943617fca2b4f5bbULL}},
        {{"baseline.spec", "two_level.vary"},
         {0xa591164a03bd9265ULL, 0x0076384b060d2839ULL}},
    };
    for (const Pin &pin : pins) {
        const SimKey key = specKey(pin.files);
        EXPECT_EQ(key.lo, pin.key.lo) << pin.files.back();
        EXPECT_EQ(key.hi, pin.key.hi) << pin.files.back();
    }
}

// Recorded from the repro writer the schema replaced: the %config
// text of fuzz seeds 1..20 (seeds 2, 9, 11 and 13 are coherent).
TEST(ConfigFormat, FuzzReprosKeepTheirText)
{
    const std::uint64_t digests[] = {
        0x53aa60fb7320dfdaULL, 0x9c51e28b9ce4a37dULL,
        0x930b552455099cbaULL, 0xb65e43d074d2590fULL,
        0x5fd0ec046a813c6fULL, 0x35f348756bf6b82aULL,
        0xdd00200922d4f55aULL, 0xc9d58f40ab656d80ULL,
        0xe83421adea1a8416ULL, 0xc42d1c2e2306260cULL,
        0xe1cef2282b467262ULL, 0x7130e39ae7ed1727ULL,
        0x5a5805ce1af8b970ULL, 0x84ec7f2c5fd161e6ULL,
        0xab6c87623f0ffaa6ULL, 0x6d7d6637676a0d31ULL,
        0xa3e18c41d37125a6ULL, 0x2675ebcbcd0ac602ULL,
        0x853b59484f654b4bULL, 0x49486fb5e7cf522dULL,
    };
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const std::string text =
            configKeyValues(verify::generateCase(seed).config);
        EXPECT_EQ(fnv1a(text), digests[seed - 1])
            << "seed " << seed << "\n" << text;
    }
}

TEST(ConfigFormat, FormatsDocListsEveryKey)
{
    const std::string doc =
        slurp(std::string(CACHETIME_SOURCE_DIR) + "/docs/FORMATS.md");
    for (const std::string &key : listKeys().accepted)
        EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
            << key << " is missing from docs/FORMATS.md";
}

TEST(SystemConfigDeathTest, NonFiniteTimesAreFatal)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    SystemConfig config = SystemConfig::paperDefault();
    config.cycleNs = nan;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "cycleNs must be positive and finite");
    config = SystemConfig::paperDefault();
    config.memory.readLatencyNs = nan;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "memory.readLatencyNs must be finite");
    config = SystemConfig::paperDefault();
    config.memory.writeNs = inf;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "memory.writeNs must be finite");
    config = SystemConfig::paperDefault();
    config.memory.recoveryNs = -inf;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "memory.recoveryNs must be finite");
}

/**
 * A negative memory time would round to a free operation, so it is
 * fatal; zero stays a valid time.
 */
TEST(SystemConfigDeathTest, NegativeMemoryTimesAreFatal)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.memory.writeNs = -50.0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "memory.writeNs must be finite and non-negative, got -50");
    config = SystemConfig::paperDefault();
    config.memory.readLatencyNs = -1e-9;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "memory.readLatencyNs must be finite and non-negative");
    config = SystemConfig::paperDefault();
    config.memory.recoveryNs = 0.0;
    config.validate();
}

} // namespace
} // namespace cachetime
