/**
 * @file
 * Integration tests: the paper's qualitative claims, checked on the
 * actual Table 1 workloads at a reduced scale.  These are the
 * "shape" assertions the reproduction stands on.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/blocksize_opt.hh"
#include "core/breakeven.hh"
#include "core/experiment.hh"
#include "core/miss_penalty.hh"
#include "core/tradeoff.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"

namespace cachetime
{
namespace
{

/** Shared reduced-scale trace set, generated once for the suite. */
class Integration : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuiet(true);
        traces_ = new std::vector<Trace>(generateTable1(0.04));
    }

    static void
    TearDownTestSuite()
    {
        delete traces_;
        traces_ = nullptr;
    }

    static const std::vector<Trace> &
    traces()
    {
        return *traces_;
    }

    static std::vector<Trace> *traces_;
};

std::vector<Trace> *Integration::traces_ = nullptr;

TEST_F(Integration, AllEightTracesGenerated)
{
    ASSERT_EQ(traces().size(), 8u);
    for (const Trace &t : traces()) {
        EXPECT_GT(t.size(), 10000u) << t.name();
        EXPECT_GT(t.warmStart(), 0u) << t.name();
    }
}

TEST_F(Integration, MissRatioFallsWithCacheSize)
{
    SystemConfig config = SystemConfig::paperDefault();
    double prev = 1.0;
    for (std::uint64_t words : {512u, 4096u, 32768u, 262144u}) {
        config.setL1SizeWordsEach(words);
        double miss = runGeoMean(config, traces()).readMissRatio;
        EXPECT_LT(miss, prev);
        prev = miss;
    }
}

TEST_F(Integration, AssociativityCutsMissRatio)
{
    // Figure 4-1: 1 -> 2 ways drops the miss ratio noticeably.
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(16 * 1024); // 128KB total
    double dm = runGeoMean(config, traces()).readMissRatio;
    config.setL1Assoc(2);
    double two = runGeoMean(config, traces()).readMissRatio;
    EXPECT_LT(two, dm);
    EXPECT_GT((dm - two) / dm, 0.05);
}

TEST_F(Integration, AssocGainBeyondTwoIsSmaller)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(16 * 1024);
    auto miss = [&](unsigned a) {
        SystemConfig c = config;
        c.setL1Assoc(a);
        return runGeoMean(c, traces()).readMissRatio;
    };
    double m1 = miss(1), m2 = miss(2), m4 = miss(4);
    EXPECT_LT(m1 - m2, m1);
    // The 2->4 improvement is smaller than the 1->2 improvement.
    EXPECT_LT(m2 - m4, m1 - m2);
}

TEST_F(Integration, ExecutionTimeOptimalBlockBelowMissOptimal)
{
    // Section 5's headline.
    SystemConfig config = SystemConfig::paperDefault();
    config.memory.readLatencyNs = 260.0;
    config.memory.writeNs = 260.0;
    config.memory.recoveryNs = 260.0;
    BlockSizeCurve curve = sweepBlockSize(
        {config}, {1, 2, 4, 8, 16, 32, 64}, traces())[0];
    EXPECT_LT(optimalBlockWords(curve),
              missOptimalBlockWords(curve));
}

TEST_F(Integration, OptimalBlockGrowsWithMemoryProduct)
{
    // Figure 5-4: larger la x tr product -> larger optimal block.
    SystemConfig fast_bus = SystemConfig::paperDefault();
    fast_bus.memory.rate = {4, 1};
    SystemConfig slow_bus = SystemConfig::paperDefault();
    slow_bus.memory.rate = {1, 4};
    std::vector<unsigned> blocks{1, 2, 4, 8, 16, 32, 64};
    std::vector<BlockSizeCurve> curves =
        sweepBlockSize({fast_bus, slow_bus}, blocks, traces());
    double opt_fast = optimalBlockWords(curves[0]);
    double opt_slow = optimalBlockWords(curves[1]);
    EXPECT_GT(opt_fast, opt_slow);
}

TEST_F(Integration, BreakEvenBudgetsAreSmallAtLargeSizes)
{
    // Figures 4-3..4-5: at large cache sizes the break-even budget
    // is only a few nanoseconds.
    std::vector<std::uint64_t> sizes{16 * 1024, 64 * 1024};
    std::vector<double> cycles{20, 30, 40, 50, 60, 70, 80};
    SystemConfig base = SystemConfig::paperDefault();
    SpeedSizeGrid dm =
        buildSpeedSizeGrid(base, sizes, cycles, traces()).smoothed();
    SpeedSizeGrid sa =
        buildAssocGrid(base, 2, sizes, cycles, traces()).smoothed();
    BreakEvenMap map = computeBreakEven(dm, sa, 2);
    // 128KB and 512KB total: budget below the select-to-out delay.
    for (const auto &row : map.breakEvenNs)
        for (double v : row)
            EXPECT_LT(v, asMuxSelectToOutNs);
}

TEST_F(Integration, MultiLevelHelpsSmallFastL1)
{
    // Section 6: with a small fast L1, adding an L2 improves
    // execution time.
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(1024); // 4KB each
    config.cycleNs = 20.0;
    AggregateMetrics without = runGeoMean(config, traces());

    config.hasL2 = true;
    config.l2cache.sizeWords = 128 * 1024;
    config.l2cache.blockWords = 16;
    config.l2cache.allocPolicy = AllocPolicy::WriteAllocate;
    config.l2Buffer.matchGranularityWords = 16;
    AggregateMetrics with_l2 = runGeoMean(config, traces());

    EXPECT_LT(with_l2.execNsPerRef, without.execNsPerRef * 0.95);
}

TEST_F(Integration, MissPenaltyTableStructure)
{
    std::vector<std::uint64_t> sizes{512, 2048, 8192};
    std::vector<double> cycles{20, 32, 44, 56, 68, 80};
    SystemConfig base = SystemConfig::paperDefault();
    SpeedSizeGrid grid =
        buildSpeedSizeGrid(base, sizes, cycles, traces());
    MissPenaltyTable table = computeMissPenaltyTable(grid, base);
    ASSERT_EQ(table.rows.size(), cycles.size());
    for (const auto &row : table.rows) {
        ASSERT_EQ(row.cyclesPerRef.size(), sizes.size());
        // Cycles per reference falls with cache size at any penalty.
        for (std::size_t i = 1; i < sizes.size(); ++i)
            EXPECT_LE(row.cyclesPerRef[i],
                      row.cyclesPerRef[i - 1] * 1.02);
    }
    // Penalty falls as cycle time grows (Table 2).
    EXPECT_GT(table.rows.front().readPenaltyCycles,
              table.rows.back().readPenaltyCycles);
}

TEST_F(Integration, WriteTrafficBlockCurveDominatesWordCurve)
{
    // Figure 3-1: counting whole dirty blocks always yields at
    // least the dirty-word traffic.
    SystemConfig config = SystemConfig::paperDefault();
    for (std::uint64_t words : {1024u, 16384u}) {
        config.setL1SizeWordsEach(words);
        AggregateMetrics m = runGeoMean(config, traces());
        EXPECT_GE(m.writeTrafficBlockRatio,
                  m.writeTrafficWordRatio);
    }
}

} // namespace
} // namespace cachetime
