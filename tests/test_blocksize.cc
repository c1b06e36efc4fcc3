/**
 * @file
 * Tests for the block-size optimization analysis.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/blocksize_opt.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"

namespace cachetime
{
namespace
{

TEST(BlockSize, BalancedBlockIsLatencyTimesRate)
{
    EXPECT_DOUBLE_EQ(balancedBlockWords(6.0, TransferRate{1, 1}),
                     6.0);
    EXPECT_DOUBLE_EQ(balancedBlockWords(6.0, TransferRate{4, 1}),
                     24.0);
    EXPECT_DOUBLE_EQ(balancedBlockWords(8.0, TransferRate{1, 4}),
                     2.0);
}

TEST(BlockSize, OptimumOfSyntheticCurve)
{
    // exec ~ parabola in log2(BS) with vertex at 8W.
    BlockSizeCurve curve;
    for (unsigned b : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        double x = std::log2(static_cast<double>(b));
        curve.blockWords.push_back(b);
        curve.execNsPerRef.push_back(10.0 + (x - 3.0) * (x - 3.0));
        curve.readMissRatio.push_back(
            5.0 + (x - 5.0) * (x - 5.0)); // vertex at 32W
    }
    EXPECT_NEAR(optimalBlockWords(curve), 8.0, 1e-6);
    EXPECT_NEAR(missOptimalBlockWords(curve), 32.0, 1e-6);
}

TEST(BlockSize, EdgeMinimumReturnsEndpoint)
{
    BlockSizeCurve curve;
    for (unsigned b : {4u, 8u, 16u}) {
        curve.blockWords.push_back(b);
        curve.execNsPerRef.push_back(static_cast<double>(b));
        curve.readMissRatio.push_back(1.0 / b);
    }
    EXPECT_DOUBLE_EQ(optimalBlockWords(curve), 4.0);
    EXPECT_DOUBLE_EQ(missOptimalBlockWords(curve), 16.0);
}

class BlockSizeSim : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuiet(true);
        traces_ = new std::vector<Trace>{
            generate(table1Workloads()[0], 0.01),
            generate(table1Workloads()[5], 0.01)};
    }

    static void
    TearDownTestSuite()
    {
        delete traces_;
        traces_ = nullptr;
    }

    static std::vector<Trace> *traces_;
};

std::vector<Trace> *BlockSizeSim::traces_ = nullptr;

TEST_F(BlockSizeSim, SweepProducesOnePointPerBlockSize)
{
    SystemConfig base = SystemConfig::paperDefault();
    std::vector<unsigned> blocks{2, 4, 8, 16};
    BlockSizeCurve curve = sweepBlockSize({base}, blocks, *traces_)[0];
    EXPECT_EQ(curve.blockWords, blocks);
    EXPECT_EQ(curve.execNsPerRef.size(), blocks.size());
    EXPECT_EQ(curve.readMissRatio.size(), blocks.size());
    for (double v : curve.execNsPerRef)
        EXPECT_GT(v, 0.0);
}

TEST_F(BlockSizeSim, MissRatioFallsFromOneWordBlocks)
{
    // Spatial locality: going from 1W to 4W blocks must cut the
    // miss ratio.
    SystemConfig base = SystemConfig::paperDefault();
    BlockSizeCurve curve =
        sweepBlockSize({base}, {1, 4}, *traces_)[0];
    EXPECT_LT(curve.readMissRatio[1], curve.readMissRatio[0]);
}

TEST_F(BlockSizeSim, ExecOptimumNotAboveMissOptimum)
{
    // The paper's Section 5 claim, on the simulator itself.
    SystemConfig base = SystemConfig::paperDefault();
    base.memory.readLatencyNs = 260.0;
    base.memory.writeNs = 260.0;
    base.memory.recoveryNs = 260.0;
    BlockSizeCurve curve =
        sweepBlockSize({base}, {1, 2, 4, 8, 16, 32, 64}, *traces_)[0];
    EXPECT_LE(optimalBlockWords(curve),
              missOptimalBlockWords(curve) + 1e-9);
}

} // namespace
} // namespace cachetime
