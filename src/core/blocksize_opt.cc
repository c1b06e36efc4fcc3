#include "core/blocksize_opt.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/mathutil.hh"

namespace cachetime
{

std::vector<BlockSizeCurve>
sweepBlockSize(const std::vector<SystemConfig> &bases,
               const std::vector<unsigned> &block_words,
               const std::vector<Trace> &traces)
{
    if (block_words.empty())
        fatal("sweepBlockSize: empty block-size axis");

    std::vector<SystemConfig> configs;
    configs.reserve(bases.size() * block_words.size());
    for (const SystemConfig &base : bases) {
        for (unsigned bw : block_words) {
            SystemConfig config = base;
            config.setL1BlockWords(bw);
            configs.push_back(config);
        }
    }
    const std::vector<AggregateMetrics> metrics =
        runGeoMeanMany(configs, traces);

    std::vector<BlockSizeCurve> curves(bases.size());
    for (std::size_t b = 0; b < bases.size(); ++b) {
        BlockSizeCurve &curve = curves[b];
        curve.blockWords = block_words;
        for (std::size_t k = 0; k < block_words.size(); ++k) {
            const AggregateMetrics &m =
                metrics[b * block_words.size() + k];
            curve.execNsPerRef.push_back(m.execNsPerRef);
            curve.readMissRatio.push_back(m.readMissRatio);
            curve.ifetchMissRatio.push_back(m.ifetchMissRatio);
            curve.loadMissRatio.push_back(m.loadMissRatio);
        }
    }
    return curves;
}

namespace
{

double
parabolicOptimumLog2(const std::vector<unsigned> &blocks,
                     const std::vector<double> &ys)
{
    if (blocks.size() != ys.size() || blocks.size() < 3)
        fatal("block-size optimum needs at least three points");
    std::vector<double> xs;
    xs.reserve(blocks.size());
    for (unsigned b : blocks)
        xs.push_back(std::log2(static_cast<double>(b)));
    double vertex = parabolicMinimum(xs, ys);
    return std::exp2(vertex);
}

} // namespace

double
optimalBlockWords(const BlockSizeCurve &curve)
{
    return parabolicOptimumLog2(curve.blockWords, curve.execNsPerRef);
}

double
missOptimalBlockWords(const BlockSizeCurve &curve)
{
    return parabolicOptimumLog2(curve.blockWords, curve.readMissRatio);
}

double
balancedBlockWords(double latencyCycles, const TransferRate &rate)
{
    if (latencyCycles <= 0.0)
        fatal("balancedBlockWords: latency must be positive");
    return latencyCycles * rate.wordsPerCycle();
}

} // namespace cachetime
