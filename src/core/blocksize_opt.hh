/**
 * @file
 * Block-size vs. memory-speed analysis (Section 5).
 *
 * The cache miss penalty is la + BS/tr cycles (latency plus
 * transfer), so the execution-time-optimal block size is much
 * smaller than the miss-ratio-optimal one, and - to first order -
 * depends only on the product la x tr.  These helpers sweep block
 * size under any number of memory models in one grid query,
 * estimate the non-integral optimum by fitting a parabola through
 * the lowest three points (the paper's procedure, done in log2(block
 * size) space since the figures' block axis is logarithmic), and
 * compute the "balanced" block size at which transfer time equals
 * latency (the dotted line of Figure 5-4 that the real optimum does
 * *not* follow).
 */

#ifndef CACHETIME_CORE_BLOCKSIZE_OPT_HH
#define CACHETIME_CORE_BLOCKSIZE_OPT_HH

#include <vector>

#include "core/experiment.hh"

namespace cachetime
{

/** Metrics across a block-size sweep under one memory model. */
struct BlockSizeCurve
{
    std::vector<unsigned> blockWords;
    std::vector<double> execNsPerRef;
    std::vector<double> readMissRatio;
    std::vector<double> ifetchMissRatio;
    std::vector<double> loadMissRatio;
};

/**
 * Sweep L1 block size with all else fixed by each of @p bases: one
 * curve per base, in order, from one runGeoMeanGrid over every
 * (base, block size) point.  Bases that differ only in timing (the
 * memory systems of Figures 5-2 to 5-4) share one front end per
 * block size.
 */
std::vector<BlockSizeCurve>
sweepBlockSize(const std::vector<SystemConfig> &bases,
               const std::vector<unsigned> &block_words,
               const std::vector<Trace> &traces);

/**
 * @return the non-integral block size minimizing execution time,
 * from a parabola fit through the minimum and its neighbours in
 * log2(block size) space.
 */
double optimalBlockWords(const BlockSizeCurve &curve);

/** Same estimator applied to the miss-ratio curve. */
double missOptimalBlockWords(const BlockSizeCurve &curve);

/**
 * @return the block size at which transfer time equals the latency:
 * BS = la x tr (the "experienced engineer's" balance point).
 *
 * @param latencyCycles   la, in cycles
 * @param rate            tr, words per cycle
 */
double balancedBlockWords(double latencyCycles,
                          const TransferRate &rate);

} // namespace cachetime

#endif // CACHETIME_CORE_BLOCKSIZE_OPT_HH
