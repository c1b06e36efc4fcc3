/**
 * @file
 * Single-pass stack simulation: miss counts for a whole grid of
 * cache sizes and set sizes from one traversal of the trace.
 *
 * Mattson's inclusion property says that under LRU replacement the
 * contents of an A-way set grow monotonically with A (for a fixed
 * set count), so one "stack" per set can answer hit/miss for every
 * associativity at once.  The classic single-stack construction is
 * *not* exact for this simulator, though: with no-write-allocate
 * data caches a store that hits in a large cache but misses in a
 * small one updates recency in the former and leaves the latter
 * untouched, so the per-associativity LRU orders diverge and no
 * single total order reproduces them.
 *
 * The kernel here keeps inclusion exact with one augmentation: each
 * set holds a master list M ordered by last *allocating or resident*
 * touch, and every entry carries a-star, the minimum associativity
 * at which the block is currently resident.  The level-A cache's
 * contents are exactly the entries with a-star <= A, in M order:
 *
 *  - a read (or write-allocate store) of X makes X resident at every
 *    level; each level A below X's old a-star that is full evicts
 *    its LRU member, which is the *last* entry in M order with
 *    a-star <= A - its a-star bumps to A+1 (processed in ascending
 *    A; falling past the deepest tracked level deletes the entry);
 *    X then moves to the front with a-star = 1;
 *  - a no-write-allocate store that finds X with a-star = k hits
 *    levels >= k (recency updates: X moves to the front of M, which
 *    reorders exactly the lists X belongs to) and misses levels < k
 *    *without* any state change there - a-star is untouched;
 *  - a no-write-allocate store that misses everywhere changes
 *    nothing.
 *
 * Both invariants are preserved by every transition: inclusion
 * (a-star <= A membership nests) and order consistency (M restricted
 * to level A is that cache's true LRU order).
 *
 * Each set's M is one dense row of fused (block << 16 | pid) keys in
 * M order, the production cache's key layout, so a probe scans 64
 * bytes at 8 ways.  Where every touch allocates (I-side layers and
 * write-allocate data layers) the model is plain LRU - level A holds
 * the row's first A keys, a-star is row position + 1 - and the row is
 * all there is.  No-write-allocate data layers keep a-stars in a
 * parallel array; since level A holds min(A, blocks ever allocated)
 * entries, a row of n entries carries each a-star 1..n once, and an
 * allocating touch makes every bump in one backward pass (DESIGN.md
 * section 10).  Direct-mapped layers keep one fused tag per set and a
 * validity bitmap instead of rows.
 *
 * Each access records its reuse level k in a histogram; misses at
 * level A are the histogram mass above A, so one pass yields exact
 * counters for every (size, assoc) point sharing a set count - and
 * layers for different set counts, block sizes or tag regimes run
 * side by side in the same pass, sharing only the decoded reference
 * stream.
 *
 * Eligibility (stackEligible): virtually-addressed machines with
 * demand fetching of whole blocks, no victim buffer, and LRU
 * replacement (or direct-mapped, where every policy coincides) -
 * which covers the paper's default machine and its entire
 * size/block-size grid.  Everything below the L1s is irrelevant:
 * nothing propagates back up into L1 contents, so miss counts do
 * not depend on the L2 or memory configuration.
 *
 * runMissRatioMany() answers miss-ratio-only queries (fig3/fig4-style
 * grids) through the grid driver (core/sweep.hh), the one place that
 * picks an engine per point: stack-eligible configs ride one pass per
 * (issue shape, trace), the rest the fused timing lattice, and both
 * produce ratios bit-identical to runGeoMeanMany's.
 *
 * A single pass is itself parallel when the process has threads to
 * spare: set-indexed simulation is embarrassingly parallel across
 * sets, so the kernel shards the set space by the set-index address
 * bits common to every layer in the lattice (stackShardBits()), has
 * the driver route each decoded chunk into per-shard sub-streams,
 * replays them on the work-stealing pool, and merges per-shard
 * histograms in fixed shard order - bit-identical to the serial
 * kernel at any CACHETIME_THREADS (DESIGN.md section 14 gives the
 * full determinism argument).  Grids with no common set-index bits
 * (e.g. containing a fully-associative point) fall back to the
 * serial kernel.
 */

#ifndef CACHETIME_CORE_STACK_SIM_HH
#define CACHETIME_CORE_STACK_SIM_HH

#include <vector>

#include "core/experiment.hh"
#include "sim/system.hh"

namespace cachetime
{

/**
 * @return true when @p config's L1 miss counts can be produced by
 * the stack kernel: Virtual addressing, no prefetching, no victim
 * buffer, whole-block fetch, and LRU or direct-mapped L1s.
 */
bool stackEligible(const SystemConfig &config);

/**
 * @return the number of set-index address bits shared by every L1
 * layer of @p configs - bits above the grid's largest block offset
 * and below its smallest set-index top - which is what the sharded
 * stack kernel routes on.  0 means no common bits exist (the kernel
 * then runs serially); the effective shard count is further capped
 * by the pool size.  Exposed for tests and bench telemetry.
 */
unsigned stackShardBits(const std::vector<SystemConfig> &configs);

/**
 * Simulate every config's L1 miss behaviour in one pass over
 * @p source and return partial SimResults, index-aligned with
 * @p configs: the icache/dcache access and miss counters (and the
 * measured reference counts) are exact - bit-identical to a full
 * run - and every timing field is zero.
 *
 * Every layer fuses (block, pid) into one 64-bit key, which is exact
 * only for word addresses below 2^48.  A stream reaching past that is
 * answered by simulateBatch (core/sweep.hh) instead, returning full
 * results after the wasted pass.
 *
 * Each call is one "stack" stage span (stats/telemetry.hh) counting
 * the layers and shards it built; an answered pass also counts one
 * of `passes` and configs.size() `points`, while a pass re-answered
 * by simulateBatch counts in its "batch" span as machines instead.
 *
 * Preconditions: every config is stackEligible(), and all share
 * `split` and effective pair-issue (the two knobs that shape issue
 * groups and hence the measured windows).  Configs may differ
 * freely in size, associativity, block size, tag regime and write
 * policies; each distinct (role, set count, block size, tags,
 * allocation) combination becomes one shared layer.
 */
std::vector<SimResult>
runStackSweep(const std::vector<SystemConfig> &configs,
              RefSource &source);

/**
 * Miss-ratio-only counterpart of runGeoMeanMany(): aggregate the
 * four miss ratios for every config over the geometric mean of
 * @p traces through the same grid driver (core/sweep.hh), which
 * picks the cheapest exact engine per config - stack-eligible
 * configs are grouped into single-pass stack sweeps, the rest run
 * through the fused cycle-accurate batch.  Results are the
 * MissRatioMetrics part of the aggregates runGeoMeanMany returns,
 * bit-identical as doubles.  Finished stack counters are memoized in
 * the global SimCache under a miss-ratio-specific key (full timing
 * results also satisfy miss-ratio queries, but never vice versa),
 * so a partially-swept lattice re-simulates only its missing points.
 * Defined in core/sweep.cc.
 */
std::vector<MissRatioMetrics>
runMissRatioMany(const std::vector<SystemConfig> &configs,
                 const std::vector<Trace> &traces);

} // namespace cachetime

#endif // CACHETIME_CORE_STACK_SIM_HH
