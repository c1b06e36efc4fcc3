/**
 * @file
 * The sweep engine: one trace pass, many caches, and the one grid
 * driver every design-grid query runs through.
 *
 * Grid sweeps historically cost O(configs x refs) because every grid
 * point re-consumed the whole reference stream.  This module is the
 * batched counterpart, built on the Simulator interface's resumable
 * run (beginRun / feedChunk / endRun, sim/simulator.hh): a
 * ChunkFeeder decodes each span of the stream once and replays it
 * across a batch of machines, each built by makeSimulator(), so
 * trace I/O, decode and synthetic-stream generation are paid once
 * per span instead of once per config.  Coherent and classic
 * machines share a batch.  Results are bit-identical to running
 * each config alone - a machine's evolution depends only on its own
 * state and the reference sequence, and tests/test_differential.cc
 * holds the batched path to exact agreement at 1 and 8 threads.
 *
 * Probe once, time many: classic configs of equal frontEndKey()
 * (core/sim_cache.hh) - the same L1 and TLB organization and issue
 * shape, differing only in timing - share one front end inside a
 * batch.  The first such config's machine scans each span once into
 * an event list (its misses, tagged-prefetch hits, write-through
 * stores, TLB misses and measure edges), and every config of the key
 * is a timing back end of that machine (System::addBackEnd()),
 * replaying only the events and jumping the hit runs between them.
 * The cache model is time-free, so every back end sees exactly the
 * answers it would have computed itself.  The grid driver orders
 * fused points by that key before cutting groups, so equal
 * organizations land in one batch, and a Fig 3-3 speed-size grid
 * probes each L1 organization once per trace and pays per miss, not
 * per reference, for each cycle time.
 *
 * The grid driver (sweep.cc) answers both of the paper's grid
 * queries: runGeoMeanGrid (core/experiment.hh) for execution time and
 * runMissRatioMany (core/stack_sim.hh) for miss ratios are thin
 * wrappers over it.  It is the one place that picks the engine for a
 * grid point - the single-pass stack kernel (core/stack_sim.hh) for
 * stack-eligible points of a miss-ratio query, this fused timing
 * lattice for everything else - and it probes the SimCache, runs one
 * task per (config group, trace) on the pool, and aggregates every
 * config with aggregateResults, all inside one "simulate" stage span
 * (stats/telemetry.hh).
 * The timing query also hands back every (config, trace) run it
 * aggregated, so one query per figure serves the figure's aggregates
 * and raw counters alike.
 */

#ifndef CACHETIME_CORE_SWEEP_HH
#define CACHETIME_CORE_SWEEP_HH

#include <memory>
#include <vector>

#include "sim/system.hh"

namespace cachetime
{

/** The fused batch driver's limits; constants, tuned once. */
struct BatchOptions
{
    /**
     * Most configs replayed per stream pass.  Wider batches amortize
     * decode further but dilute per-machine cache locality; eight is
     * past the knee for every stream family benchmarked.
     */
    static constexpr std::size_t maxBatch = 8;

    /**
     * Cap on the summed state-arena footprint of one sub-batch, so a
     * sweep over multi-megabyte caches cannot balloon resident
     * memory (a 2MB-word cache costs ~40MB of simulator state).  A
     * sub-batch always admits at least one config.
     */
    static constexpr std::size_t memoryBudgetBytes = std::size_t{256}
                                                     << 20;
};

/**
 * Run every config over @p source in one streaming pass and return
 * the per-config results, index-aligned with @p configs.  The caller
 * sizes the batch (see BatchOptions and configFootprintBytes); this
 * driver builds all machines up front, so its peak memory is the sum
 * of their footprints, with each shared front end counted once.
 * Every machine is fed the feeder's spans, resident streams
 * included, so an event list stays bounded by one span of at most
 * refChunkSize + 1 references.  Each span goes to the batch's
 * machines (a front end with its back ends, or a coherent machine)
 * through one parallelFor, so a batch called outside a pool task
 * runs its machines on the pool's threads concurrently; every
 * machine still runs on one thread at a time and sees the spans in
 * order, so results are the same at any thread count (DESIGN.md
 * §14).  Each call is one "batch" stage span, which counts the
 * machines (every config: a back end or a coherent machine), the
 * followers (back ends beyond the first of their front end), the
 * references the front ends scanned and the events the back ends
 * replayed.
 */
std::vector<SimResult>
simulateBatch(const std::vector<SystemConfig> &configs,
              RefSource &source);

/**
 * simulateBatch through the global SimCache: probe it per (config,
 * stream) first - keyed by the source's contentHash(), which equals
 * the materialized trace's identity hash, so streamed and eager runs
 * of one stream share entries - fuse only the misses into
 * memory-bounded sub-batches of at most BatchOptions::maxBatch, and
 * memoize each finished result, so a partially-cached lattice
 * re-simulates exactly its missing points.  Results are
 * index-aligned with @p configs.  The limits are BatchOptions'
 * constants; the parameter only names them.
 */
std::vector<std::shared_ptr<const SimResult>>
simulateSourceCachedMany(const std::vector<SystemConfig> &configs,
                         RefSource &source,
                         const BatchOptions &options = {});

/**
 * @return an estimate of one machine's simulation-state footprint
 * (cache arrays dominate), used to pack sub-batches under
 * BatchOptions::memoryBudgetBytes.  A back end added to a front end
 * costs this less the L1 arrays, which the first config's footprint
 * already counts.
 */
std::size_t configFootprintBytes(const SystemConfig &config);

} // namespace cachetime

#endif // CACHETIME_CORE_SWEEP_HH
