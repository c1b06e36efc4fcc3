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
 * batch.  That front end's machine is one System built with a timing
 * back end per config of the key; it scans each span once into an
 * event list (its misses, tagged-prefetch hits, write-through
 * stores, TLB misses and measure edges), and every back end replays
 * only the events and jumps the hit runs between them.  The cache
 * model is time-free, so every back end sees exactly the answers it
 * would have computed itself.  One cut rule (sweep.cc) decides which
 * configs ride together, for the grid plan and every batch alike: it
 * groups configs by front end and packs whole front ends into runs
 * under a cap of configs, and only the memory budget cuts inside a
 * front end.  So a Fig 3-3 speed-size grid probes each L1
 * organization once per trace and pays per miss, not per reference,
 * for each cycle time.
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
     * Most configs of whole front ends packed into one stream pass.
     * Wider passes amortize decode further but dilute per-machine
     * cache locality; eight is past the knee for every stream family
     * benchmarked.  The cap never cuts a front end: one wider than
     * the cap is a pass of its own.
     */
    static constexpr std::size_t maxBatch = 8;

    /**
     * Cap on the summed state-arena footprint of one pass, so a
     * sweep over multi-megabyte caches cannot balloon resident
     * memory (a 2MB-word cache costs ~40MB of simulator state).  It
     * is the only cut inside a front end, and a pass always admits
     * at least one config.
     */
    static constexpr std::size_t memoryBudgetBytes = std::size_t{256}
                                                     << 20;
};

/**
 * Run every config over @p source and return the per-config results,
 * index-aligned with @p configs.  The configs are grouped by front
 * end and packed, whole front ends at a time, into passes of at most
 * BatchOptions::maxBatch configs whose summed footprint
 * (configFootprintBytes, each shared front end counted once) fits
 * BatchOptions::memoryBudgetBytes; a front end wider than the cap is
 * a pass of its own, and only the budget cuts inside one.  So every
 * caller is bounded.  Each pass builds its machines up front and
 * feeds them the feeder's spans, resident streams included, so an
 * event list stays bounded by one span of at most refChunkSize + 1
 * references.  Each span goes to the pass's machines (a front end
 * with its back ends, or a coherent machine) through one
 * parallelFor, so a batch called outside a pool task runs its
 * machines on the pool's threads concurrently; every machine still
 * runs on one thread at a time and sees the spans in order, so
 * results are the same at any thread count (DESIGN.md §14).  Each
 * pass is one "batch" stage span, which counts the machines (every
 * config: a back end or a coherent machine), the followers (back
 * ends beyond the first of their front end), the references the
 * front ends scanned and the events the back ends replayed.
 */
std::vector<SimResult>
simulateBatch(const std::vector<SystemConfig> &configs,
              RefSource &source);

/**
 * simulateBatch through the global SimCache: probe it per (config,
 * stream) first - keyed by the source's contentHash(), which equals
 * the materialized trace's identity hash, so streamed and eager runs
 * of one stream share entries - hand only the misses to one
 * simulateBatch call, which packs them into its bounded passes, and
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
 * (cache arrays dominate; a coherent machine's L1 pair counts once
 * per core), used to pack passes under
 * BatchOptions::memoryBudgetBytes.  A back end beyond the first of a
 * front end costs this less the L1 arrays, which the first config's
 * footprint already counts.
 */
std::size_t configFootprintBytes(const SystemConfig &config);

} // namespace cachetime

#endif // CACHETIME_CORE_SWEEP_HH
