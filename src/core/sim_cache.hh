/**
 * @file
 * Config-keyed memoization of simulation results.
 *
 * SimCache memoizes SimResults keyed by a canonical 128-bit hash of
 * every timing-relevant SystemConfig field plus the trace's identity
 * (name, warm-start boundary and full reference stream), so a
 * revisited (machine, trace) pair costs a hash lookup instead of a
 * trace run.  The figure benches no longer revisit one: each asks
 * for its whole grid once, and the timing query returns the
 * per-trace runs with the aggregates (core/experiment.hh).  The
 * benchmark harness's cold-run check is what still reads it.
 *
 * Simulation is deterministic — equal key means equal result — so
 * hits are bit-identical to re-simulation.  The cache is process
 * wide and thread safe (sharded maps, one mutex per shard); it is
 * on by default and CACHETIME_SIM_CACHE=0 disables it.
 */

#ifndef CACHETIME_CORE_SIM_CACHE_HH
#define CACHETIME_CORE_SIM_CACHE_HH

#include <array>
#include <atomic>
#include <compare>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "sim/sim_result.hh"
#include "sim/system_config.hh"
#include "trace/trace.hh"

namespace cachetime
{

/** 128-bit memoization key: two independently-mixed 64-bit lanes. */
struct SimKey
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    auto operator<=>(const SimKey &other) const = default;
};

/**
 * @return a hash of the trace's identity: name, warm-start boundary,
 * warm segments and the complete reference stream.  The value is
 * memoized inside the Trace, so the stream is hashed once per trace
 * however many configs revisit it (defined in trace/ref_source.cc;
 * RefSource::contentHash() computes the identical digest chunk by
 * chunk for streamed inputs).
 */
std::uint64_t traceIdentityHash(const Trace &trace);

/**
 * @return the canonical key for (machine, trace).  Every field of
 * @p config that can affect timing or statistics enters the hash;
 * the L2 sugar and the midLevels list hash identically when they
 * describe the same hierarchy (resolvedMidLevels() is used).
 */
SimKey simKey(const SystemConfig &config, std::uint64_t trace_hash);

/** Convenience overload hashing @p trace on the spot. */
SimKey simKey(const SystemConfig &config, const Trace &trace);

/**
 * @return the key of @p config's *warming-relevant* subset: the
 * fields that determine how L1 cache and TLB contents evolve under a
 * given reference stream - addressing mode (+ TLB organization when
 * physical), split, and the organizational L1 cache config(s).
 * Timing fields (latencies, buffers, L2, memory) deliberately do not
 * enter: two configs with equal warmStateKey grow bit-identical L1
 * tag/LRU state from the same stream, so a live-points checkpoint
 * taken under one can warm-restore the other (System::
 * restoreWarmState()).
 */
SimKey warmStateKey(const SystemConfig &config);

/**
 * @return the key of @p config's front end - warmStateKey() plus the
 * issue shape (split and pair issue).  Measurement windows are
 * decided per issue group, so the shape decides where the L1 and TLB
 * counters are folded; with it, two classic configs of equal key see
 * identical answers, in identical order, from their L1s and TLB on
 * any stream, and a fused batch lets them share one front end
 * (System::addBackEnd()).  Coherent configs never share: their L1
 * evolution depends on per-core clocks.
 */
SimKey frontEndKey(const SystemConfig &config);

/**
 * @return the key under which a full-state checkpoint is valid:
 * equal keys mean restoreState() continues bit-identically.  This is
 * simKey(config, trace_hash) - every timing field matters.
 */
SimKey exactStateKey(const SystemConfig &config,
                     std::uint64_t trace_hash);

/** Process-wide memoization table for simulation results. */
class SimCache
{
  public:
    /** The global instance; CACHETIME_SIM_CACHE=0 starts it disabled. */
    static SimCache &global();

    /** @return the cached result for @p key, or nullptr on a miss. */
    std::shared_ptr<const SimResult> find(const SimKey &key);

    /**
     * Store @p result under @p key.  First insertion wins; inserts
     * beyond the per-shard capacity bound are silently dropped (the
     * sweep still completes, later revisits just re-simulate).
     */
    void insert(const SimKey &key,
                std::shared_ptr<const SimResult> result);

    bool enabled() const { return enabled_.load(); }
    void setEnabled(bool enabled) { enabled_.store(enabled); }

    /** Drop all entries and zero the hit/miss counters. */
    void clear();

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

    /** @return inserts dropped because a shard was at capacity. */
    std::uint64_t dropped() const { return dropped_.load(); }

    /** @return number of cached results. */
    std::size_t size() const;

  private:
    SimCache();

    struct KeyHash
    {
        std::size_t
        operator()(const SimKey &key) const
        {
            return static_cast<std::size_t>(key.lo);
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<SimKey,
                           std::shared_ptr<const SimResult>, KeyHash>
            map;
    };

    static constexpr std::size_t shardCount = 16;
    /** Bound on entries per shard (caps memory on huge sweeps). */
    static constexpr std::size_t shardCapacity = 4096;

    Shard &shard(const SimKey &key);

    std::array<Shard, shardCount> shards_;
    std::atomic<bool> enabled_{true};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

} // namespace cachetime

#endif // CACHETIME_CORE_SIM_CACHE_HH
