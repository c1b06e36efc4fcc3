/**
 * @file
 * SMARTS-style systematic sampling over a reference stream.
 *
 * Full trace runs give the paper's numbers exactly but cost time
 * linear in stream length.  This engine measures only a systematic
 * sample: tiny measurement units of U references at a fixed period,
 * each preceded by W references of detailed warm-up, with the stream
 * between units issued functionally (state and clock advance, no
 * counters) through the warm-segment machinery.  Per-unit CPI and
 * miss-ratio samples feed Student-t confidence intervals
 * (stats/confidence.hh); a pilot sample's coefficient of variation
 * auto-tunes how many units the estimate actually needs.
 *
 * The full pass can also capture the simulator's complete warm
 * state at a unit's warm-up start - a *live point* (sim/
 * checkpoint.hh).  A replay over the same trace then simulates only
 * the sampled units:
 *
 *  - the identical config restores full state and reproduces the
 *    full pass's estimate bit for bit;
 *  - a config sharing the L1/TLB organization (warmStateKey) but
 *    differing in timing restores the timing-independent cache and
 *    TLB contents and lets the detailed warm-up re-warm the rest.
 *
 * Every entry point runs on one forward pass over its RefSource,
 * pulled through PipelinedFeeder: the source is read once, and no
 * copy of the trace is held.  On the pass each config is either a
 * full run or a replay that restores each unit it needs from a live
 * point at the unit's checkpoint and measures the unit as the stream
 * goes by.  A full run captures a live point only when a replay
 * needs that unit or the caller keeps live points, into one buffer
 * it reuses for every point; a kept point is a copy of it.
 *
 * The configs of one warm key form a group: the full run and the
 * replays it serves.  Groups share no state, so the pass hands each
 * span to its groups through one parallelFor, and a pass called
 * outside a pool task runs them on the pool's threads concurrently.
 * Inside a group the full run takes each span before its replays,
 * and every run sees the spans in order, so results are the same at
 * any thread count (DESIGN.md §14).
 *
 * Unit boundaries respect couplet pairing: checkpoint and stop cuts
 * go through coupletSafeCut() (trace/ref.hh) with the full run's
 * pairing, and a replay is fed in pieces cut only at feeder span
 * boundaries (which never split a couplet) and at its unit's end.
 * So a cut never separates an IFetch from the data reference it
 * pairs with, every pairing decision matches the unsplit stream,
 * and sampled runs stay bit-exact against full runs.
 */

#ifndef CACHETIME_CORE_SMARTS_HH
#define CACHETIME_CORE_SMARTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/system_config.hh"
#include "stats/confidence.hh"
#include "trace/trace.hh"

namespace cachetime
{

class RefSource;

/** Parameters of a systematic sampling run. */
struct SmartsConfig
{
    std::uint64_t unitRefs = 1000;   ///< U: refs per measured unit
    std::uint64_t warmupRefs = 2000; ///< W: detailed warm-up refs
    std::uint64_t periodRefs = 50000; ///< unit-start spacing

    /** Units measured before the sample size is tuned. */
    std::size_t pilotUnits = 10;

    /** Target relative CI half-width for the CPI estimate. */
    double targetRelError = 0.03;

    double confidence = 0.95; ///< two-sided CI level

    /** fatal() on parameters that cannot describe a valid plan. */
    void validate() const;
};

/** One planned measurement unit (nominal, pre-slide positions). */
struct SmartsUnit
{
    std::uint64_t cp = 0;    ///< warm-up start = checkpoint position
    std::uint64_t begin = 0; ///< first measured position
    std::uint64_t end = 0;   ///< one past the last measured position
};

/** The deterministic unit layout for one (stream, config) pair. */
struct SmartsPlan
{
    SmartsConfig cfg;
    std::uint64_t streamRefs = 0;
    std::uint64_t warmStart = 0; ///< stream's own warm boundary
    std::vector<SmartsUnit> units;
};

/**
 * @return the systematic plan: unit k warms up at
 * warmStart + k*period and measures [warmStart + k*period + W,
 * ... + W + U), keeping every unit that fits the stream.  fatal()s
 * if fewer than two units fit (no variance estimate would exist).
 */
SmartsPlan planSmarts(std::uint64_t stream_refs,
                      std::uint64_t warm_start,
                      const SmartsConfig &cfg);

/** Measured metrics of one simulated unit. */
struct SmartsUnitResult
{
    std::size_t index = 0;      ///< unit ordinal in the plan
    std::uint64_t beginRef = 0; ///< actual (post-slide) begin
    std::uint64_t endRef = 0;   ///< actual (post-slide) end
    std::uint64_t refs = 0;     ///< measured references
    std::uint64_t cycles = 0;   ///< measured cycles
    double cpi = 0.0;
    double readMissRatio = 0.0;
};

/** How a sampled run obtained its per-unit state. */
enum class SmartsMode
{
    FullPass,    ///< measured every unit on a full pass
    ExactReplay, ///< restored full state (identical config)
    WarmReplay,  ///< restored L1/TLB only (same warm key)
};

/** @return "full", "exact-replay" or "warm-replay". */
const char *smartsModeName(SmartsMode mode);

/** The estimate a sampled run reports. */
struct SmartsEstimate
{
    MeanCI cpi;           ///< over the selected units' CPIs
    MeanCI readMissRatio; ///< over the selected units' miss ratios
};

/** Everything one sampled run produced. */
struct SmartsRunResult
{
    SmartsMode mode = SmartsMode::FullPass;
    SmartsPlan plan;

    /** Results of every *selected* unit, in plan order. */
    std::vector<SmartsUnitResult> units;

    std::size_t pilotCount = 0;  ///< units in the pilot sample
    double pilotCv = 0.0;        ///< pilot coefficient of variation
    std::size_t tunedUnits = 0;  ///< sample size the pilot asked for
    std::size_t selectedCount = 0; ///< units actually in the estimate

    SmartsEstimate estimate;

    /** References actually issued (all modes). */
    std::uint64_t simulatedRefs = 0;

    /** @return simulatedRefs / streamRefs (replay efficiency). */
    double replayFraction() const;
};

/** Options steering runSmarts(). */
struct SmartsOptions
{
    SmartsConfig cfg;

    /**
     * Directory for live-points checkpoint files.  Empty disables
     * checkpointing: every run is a full pass.  Non-empty: a full
     * pass writes "smarts-<trace>-<warmkey>-u<U>-w<W>-p<period>.ckpt"
     * there (checkpointFileName()), and a later run under the same
     * plan finding that file replays only the sampled units.
     */
    std::string checkpointDir;
};

/**
 * Run the sampled simulation of @p config over @p source, in one
 * forward pass.  With a checkpoint directory holding a file for
 * this stream, organization and plan, the pass replays the units
 * from its live points; otherwise it is a full pass, and when
 * options name a checkpoint directory it keeps its live points and
 * writes them there for the next run.
 */
SmartsRunResult runSmarts(const SystemConfig &config,
                          RefSource &source,
                          const SmartsOptions &options);

/**
 * Sampled sweep over @p configs sharing one stream, in one forward
 * pass over @p source: configs are grouped by warmStateKey; the
 * first of each group does the full run and the rest of the group
 * replay on the same pass (exact replay for identical configs, warm
 * replay otherwise), each restoring from the live point its leader
 * has just captured.  A group holds at most one live point at a
 * time.  The pass is the only read of @p source; it is never
 * hashed.  @return one result per config, in input order.
 */
std::vector<SmartsRunResult>
runSmartsMany(const std::vector<SystemConfig> &configs,
              RefSource &source, const SmartsConfig &cfg);

/**
 * Full sampling pass of @p config over @p trace, on the one-pass
 * engine: streams the trace up to the last unit, measures every
 * planned unit, and keeps a live point at each unit's warm-up start
 * in @p checkpoint_out (pass nullptr to capture none).
 * @return the run result (mode FullPass).
 */
SmartsRunResult
runSmartsFullPass(const SystemConfig &config, const Trace &trace,
                  const SmartsConfig &cfg,
                  CheckpointFile *checkpoint_out);

/**
 * Replay the sampled units of @p checkpoint for @p config over
 * @p trace (which must hash to checkpoint.traceHash), on the
 * one-pass engine: each unit the sample needs is restored from its
 * live point and measured as the stream goes by.  Restores full
 * state when the exact keys match, warm state otherwise; fatal()s
 * when not even the warm key matches, or when the checkpoint's
 * units are out of stream order.
 */
SmartsRunResult
runSmartsReplay(const SystemConfig &config, const Trace &trace,
                const SmartsConfig &cfg,
                const CheckpointFile &checkpoint);

} // namespace cachetime

#endif // CACHETIME_CORE_SMARTS_HH
