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
 * The full pass additionally captures the simulator's complete warm
 * state at each unit's warm-up start - *live points* (sim/
 * checkpoint.hh).  A later run over the same trace then replays only
 * the sampled units:
 *
 *  - the identical config restores full state and reproduces the
 *    full pass's estimate bit for bit;
 *  - a config sharing the L1/TLB organization (warmStateKey) but
 *    differing in timing restores the timing-independent cache and
 *    TLB contents and lets the detailed warm-up re-warm the rest.
 *
 * Unit boundaries respect couplet pairing: checkpoint and stop cuts
 * go through coupletSafeCut() (trace/ref.hh) with the machine's
 * pairing, so a cut never separates an IFetch from the data
 * reference it pairs with, every pairing decision matches the
 * unsplit stream, and sampled runs stay bit-exact against full runs.
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
    FullPass,    ///< streamed the whole trace, captured live points
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
     * pass writes "smarts-<trace>-<warmkey>.ckpt" there, and a later
     * run finding a matching file replays only the sampled units.
     */
    std::string checkpointDir;
};

/**
 * Run the sampled simulation of @p config over @p source.  The
 * source is materialized once (random access is needed to slice
 * replayed units).  With a usable checkpoint the run replays units;
 * otherwise it streams the whole trace and, when options name a
 * checkpoint directory, leaves live points behind for the next run.
 */
SmartsRunResult runSmarts(const SystemConfig &config,
                          RefSource &source,
                          const SmartsOptions &options);

/**
 * Sampled sweep over @p configs sharing one trace: configs are
 * grouped by warmStateKey; the first of each group runs the full
 * pass and its live points serve the rest of the group in memory
 * (exact replay for identical configs, warm replay otherwise).
 * @return one result per config, in input order.
 */
std::vector<SmartsRunResult>
runSmartsMany(const std::vector<SystemConfig> &configs,
              RefSource &source, const SmartsConfig &cfg);

/**
 * Full sampling pass of @p config over @p trace: streams the trace,
 * measures every planned unit, and captures a live point at each
 * unit's warm-up start into @p checkpoint_out (pass nullptr to skip
 * capturing).  @return the run result (mode FullPass).
 */
SmartsRunResult
runSmartsFullPass(const SystemConfig &config, const Trace &trace,
                  const SmartsConfig &cfg,
                  CheckpointFile *checkpoint_out);

/**
 * Replay the sampled units of @p checkpoint for @p config over
 * @p trace (which must hash to checkpoint.traceHash).  Restores
 * full state when the exact keys match, warm state otherwise;
 * fatal()s when not even the warm key matches.
 */
SmartsRunResult
runSmartsReplay(const SystemConfig &config, const Trace &trace,
                const SmartsConfig &cfg,
                const CheckpointFile &checkpoint);

} // namespace cachetime

#endif // CACHETIME_CORE_SMARTS_HH
