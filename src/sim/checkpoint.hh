/**
 * @file
 * Live-points checkpoint files for sampled simulation (DESIGN.md
 * section 12).
 *
 * A full sampling pass over a trace captures the simulator's warm
 * state just before each measurement unit.  Stored in a checkpoint
 * file, those live points let a later run over the same trace replay
 * only the measurement units (plus their short detailed warm-up)
 * instead of streaming the whole trace:
 *
 *  - a config with the same *exact* key (identical machine) restores
 *    full state and continues bit-identically;
 *  - a config sharing only the *warm* key (same L1/TLB organization,
 *    different timing) restores the timing-independent L1 and TLB
 *    contents and relies on detailed warm-up to re-warm the rest.
 *
 * On-disk layout (little-endian throughout):
 *
 *     "CTCKPT1\n"  8-byte magic
 *     u32          format version (1)
 *     u64          trace content hash
 *     u64 x2       warm-state key (lo, hi)
 *     u64 x2       exact-state key (lo, hi)
 *     u64 x4       plan: unitRefs, warmupRefs, periodRefs, streamRefs
 *     u64          unit count
 *     per unit:    u64 cpPos, u64 beginPos, u64 endPos,
 *                  u64 blobLen, blob bytes
 *     u64          checksum (mix64 chain over all preceding bytes)
 *
 * The loader validates magic, version, structure and checksum and
 * fatal()s on any mismatch - a corrupted checkpoint must die cleanly,
 * never deliver garbage state (the I/O fuzzer holds it to that).
 */

#ifndef CACHETIME_SIM_CHECKPOINT_HH
#define CACHETIME_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/sim_cache.hh" // SimKey

namespace cachetime
{

/** One live point: state captured at cpPos, unit ends at endPos. */
struct CheckpointUnit
{
    /** Issued-ref position of the capture (post couplet-slide; the
     *  replay's detailed warm-up starts here). */
    std::uint64_t cpPos = 0;

    /** Nominal measure-on position (replay's warm-start boundary). */
    std::uint64_t beginPos = 0;

    /** One past the unit's last issued position (post-slide). */
    std::uint64_t endPos = 0;

    /** System::captureState() blob. */
    std::string state;
};

/** In-memory form of one checkpoint file. */
struct CheckpointFile
{
    std::uint64_t traceHash = 0; ///< RefSource::contentHash()
    SimKey warmKey;              ///< warmStateKey(capturing config)
    SimKey exactKey;             ///< exactStateKey(config, trace)

    // The sampling plan the live points were taken under.
    std::uint64_t unitRefs = 0;
    std::uint64_t warmupRefs = 0;
    std::uint64_t periodRefs = 0;
    std::uint64_t streamRefs = 0; ///< total refs in the stream

    std::vector<CheckpointUnit> units;
};

/** 8-byte file magic ("CTCKPT1\n"). */
extern const char kCheckpointMagic[8];

/** Serialize @p cp into the on-disk byte layout. */
std::string encodeCheckpoint(const CheckpointFile &cp);

/**
 * Parse @p data (a whole file) back into a CheckpointFile.
 * fatal()s, citing @p what, on any structural or checksum error.
 */
CheckpointFile decodeCheckpoint(const void *data, std::size_t size,
                                const std::string &what);

/** Write @p cp to @p path (fatal() on I/O failure). */
void writeCheckpoint(const CheckpointFile &cp,
                     const std::string &path);

/** Read and validate the checkpoint at @p path (fatal() on error). */
CheckpointFile loadCheckpoint(const std::string &path);

/** @return true when @p data begins with the checkpoint magic. */
bool looksLikeCheckpoint(const void *data, std::size_t size);

/**
 * @return the canonical file name for a checkpoint of @p trace_hash
 * taken under @p warm_key with the sampling plan U = @p unit_refs,
 * W = @p warmup_refs and period @p period_refs:
 * "smarts-<trace_hash hex>-<warm_key hex>-u<U>-w<W>-p<period>.ckpt".
 * Keyed by the warm key, not the exact key, so every config sharing
 * an L1/TLB organization maps to one file; keyed by the plan, so a
 * run never replays live points taken under another plan.
 */
std::string checkpointFileName(std::uint64_t trace_hash,
                               const SimKey &warm_key,
                               std::uint64_t unit_refs,
                               std::uint64_t warmup_refs,
                               std::uint64_t period_refs);

} // namespace cachetime

#endif // CACHETIME_SIM_CHECKPOINT_HH
