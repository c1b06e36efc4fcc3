/**
 * @file
 * Multiprogrammed interleaving of per-process reference streams.
 *
 * The paper's traces exhibit real multiprogramming: processes run in
 * slices separated by context switches.  The interleaver reproduces
 * that structure with geometrically distributed slice lengths, and
 * also implements the R2000 traces' warm-start device: a prefix
 * containing every unique address touched before the trace window,
 * emitted in the order of most recent use, so that simulation
 * results are valid even for very large caches.
 */

#ifndef CACHETIME_TRACE_INTERLEAVE_HH
#define CACHETIME_TRACE_INTERLEAVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/ref_source.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"
#include "util/rng.hh"

namespace cachetime
{

/** Parameters controlling multiprogrammed interleaving. */
struct InterleaveConfig
{
    /** Total live references to generate (excluding any prefix). */
    std::size_t lengthRefs = 1'000'000;

    /** Mean context-switch interval in references. */
    double meanSliceRefs = 10'000;

    /**
     * If nonzero, pre-run each process for this many references,
     * then emit every address touched, in recency order, as a
     * prefix before the live stream (the R2000 warm-start device).
     */
    std::size_t prefixSampleRefs = 0;

    /** Warm-start boundary of the resulting trace, in references. */
    std::size_t warmStartRefs = 0;

    /** Seed for the interleaving (slice scheduling) decisions. */
    std::uint64_t seed = 1;
};

/**
 * Interleave @p processes into one multiprogrammed trace.
 *
 * Processes are advanced in randomly ordered slices whose lengths
 * are geometrically distributed around cfg.meanSliceRefs.  When
 * cfg.prefixSampleRefs is nonzero, the warm-start prefix described
 * above is emitted first and the warm-start boundary is placed at
 * max(cfg.warmStartRefs, prefix length).
 */
Trace interleave(const std::string &name,
                 std::vector<ProcessModel> &processes,
                 const InterleaveConfig &cfg);

/**
 * Streaming interleaver: produces the exact reference stream of
 * interleave() chunk by chunk, so workloads far larger than RAM can
 * be generated and replayed at bounded RSS (interleave() itself is
 * materialize() over this source).
 *
 * The warm-start prefix is built eagerly at construction - it is
 * bounded by the processes' footprints, not the stream length - and
 * the live stream is drawn on demand.  reset() restores the
 * post-prefix generator state, so replays are bit-identical.
 *
 * Each process's prefix records its sample's last uses in flat
 * arrays, one slot per footprint word, and the per-process prefixes
 * build over the pool (serially when the source is built inside a
 * pool task).  A prefix depends only on its own process, and the
 * slices that interleave them are drawn after all are built, so the
 * stream is the same at any thread count.
 */
class InterleaveSource : public RefSource
{
  public:
    /** @param processes generator state, copied (and never shared). */
    InterleaveSource(std::string name,
                     std::vector<ProcessModel> processes,
                     const InterleaveConfig &cfg);

    const std::string &name() const override { return name_; }
    std::uint64_t size() const override { return total_; }
    std::size_t warmStart() const override { return warm_; }
    void reset() override;
    std::size_t fill(Ref *out, std::size_t max) override;

    /** @return length of the R2000-style warm prefix (maybe 0). */
    std::size_t prefixLength() const { return prefix_.size(); }

  private:
    std::string name_;
    InterleaveConfig cfg_;
    std::vector<Ref> prefix_;      ///< interleaved warm prefix
    std::vector<ProcessModel> processes_;  ///< advanced by fill()
    std::vector<ProcessModel> liveStart_;  ///< post-prefix snapshot
    Rng rng_;                      ///< slice scheduling, advanced
    Rng liveRng_;                  ///< post-prefix snapshot
    std::uint64_t total_ = 0;      ///< prefix + live references
    std::size_t warm_ = 0;
    std::uint64_t pos_ = 0;        ///< next reference index
    std::size_t who_ = 0;          ///< process owning current slice
    std::uint64_t sliceLeft_ = 0;  ///< refs left in current slice
};

} // namespace cachetime

#endif // CACHETIME_TRACE_INTERLEAVE_HH
