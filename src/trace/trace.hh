/**
 * @file
 * In-memory trace container and trace-level statistics.
 *
 * A Trace owns the full reference stream for one workload plus the
 * metadata the paper's methodology needs: a human name and the warm
 * start boundary (statistics gathering only begins once that many
 * references have been issued, so cold-start misses do not pollute
 * the results).
 *
 * Sampled traces additionally carry *warm segments*: index ranges
 * after the warm-start boundary whose references are issued (they
 * advance the clock and update cache state) but are excluded from
 * every measured counter.  The SMARTS engine (core/smarts.hh) marks
 * the gaps between its measurement units this way, so one pass
 * counts exactly the sampled units.  MeasureWindow answers, for
 * every engine, which positions those two rules leave measured.
 */

#ifndef CACHETIME_TRACE_TRACE_HH
#define CACHETIME_TRACE_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/ref.hh"

namespace cachetime
{

/**
 * A half-open reference-index range [begin, end) excluded from
 * measurement (cache state still updates, the clock still runs).
 */
struct WarmSegment
{
    std::size_t begin = 0;
    std::size_t end = 0;

    bool operator==(const WarmSegment &other) const = default;
};

/**
 * The measurement window of a stream: a position is measured when it
 * lies at or after the warm start and outside every warm segment.
 * Engines decide measurement per issue group, at the group's first
 * reference, and ask about positions in increasing order; the answer
 * can change only at boundary(), so a hot loop compares against that
 * and calls measured() only when it reaches it.
 */
class MeasureWindow
{
  public:
    /** A window that measures every position. */
    MeasureWindow() = default;

    /** Nothing before @p warm_start, nor in @p segments, is measured. */
    MeasureWindow(std::size_t warm_start,
                  std::vector<WarmSegment> segments);

    /**
     * @return whether position @p p is measured, and move boundary()
     * to the next position where the answer can change.  @p p must
     * not be smaller than in the previous call.
     */
    bool measured(std::size_t p);

    /**
     * @return the first position whose answer may differ from the
     * last measured() call's; 0 before the first call.
     */
    std::size_t boundary() const { return boundary_; }

  private:
    std::size_t warmStart_ = 0;
    std::vector<WarmSegment> segments_; ///< sorted and disjoint
    std::size_t segIdx_ = 0;  ///< first segment not ending before p
    std::size_t boundary_ = 0;
};

/** A named reference stream with its warm-start boundary. */
class Trace
{
  public:
    Trace() = default;

    /** Construct from parts. */
    Trace(std::string name, std::vector<Ref> refs,
          std::size_t warm_start = 0);

    Trace(const Trace &other);
    Trace(Trace &&other) noexcept;
    Trace &operator=(const Trace &other);
    Trace &operator=(Trace &&other) noexcept;

    /** @return the workload name, e.g. "mu3". */
    const std::string &name() const { return name_; }

    /** @return the reference stream. */
    const std::vector<Ref> &refs() const { return refs_; }

    /** @return number of references before statistics begin. */
    std::size_t warmStart() const { return warmStart_; }

    /** Set the warm-start boundary (clamped to the trace length). */
    void setWarmStart(std::size_t warm_start);

    /**
     * @return the per-window warm segments, sorted and disjoint;
     * empty for unsampled traces.
     */
    const std::vector<WarmSegment> &warmSegments() const
    {
        return warmSegments_;
    }

    /**
     * Install per-window warm segments.  They must be sorted,
     * non-empty, pairwise disjoint and lie in [warmStart, size);
     * anything else is a fatal error (the segments are produced
     * programmatically, so a violation is a caller bug surfaced as
     * bad input).
     */
    void setWarmSegments(std::vector<WarmSegment> segments);

    /** Append a reference. */
    void
    push(const Ref &ref)
    {
        refs_.push_back(ref);
        idHash_.store(0, std::memory_order_relaxed);
    }

    /** @return total number of references. */
    std::size_t size() const { return refs_.size(); }

    bool empty() const { return refs_.empty(); }

    /**
     * Identity-hash memoization slot (see traceIdentityHash() in
     * core/sim_cache.hh).  0 means "not computed yet"; the hash
     * function never returns 0 for a stored value.  Thread safe:
     * concurrent sweeps may race to store the same deterministic
     * value.
     */
    std::uint64_t
    cachedIdentityHash() const
    {
        return idHash_.load(std::memory_order_relaxed);
    }

    void
    storeIdentityHash(std::uint64_t hash) const
    {
        idHash_.store(hash, std::memory_order_relaxed);
    }

  private:
    std::string name_;
    std::vector<Ref> refs_;
    std::size_t warmStart_ = 0;
    std::vector<WarmSegment> warmSegments_;
    mutable std::atomic<std::uint64_t> idHash_{0};
};

/** Aggregate, organization-independent statistics about a trace. */
struct TraceStats
{
    std::size_t total = 0;        ///< total references
    std::size_t ifetches = 0;     ///< instruction fetches
    std::size_t loads = 0;        ///< data reads
    std::size_t stores = 0;       ///< data writes
    std::size_t uniqueAddrs = 0;  ///< distinct (pid, addr) words
    std::size_t processes = 0;    ///< distinct pids

    /** @return fraction of references that are data accesses. */
    double dataFraction() const;
};

/** Compute organization-independent statistics for @p trace. */
TraceStats computeStats(const Trace &trace);

} // namespace cachetime

#endif // CACHETIME_TRACE_TRACE_HH
