/**
 * @file
 * The streaming reference pipeline: pull-based chunked iteration
 * over a reference stream.
 *
 * A Trace materializes the whole stream as a std::vector<Ref>, which
 * caps workload length by RAM.  RefSource is the streaming
 * counterpart: consumers pull bounded chunks and the producer keeps
 * only O(chunk) state, so multi-gigabyte traces replay at bounded
 * RSS.  Three families implement it:
 *
 *  - TraceRefSource: a zero-allocation adapter over an in-memory
 *    Trace (the bridge between the eager and streaming worlds);
 *  - InterleaveSource (trace/interleave.hh): generates the
 *    multiprogrammed synthetic stream incrementally;
 *  - the file readers behind openRefSource() (trace/trace_io.hh):
 *    V2FileSource (trace/trace_v2.hh) for the fixed-record binary
 *    format v2, and a line reader for the text and Dinero formats.
 *
 * A source is single-consumer and replayable: reset() rewinds to the
 * first reference, and Simulator::run(RefSource&) resets before
 * every run.  The streamed and materialized paths are required to agree
 * bit for bit; tests/test_differential.cc enforces it.
 */

#ifndef CACHETIME_TRACE_REF_SOURCE_HH
#define CACHETIME_TRACE_REF_SOURCE_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/trace.hh"

namespace cachetime
{

/** Default refs per fill() chunk (256KB of Ref at 16 bytes each). */
constexpr std::size_t refChunkSize = 16 * 1024;

/** A pull-based, replayable reference stream. */
class RefSource
{
  public:
    virtual ~RefSource() = default;

    /** @return the workload name, e.g. "mu3". */
    virtual const std::string &name() const = 0;

    /** @return total number of references (known up front). */
    virtual std::uint64_t size() const = 0;

    /** @return references before statistics begin. */
    virtual std::size_t warmStart() const = 0;

    /**
     * @return per-window warm segments (see Trace::warmSegments);
     * empty for every source except sampled in-memory traces.
     */
    virtual const std::vector<WarmSegment> &warmSegments() const;

    /** Rewind to the first reference. */
    virtual void reset() = 0;

    /**
     * Copy up to @p max references into @p out, starting where the
     * previous fill() left off.  @return the number produced; 0
     * means the stream is exhausted.
     */
    virtual std::size_t fill(Ref *out, std::size_t max) = 0;

    /**
     * Zero-copy alternative to fill(): if the remainder of the
     * stream is already resident as one contiguous Ref array, point
     * @p out at it, mark it consumed and return its length.  A
     * return of 0 means "not supported or nothing left" and callers
     * fall back to fill().  The array stays valid until the source
     * is reset or destroyed.  In-memory traces answer here, so the
     * simulation loop iterates the trace storage directly instead
     * of copying every reference through a chunk buffer.
     */
    virtual std::size_t
    borrow(const Ref **out)
    {
        (void)out;
        return 0;
    }

    /**
     * @return the stream's identity hash - equal, by construction,
     * to traceIdentityHash() of the materialized equivalent, so the
     * SimCache keys streamed and eager runs identically.  Computed
     * on first call (one full replay for generative sources) and
     * memoized; the source is left reset().
     */
    std::uint64_t contentHash();

  protected:
    /**
     * Hook for sources that can answer without a replay
     * (TraceRefSource delegates to the Trace's cached hash).
     * @return true and set @p hash when available.
     */
    virtual bool cachedContentHash(std::uint64_t *hash) { return !hash; }

  private:
    bool hashValid_ = false;
    std::uint64_t hash_ = 0;
};

/**
 * Incremental computation of a stream's identity hash.  One
 * implementation serves both worlds: traceIdentityHash() feeds it a
 * whole vector, RefSource::contentHash() feeds it chunk by chunk.
 * The digest covers the name, length, warm boundary, warm segments
 * and every reference, in that order.
 */
class StreamHasher
{
  public:
    StreamHasher(const std::string &name, std::uint64_t size,
                 std::size_t warm_start,
                 const std::vector<WarmSegment> &warm_segments);

    /** Absorb the next @p n references. */
    void absorb(const Ref *refs, std::size_t n);

    /** @return the finalized digest. */
    std::uint64_t digest() const;

  private:
    std::uint64_t state_;
};

/** splitmix64 finalizer: full-avalanche 64-bit mix. */
std::uint64_t mix64(std::uint64_t x);

/**
 * @return a hash of the trace's identity: name, warm-start boundary,
 * warm segments and the complete reference stream.  Memoized in the
 * Trace itself, so sweeps hash each trace once however many configs
 * revisit it.  (Also declared by core/sim_cache.hh, which keys the
 * memoization table with it.)
 */
std::uint64_t traceIdentityHash(const Trace &trace);

/** Adapter presenting an in-memory Trace as a RefSource. */
class TraceRefSource : public RefSource
{
  public:
    /** View over @p trace; the trace must outlive the source. */
    explicit TraceRefSource(const Trace &trace) : trace_(&trace) {}

    /** @return a source owning a copy of @p trace. */
    static std::unique_ptr<TraceRefSource> owning(Trace trace);

    const std::string &name() const override { return trace_->name(); }
    std::uint64_t size() const override { return trace_->size(); }
    std::size_t warmStart() const override { return trace_->warmStart(); }
    const std::vector<WarmSegment> &warmSegments() const override
    {
        return trace_->warmSegments();
    }
    void reset() override { pos_ = 0; }
    std::size_t fill(Ref *out, std::size_t max) override;

    std::size_t
    borrow(const Ref **out) override
    {
        const std::vector<Ref> &refs = trace_->refs();
        std::size_t n = refs.size() - pos_;
        *out = refs.data() + pos_;
        pos_ = refs.size();
        return n;
    }

    /** @return the adapted trace. */
    const Trace &trace() const { return *trace_; }

  protected:
    bool cachedContentHash(std::uint64_t *hash) override;

  private:
    const Trace *trace_;
    std::unique_ptr<Trace> owned_;
    std::size_t pos_ = 0;
};

/**
 * Drain @p source into an in-memory Trace (name, warm boundary and
 * warm segments carried over).  The bridge back from the streaming
 * world for consumers that need random access.
 */
Trace materialize(RefSource &source);

/**
 * The one code that cuts a stream into spans: slices a RefSource
 * into bounded spans that are safe to feed to any number of
 * machines, whatever their issue configuration.
 *
 * The one subtlety is couplet pairing: a machine with paired issue
 * pairs an IFetch with the data reference that follows it, so no
 * span may end between the two (coupletSafeCut() in trace/ref.hh).
 * The cut depends only on the reference stream, never on a config,
 * so a single span sequence drives a whole batch of heterogeneous
 * configs and every one of them sees exactly the reference sequence
 * (and pairing decisions) it would have seen running alone.
 *
 * A resident stream (one the source can borrow()) is handed out in
 * place, with no copies, in slices of refChunkSize references, a
 * slice one reference longer when its cut would split a couplet.  A
 * filled stream is staged through a buffer of refChunkSize
 * references; the fill cannot see past its buffer, so it holds back
 * a trailing IFetch and re-emits it at the head of the following
 * span.  Either way a span holds at most refChunkSize + 1
 * references, which bounds a front end's per-span event list and
 * paces a progress meter.
 */
class ChunkFeeder
{
  public:
    /**
     * A view into the feeder's buffer or the resident stream, valid
     * until the next call.
     */
    struct Span
    {
        const Ref *data = nullptr;
        std::size_t size = 0;
        explicit operator bool() const { return size != 0; }
    };

    /** Rewinds @p source; it must outlive the feeder. */
    explicit ChunkFeeder(RefSource &source);

    /** @return the next span, or an empty one at end of stream. */
    Span next();

    /**
     * @return true when the whole stream is already resident (the
     * source answered borrow()), so there is no decode work to
     * overlap with.
     */
    bool zeroCopy() const { return storage_.empty(); }

  private:
    RefSource &source_;
    const Ref *borrowed_ = nullptr; ///< unsliced rest of a resident stream
    std::size_t borrowedSize_ = 0;
    std::vector<Ref> storage_;      ///< fill() staging buffer
    Ref carry_{};                   ///< held-back trailing IFetch
    bool hasCarry_ = false;
    bool exhausted_ = false;
};

/**
 * A ChunkFeeder with production moved off the critical path: a
 * producer thread runs the fill()/decode machinery (file reads,
 * CTTRACE2 record unpacking, text and Dinero line parsing, synthetic
 * generation) into a small ring of chunk buffers while the consumer
 * simulates the previous span.  The span *sequence* is byte-identical to ChunkFeeder's -
 * the producer is a plain ChunkFeeder whose spans are copied into
 * ring slots - so feeding any batch of machines through either
 * feeder yields bit-identical results; only the wall-clock overlap
 * differs.
 *
 * The pipeline engages only when it can pay off: a source whose
 * remainder is already resident (borrow()) is consumed zero-copy
 * through the inner feeder with no thread at all, as is any use
 * from inside a pool worker (the extra thread would oversubscribe
 * the pool) or a single-threaded run.
 *
 * Same contract as ChunkFeeder: single consumer, each span valid
 * until the following next() call.
 */
class PipelinedFeeder
{
  public:
    /** Rewinds @p source; it must outlive the feeder. */
    explicit PipelinedFeeder(RefSource &source);
    ~PipelinedFeeder();

    PipelinedFeeder(const PipelinedFeeder &) = delete;
    PipelinedFeeder &operator=(const PipelinedFeeder &) = delete;

    /** @return the next span, or an empty one at end of stream. */
    ChunkFeeder::Span next();

    /** @return true when a producer thread is decoding ahead. */
    bool pipelined() const { return producer_.joinable(); }

  private:
    struct Slot
    {
        std::vector<Ref> refs;
        std::size_t size = 0;
        bool full = false;
    };

    void producerLoop();

    ChunkFeeder feeder_;
    std::thread producer_;

    std::mutex mutex_;
    std::condition_variable produced_;
    std::condition_variable consumed_;
    std::vector<Slot> ring_;
    std::size_t head_ = 0;     ///< next slot the consumer takes
    std::size_t tail_ = 0;     ///< next slot the producer fills
    std::size_t holding_ = ~std::size_t{0}; ///< slot lent to caller
    bool done_ = false;        ///< producer saw end of stream
    bool stop_ = false;        ///< destructor asked for shutdown
};

} // namespace cachetime

#endif // CACHETIME_TRACE_REF_SOURCE_HH
