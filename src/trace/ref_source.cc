#include "trace/ref_source.hh"

#include <algorithm>
#include <utility>

#include "util/parallel.hh"

namespace cachetime
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

StreamHasher::StreamHasher(const std::string &name, std::uint64_t size,
                           std::size_t warm_start,
                           const std::vector<WarmSegment> &warm_segments)
{
    std::uint64_t h = mix64(size ^ 0x7472616365ULL); // "trace"
    h = mix64(h ^ warm_start);
    for (char c : name)
        h = mix64(h ^ static_cast<unsigned char>(c));
    h = mix64(h ^ (0x7365676dULL + warm_segments.size())); // "segm"
    for (const WarmSegment &seg : warm_segments) {
        h = mix64(h ^ seg.begin);
        h = mix64(h ^ seg.end);
    }
    state_ = h;
}

void
StreamHasher::absorb(const Ref *refs, std::size_t n)
{
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < n; ++i) {
        const Ref &ref = refs[i];
        std::uint64_t word =
            ref.addr ^
            (static_cast<std::uint64_t>(ref.kind) << 56) ^
            (static_cast<std::uint64_t>(ref.pid) << 40);
        // One multiply-xor round per ref keeps the pass cheap; the
        // running state still diffuses every record.
        h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
    }
    state_ = h;
}

std::uint64_t
StreamHasher::digest() const
{
    std::uint64_t h = mix64(state_);
    // 0 is the "not computed" sentinel in the memoization slots.
    return h != 0 ? h : 0x6361636865ULL;
}

const std::vector<WarmSegment> &
RefSource::warmSegments() const
{
    static const std::vector<WarmSegment> none;
    return none;
}

std::uint64_t
RefSource::contentHash()
{
    if (hashValid_)
        return hash_;
    if (cachedContentHash(&hash_)) {
        hashValid_ = true;
        return hash_;
    }
    StreamHasher hasher(name(), size(), warmStart(), warmSegments());
    std::vector<Ref> chunk(refChunkSize);
    reset();
    while (std::size_t n = fill(chunk.data(), chunk.size()))
        hasher.absorb(chunk.data(), n);
    reset();
    hash_ = hasher.digest();
    hashValid_ = true;
    return hash_;
}

std::unique_ptr<TraceRefSource>
TraceRefSource::owning(Trace trace)
{
    auto owned = std::make_unique<Trace>(std::move(trace));
    auto source = std::make_unique<TraceRefSource>(*owned);
    source->owned_ = std::move(owned);
    return source;
}

std::size_t
TraceRefSource::fill(Ref *out, std::size_t max)
{
    const std::vector<Ref> &refs = trace_->refs();
    std::size_t n = std::min(max, refs.size() - pos_);
    std::copy(refs.begin() + static_cast<std::ptrdiff_t>(pos_),
              refs.begin() + static_cast<std::ptrdiff_t>(pos_ + n),
              out);
    pos_ += n;
    return n;
}

bool
TraceRefSource::cachedContentHash(std::uint64_t *hash)
{
    if (!hash)
        return false;
    // Delegates to the Trace's own memoization slot so eager sweeps
    // and streamed runs share one computation per trace.
    *hash = traceIdentityHash(*trace_);
    return true;
}

std::uint64_t
traceIdentityHash(const Trace &trace)
{
    if (std::uint64_t cached = trace.cachedIdentityHash())
        return cached;
    StreamHasher hasher(trace.name(), trace.size(), trace.warmStart(),
                        trace.warmSegments());
    hasher.absorb(trace.refs().data(), trace.refs().size());
    std::uint64_t hash = hasher.digest();
    trace.storeIdentityHash(hash);
    return hash;
}

ChunkFeeder::ChunkFeeder(RefSource &source) : source_(source)
{
    source_.reset();
    borrowedSize_ = source_.borrow(&borrowed_);
    if (borrowedSize_ == 0)
        storage_.resize(refChunkSize);
}

ChunkFeeder::Span
ChunkFeeder::next()
{
    if (zeroCopy()) {
        std::size_t take =
            coupletSafeCut(borrowed_, borrowedSize_,
                           std::min(borrowedSize_, refChunkSize), true);
        Span span{borrowed_, take};
        borrowed_ += take;
        borrowedSize_ -= take;
        return span;
    }

    std::size_t count = 0;
    if (hasCarry_) {
        storage_[0] = carry_;
        hasCarry_ = false;
        count = 1;
    }
    while (!exhausted_ && count < storage_.size()) {
        std::size_t n = source_.fill(storage_.data() + count,
                                     storage_.size() - count);
        if (n == 0) {
            exhausted_ = true;
            break;
        }
        count += n;
    }
    if (count == 0)
        return {};
    if (!exhausted_ &&
        storage_[count - 1].kind == RefKind::IFetch) {
        // A continuing stream must not end a chunk on an IFetch:
        // paired issue wants its data-side lookahead in the same
        // span.  Hold the fetch back for the next chunk.  count is
        // the full buffer here (the fill loop only stops short when
        // the stream ends), so the trimmed span is never empty.
        carry_ = storage_[count - 1];
        hasCarry_ = true;
        --count;
    }
    return {storage_.data(), count};
}

PipelinedFeeder::PipelinedFeeder(RefSource &source) : feeder_(source)
{
    // No thread when there is nothing to overlap (resident stream),
    // nowhere to run it usefully (single-threaded process), or when
    // the caller is itself pool work (the pool is already saturated
    // and an extra thread would oversubscribe it).
    if (feeder_.zeroCopy() || parallelThreads() == 1 ||
        parallelInWorker())
        return;
    ring_.resize(4);
    for (Slot &slot : ring_)
        slot.refs.resize(refChunkSize);
    producer_ = std::thread([this] { producerLoop(); });
}

PipelinedFeeder::~PipelinedFeeder()
{
    if (!producer_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    consumed_.notify_one();
    producer_.join();
}

void
PipelinedFeeder::producerLoop()
{
    for (;;) {
        ChunkFeeder::Span span = feeder_.next();
        std::unique_lock<std::mutex> lock(mutex_);
        consumed_.wait(lock, [this] {
            return stop_ || !ring_[tail_].full;
        });
        if (stop_)
            return;
        if (!span) {
            done_ = true;
            produced_.notify_one();
            return;
        }
        Slot &slot = ring_[tail_];
        lock.unlock();
        // The copy runs unlocked: the consumer never touches a slot
        // whose `full` flag is clear, and only the producer sets it.
        std::copy(span.data, span.data + span.size,
                  slot.refs.data());
        slot.size = span.size;
        lock.lock();
        slot.full = true;
        tail_ = (tail_ + 1) % ring_.size();
        produced_.notify_one();
    }
}

ChunkFeeder::Span
PipelinedFeeder::next()
{
    if (!producer_.joinable())
        return feeder_.next();

    std::unique_lock<std::mutex> lock(mutex_);
    if (holding_ != ~std::size_t{0}) {
        ring_[holding_].full = false;
        holding_ = ~std::size_t{0};
        consumed_.notify_one();
    }
    produced_.wait(lock, [this] {
        return done_ || ring_[head_].full;
    });
    if (!ring_[head_].full)
        return {}; // done_ and the ring drained: end of stream
    Slot &slot = ring_[head_];
    holding_ = head_;
    head_ = (head_ + 1) % ring_.size();
    return {slot.refs.data(), slot.size};
}

Trace
materialize(RefSource &source)
{
    source.reset();
    std::vector<Ref> refs;
    refs.resize(source.size());
    std::size_t at = 0;
    while (at < refs.size()) {
        std::size_t n = source.fill(refs.data() + at, refs.size() - at);
        if (n == 0)
            break;
        at += n;
    }
    refs.resize(at);
    Trace trace(source.name(), std::move(refs), source.warmStart());
    trace.setWarmSegments(source.warmSegments());
    return trace;
}

} // namespace cachetime
