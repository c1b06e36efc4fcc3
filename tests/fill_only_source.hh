/**
 * @file
 * A fill()-only view of a Trace for tests.  It hides borrow(), so a
 * ChunkFeeder stages the stream through its buffer, the path that
 * file-backed and generated sources take, instead of slicing the
 * trace in place.
 */

#ifndef CACHETIME_TESTS_FILL_ONLY_SOURCE_HH
#define CACHETIME_TESTS_FILL_ONLY_SOURCE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/ref_source.hh"

namespace cachetime
{

/** A fill()-only RefSource over @p trace, which must outlive it. */
class FillOnlySource : public RefSource
{
  public:
    explicit FillOnlySource(const Trace &trace) : trace_(&trace) {}

    const std::string &name() const override { return trace_->name(); }
    std::uint64_t size() const override { return trace_->size(); }
    std::size_t warmStart() const override
    {
        return trace_->warmStart();
    }
    void reset() override { pos_ = 0; }

    std::size_t
    fill(Ref *out, std::size_t max) override
    {
        const std::vector<Ref> &refs = trace_->refs();
        std::size_t n = std::min(max, refs.size() - pos_);
        std::copy_n(refs.data() + pos_, n, out);
        pos_ += n;
        return n;
    }

  private:
    const Trace *trace_;
    std::size_t pos_ = 0;
};

} // namespace cachetime

#endif // CACHETIME_TESTS_FILL_ONLY_SOURCE_HH
