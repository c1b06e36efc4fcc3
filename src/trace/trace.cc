#include "trace/trace.hh"

#include <limits>
#include <unordered_set>
#include <utility>

#include "util/logging.hh"

namespace cachetime
{

const char *
refKindName(RefKind kind)
{
    switch (kind) {
      case RefKind::IFetch:
        return "I";
      case RefKind::Load:
        return "L";
      case RefKind::Store:
        return "S";
    }
    return "?";
}

MeasureWindow::MeasureWindow(std::size_t warm_start,
                             std::vector<WarmSegment> segments)
    : warmStart_(warm_start), segments_(std::move(segments))
{
}

bool
MeasureWindow::measured(std::size_t p)
{
    if (p < warmStart_) {
        boundary_ = warmStart_;
        return false;
    }
    while (segIdx_ < segments_.size() && p >= segments_[segIdx_].end)
        ++segIdx_;
    if (segIdx_ < segments_.size() && p >= segments_[segIdx_].begin) {
        boundary_ = segments_[segIdx_].end;
        return false;
    }
    boundary_ = segIdx_ < segments_.size()
                    ? segments_[segIdx_].begin
                    : std::numeric_limits<std::size_t>::max();
    return true;
}

Trace::Trace(std::string name, std::vector<Ref> refs, std::size_t warm_start)
    : name_(std::move(name)), refs_(std::move(refs))
{
    setWarmStart(warm_start);
}

Trace::Trace(const Trace &other)
    : name_(other.name_), refs_(other.refs_),
      warmStart_(other.warmStart_), warmSegments_(other.warmSegments_),
      idHash_(other.idHash_.load(std::memory_order_relaxed))
{
}

Trace::Trace(Trace &&other) noexcept
    : name_(std::move(other.name_)), refs_(std::move(other.refs_)),
      warmStart_(other.warmStart_),
      warmSegments_(std::move(other.warmSegments_)),
      idHash_(other.idHash_.load(std::memory_order_relaxed))
{
}

Trace &
Trace::operator=(const Trace &other)
{
    name_ = other.name_;
    refs_ = other.refs_;
    warmStart_ = other.warmStart_;
    warmSegments_ = other.warmSegments_;
    idHash_.store(other.idHash_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
}

Trace &
Trace::operator=(Trace &&other) noexcept
{
    name_ = std::move(other.name_);
    refs_ = std::move(other.refs_);
    warmStart_ = other.warmStart_;
    warmSegments_ = std::move(other.warmSegments_);
    idHash_.store(other.idHash_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
}

void
Trace::setWarmStart(std::size_t warm_start)
{
    warmStart_ = warm_start > refs_.size() ? refs_.size() : warm_start;
    idHash_.store(0, std::memory_order_relaxed);
}

void
Trace::setWarmSegments(std::vector<WarmSegment> segments)
{
    std::size_t previous_end = warmStart_;
    for (const WarmSegment &seg : segments) {
        if (seg.begin >= seg.end)
            fatal("Trace: empty warm segment [%zu, %zu)", seg.begin,
                  seg.end);
        if (seg.begin < previous_end)
            fatal("Trace: warm segment [%zu, %zu) overlaps or "
                  "precedes the boundary at %zu",
                  seg.begin, seg.end, previous_end);
        if (seg.end > refs_.size())
            fatal("Trace: warm segment [%zu, %zu) beyond the trace "
                  "length %zu",
                  seg.begin, seg.end, refs_.size());
        previous_end = seg.end;
    }
    warmSegments_ = std::move(segments);
    idHash_.store(0, std::memory_order_relaxed);
}

double
TraceStats::dataFraction() const
{
    if (total == 0)
        return 0.0;
    return static_cast<double>(loads + stores) / static_cast<double>(total);
}

TraceStats
computeStats(const Trace &trace)
{
    TraceStats stats;
    std::unordered_set<std::uint64_t> unique;
    std::unordered_set<std::uint16_t> pids;
    for (const Ref &ref : trace.refs()) {
        ++stats.total;
        switch (ref.kind) {
          case RefKind::IFetch:
            ++stats.ifetches;
            break;
          case RefKind::Load:
            ++stats.loads;
            break;
          case RefKind::Store:
            ++stats.stores;
            break;
        }
        unique.insert((static_cast<std::uint64_t>(ref.pid) << 48) ^
                      ref.addr);
        pids.insert(ref.pid);
    }
    stats.uniqueAddrs = unique.size();
    stats.processes = pids.size();
    return stats;
}

} // namespace cachetime
