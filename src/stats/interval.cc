#include "stats/interval.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "stats/stats.hh"
#include "stats/telemetry.hh"
#include "util/logging.hh"

namespace cachetime
{

namespace
{

/**
 * The single field list behind minus() and add(): applies @p fn to
 * every counter pair, so the two operations (and any future one)
 * can never drift apart from the struct or from each other.
 */
template <typename Fn>
void
forEachCounter(IntervalCounters &a, const IntervalCounters &b,
               Fn &&fn)
{
    fn(a.refs, b.refs);
    fn(a.readRefs, b.readRefs);
    fn(a.writeRefs, b.writeRefs);
    fn(a.groups, b.groups);
    fn(a.cycles, b.cycles);
    fn(a.ifetchAccesses, b.ifetchAccesses);
    fn(a.ifetchMisses, b.ifetchMisses);
    fn(a.readAccesses, b.readAccesses);
    fn(a.readMisses, b.readMisses);
    fn(a.writeAccesses, b.writeAccesses);
    fn(a.writeMisses, b.writeMisses);
    fn(a.wbufEnqueued, b.wbufEnqueued);
    fn(a.wbufFullStalls, b.wbufFullStalls);
    fn(a.wbufOccupancyCount, b.wbufOccupancyCount);
    fn(a.wbufOccupancySum, b.wbufOccupancySum);
    fn(a.tlbAccesses, b.tlbAccesses);
    fn(a.tlbMisses, b.tlbMisses);
    fn(a.memReads, b.memReads);
    fn(a.memWrites, b.memWrites);
    fn(a.cohInvalidations, b.cohInvalidations);
    fn(a.cohUpgrades, b.cohUpgrades);
    fn(a.cohBusBusyCycles, b.cohBusBusyCycles);
}

} // namespace

IntervalCounters
IntervalCounters::minus(const IntervalCounters &base) const
{
    IntervalCounters d = *this;
    forEachCounter(d, base,
                   [](auto &into, const auto &from) { into -= from; });
    return d;
}

void
IntervalCounters::add(const IntervalCounters &other)
{
    forEachCounter(*this, other,
                   [](auto &into, const auto &from) { into += from; });
}

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) /
                          static_cast<double>(den);
}

} // namespace

double
IntervalRecord::cpi() const
{
    return c.refs == 0 ? 0.0
                       : static_cast<double>(c.cycles) /
                             static_cast<double>(c.refs);
}

double
IntervalRecord::readMissRatio() const
{
    return ratio(c.ifetchMisses + c.readMisses,
                 c.ifetchAccesses + c.readAccesses);
}

double
IntervalRecord::ifetchMissRatio() const
{
    return ratio(c.ifetchMisses, c.ifetchAccesses);
}

double
IntervalRecord::writeMissRatio() const
{
    return ratio(c.writeMisses, c.writeAccesses);
}

double
IntervalRecord::wbufMeanOccupancy() const
{
    return c.wbufOccupancyCount == 0
               ? 0.0
               : c.wbufOccupancySum /
                     static_cast<double>(c.wbufOccupancyCount);
}

double
IntervalRecord::refsPerSec() const
{
    return wallSeconds <= 0.0
               ? 0.0
               : static_cast<double>(endRef - beginRef) /
                     wallSeconds;
}

IntervalCollector::IntervalCollector(std::uint64_t window_refs)
    : window_(window_refs)
{
    if (window_ == 0)
        panic("IntervalCollector needs a nonzero window");
}

IntervalCollector::IntervalCollector(
    std::vector<std::uint64_t> boundaries)
    : window_(0), schedule_(std::move(boundaries))
{
    for (std::size_t i = 1; i < schedule_.size(); ++i) {
        if (schedule_[i] <= schedule_[i - 1])
            panic("IntervalCollector: boundary schedule must be "
                  "strictly increasing");
    }
}

std::uint64_t
IntervalCollector::firstBoundaryAfter(std::uint64_t pos) const
{
    if (window_ != 0)
        return (pos / window_ + 1) * window_;
    auto it =
        std::upper_bound(schedule_.begin(), schedule_.end(), pos);
    return it == schedule_.end() ? kNoBoundary : *it;
}

void
IntervalCollector::beginRun(const std::string &trace_name)
{
    trace_ = trace_name;
    indexInRun_ = 0;
    lastRef_ = 0;
    lastCum_ = IntervalCounters{};
    lastWall_ = telemetry::processWallSeconds();
}

void
IntervalCollector::emit(std::uint64_t end_ref,
                        const IntervalCounters &cumulative,
                        bool final)
{
    double wall = telemetry::processWallSeconds();
    IntervalRecord record;
    record.trace = trace_;
    record.index = indexInRun_++;
    record.beginRef = lastRef_;
    record.endRef = end_ref;
    record.final = final;
    record.c = cumulative.minus(lastCum_);
    record.wallSeconds = wall - lastWall_;
    records_.push_back(std::move(record));
    lastRef_ = end_ref;
    lastCum_ = cumulative;
    lastWall_ = wall;
}

void
IntervalCollector::atBoundary(std::uint64_t consumed,
                              const IntervalCounters &cumulative)
{
    emit(consumed, cumulative, false);
}

void
IntervalCollector::endRun(std::uint64_t consumed,
                          const IntervalCounters &cumulative)
{
    // A trailing partial window exists whenever references were
    // issued past the last boundary (or the run was shorter than
    // one window and never reached a boundary at all).
    if (consumed > lastRef_ || indexInRun_ == 0)
        emit(consumed, cumulative, true);
}

void
IntervalCollector::clear()
{
    records_.clear();
    indexInRun_ = 0;
    lastRef_ = 0;
    lastCum_ = IntervalCounters{};
}

namespace
{

/**
 * The one column list behind dumpCsv() and dumpJson(): calls
 * @p visit(name, value) for every column of @p r, in output order.
 * A value is the trace name, a count, the final flag or a double.
 */
template <typename Visit>
void
forEachColumn(const IntervalRecord &r, Visit &&visit)
{
    const IntervalCounters &c = r.c;
    visit("trace", r.trace);
    visit("window", r.index);
    visit("begin_ref", r.beginRef);
    visit("end_ref", r.endRef);
    visit("final", r.final);
    visit("refs", c.refs);
    visit("reads", c.readRefs);
    visit("writes", c.writeRefs);
    visit("groups", c.groups);
    visit("cycles", c.cycles);
    visit("cpi", r.cpi());
    visit("read_miss_ratio", r.readMissRatio());
    visit("ifetch_miss_ratio", r.ifetchMissRatio());
    visit("write_miss_ratio", r.writeMissRatio());
    visit("ifetch_accesses", c.ifetchAccesses);
    visit("ifetch_misses", c.ifetchMisses);
    visit("read_accesses", c.readAccesses);
    visit("read_misses", c.readMisses);
    visit("write_accesses", c.writeAccesses);
    visit("write_misses", c.writeMisses);
    visit("wbuf_enqueued", c.wbufEnqueued);
    visit("wbuf_full_stalls", c.wbufFullStalls);
    visit("wbuf_mean_occupancy", r.wbufMeanOccupancy());
    visit("tlb_accesses", c.tlbAccesses);
    visit("tlb_misses", c.tlbMisses);
    visit("mem_reads", c.memReads);
    visit("mem_writes", c.memWrites);
    visit("coh_invalidations", c.cohInvalidations);
    visit("coh_upgrades", c.cohUpgrades);
    visit("coh_bus_busy_cycles", c.cohBusBusyCycles);
    visit("wall_seconds", r.wallSeconds);
    visit("refs_per_sec", r.refsPerSec());
}

/**
 * Write one value as a CSV cell or, when @p json, a JSON value: the
 * trace name raw or quoted, the final flag 1/0 or true/false, a
 * double as %.17g.
 */
template <typename T>
void
cell(std::ostream &os, const T &value, bool json)
{
    if constexpr (std::is_same_v<T, std::string>) {
        os << (json ? '"' + stats::jsonEscape(value) + '"' : value);
    } else if constexpr (std::is_same_v<T, bool>) {
        os << (json ? (value ? "true" : "false") : (value ? "1" : "0"));
    } else if constexpr (std::is_same_v<T, double>) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        os << buf;
    } else {
        os << value;
    }
}

} // namespace

void
IntervalCollector::dumpCsv(std::ostream &os) const
{
    const char *sep = "";
    forEachColumn(IntervalRecord{}, [&](const char *name, const auto &) {
        os << std::exchange(sep, ",") << name;
    });
    os << '\n';
    for (const IntervalRecord &r : records_) {
        sep = "";
        forEachColumn(r, [&](const char *, const auto &value) {
            os << std::exchange(sep, ",");
            cell(os, value, false);
        });
        os << '\n';
    }
}

void
IntervalCollector::dumpJson(std::ostream &os) const
{
    os << '[';
    const char *sep = "";
    for (const IntervalRecord &r : records_) {
        os << std::exchange(sep, ",");
        char open = '{';
        forEachColumn(r, [&](const char *name, const auto &value) {
            os << std::exchange(open, ',') << '"' << name << "\":";
            cell(os, value, true);
        });
        os << '}';
    }
    os << ']';
}

std::string
IntervalCollector::json() const
{
    std::ostringstream ss;
    dumpJson(ss);
    return ss.str();
}

} // namespace cachetime
