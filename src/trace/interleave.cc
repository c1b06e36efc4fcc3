#include "trace/interleave.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace cachetime
{

namespace
{

/**
 * One process's warm-start prefix.
 *
 * The paper: the first portion of each uniprocess trace "contains
 * all the unique references touched by the programs up to the time
 * at which tracing was begun.  These references are in the order of
 * their most recent use."  A long-running program has touched
 * essentially its whole footprint, so the prefix is the footprint:
 * words the sample run did not reach come first (least recently
 * used), then sampled words ordered by recency.
 *
 * The footprint's regions are disjoint and hold every address the
 * process emits (ProcessModel::footprint()), so the sample's last
 * uses live in one flat slot per footprint word, region by region.
 * Memory is bounded by the footprint, not by @p sample_refs.
 */
std::vector<Ref>
buildPrefix(ProcessModel &process, std::size_t sample_refs)
{
    constexpr std::uint64_t unsampled = ~std::uint64_t{0};
    struct LastUse
    {
        std::uint64_t index = unsampled; ///< position in the sample
        RefKind kind = RefKind::Load;    ///< kind of that use
    };
    const std::vector<ProcessModel::Region> regions = process.footprint();
    std::vector<std::size_t> first_slot;
    std::size_t words = 0;
    for (const auto &region : regions) {
        first_slot.push_back(words);
        words += region.words;
    }
    std::vector<LastUse> last_use(words);
    std::size_t sampled = 0;
    for (std::size_t i = 0; i < sample_refs; ++i) {
        Ref ref = process.next();
        std::size_t r = 0;
        while (r < regions.size() &&
               ref.addr - regions[r].base >= regions[r].words)
            ++r;
        if (r == regions.size())
            panic("interleave: pid %u emitted address %#llx outside "
                  "its footprint",
                  unsigned(ref.pid),
                  static_cast<unsigned long long>(ref.addr));
        LastUse &slot =
            last_use[first_slot[r] + (ref.addr - regions[r].base)];
        sampled += slot.index == unsampled;
        slot = {i, ref.kind};
    }

    // Unsampled footprint words first, in region and address order;
    // sampled ones are set aside with their last-use index.
    std::vector<Ref> prefix;
    prefix.reserve(words);
    std::vector<std::pair<std::uint64_t, Ref>> recent;
    recent.reserve(sampled);
    for (std::size_t r = 0; r < regions.size(); ++r) {
        const LastUse *slots = last_use.data() + first_slot[r];
        for (std::uint64_t w = 0; w < regions[r].words; ++w) {
            Addr addr = regions[r].base + w;
            if (slots[w].index == unsampled)
                prefix.push_back({addr, regions[r].kind, process.pid()});
            else
                recent.push_back(
                    {slots[w].index, {addr, slots[w].kind, process.pid()}});
        }
    }
    // Then sampled words, least recently used first.  Last-use
    // indices are unique, so they alone fix the order.
    std::sort(recent.begin(), recent.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (const auto &[index, ref] : recent)
        prefix.push_back(ref);
    return prefix;
}

} // namespace

Trace
interleave(const std::string &name, std::vector<ProcessModel> &processes,
           const InterleaveConfig &cfg)
{
    InterleaveSource source(name, processes, cfg);
    return materialize(source);
}

InterleaveSource::InterleaveSource(std::string name,
                                   std::vector<ProcessModel> processes,
                                   const InterleaveConfig &cfg)
    : name_(std::move(name)), cfg_(cfg),
      processes_(std::move(processes)), rng_(cfg.seed)
{
    if (processes_.empty())
        fatal("interleave: no processes for workload '%s'",
              name_.c_str());

    // Warm-start prefix (R2000-style), interleaved with the same
    // slice distribution as the live stream.  Its size is bounded by
    // the processes' footprints, so building it eagerly keeps the
    // source's memory independent of cfg.lengthRefs.
    if (cfg_.prefixSampleRefs > 0) {
        // Each process's prefix depends on that process alone, so
        // they build on the pool (serially inside a pool task); the
        // interleaving draws on rng_ all come after, in one order.
        std::vector<std::vector<Ref>> prefixes =
            parallelMap<std::vector<Ref>>(
                processes_.size(), [this](std::size_t p) {
                    return buildPrefix(processes_[p],
                                       cfg_.prefixSampleRefs);
                });
        std::vector<std::size_t> cursors(processes_.size(), 0);
        std::size_t remaining = 0;
        for (const auto &p : prefixes)
            remaining += p.size();
        prefix_.reserve(remaining);
        while (remaining > 0) {
            std::size_t who = rng_.below(processes_.size());
            if (cursors[who] >= prefixes[who].size())
                continue;
            std::size_t slice =
                1 + rng_.geometric(1.0 / cfg_.meanSliceRefs);
            slice = std::min(slice,
                             prefixes[who].size() - cursors[who]);
            auto from = prefixes[who].begin() +
                        static_cast<std::ptrdiff_t>(cursors[who]);
            prefix_.insert(prefix_.end(), from,
                           from + static_cast<std::ptrdiff_t>(slice));
            cursors[who] += slice;
            remaining -= slice;
        }
    }

    total_ = prefix_.size() + cfg_.lengthRefs;
    warm_ = std::max(cfg_.warmStartRefs, prefix_.size());

    // Snapshot the post-prefix generator state so reset() replays
    // the live stream bit-identically.
    liveStart_ = processes_;
    liveRng_ = rng_;
}

void
InterleaveSource::reset()
{
    processes_ = liveStart_;
    rng_ = liveRng_;
    pos_ = 0;
    who_ = 0;
    sliceLeft_ = 0;
}

std::size_t
InterleaveSource::fill(Ref *out, std::size_t max)
{
    std::size_t produced = 0;
    while (produced < max && pos_ < total_) {
        if (pos_ < prefix_.size()) {
            std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(max - produced,
                                        prefix_.size() - pos_));
            std::copy(prefix_.begin() +
                          static_cast<std::ptrdiff_t>(pos_),
                      prefix_.begin() +
                          static_cast<std::ptrdiff_t>(pos_ + n),
                      out + produced);
            produced += n;
            pos_ += n;
            continue;
        }
        if (sliceLeft_ == 0) {
            // Same draw sequence as the eager interleaver: one
            // scheduling decision and one slice length per slice,
            // clamped at the stream end.
            who_ = static_cast<std::size_t>(
                rng_.below(processes_.size()));
            std::uint64_t slice =
                1 + rng_.geometric(1.0 / cfg_.meanSliceRefs);
            sliceLeft_ = std::min<std::uint64_t>(slice,
                                                 total_ - pos_);
        }
        std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(max - produced, sliceLeft_));
        for (std::size_t i = 0; i < n; ++i)
            out[produced + i] = processes_[who_].next();
        produced += n;
        sliceLeft_ -= n;
        pos_ += n;
    }
    return produced;
}

} // namespace cachetime
