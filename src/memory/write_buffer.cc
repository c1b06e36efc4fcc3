#include "memory/write_buffer.hh"

#include <bit>

#include <algorithm>

#include "trace_debug/trace_debug.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace cachetime
{

WriteBuffer::WriteBuffer(const WriteBufferConfig &config,
                         MemLevel *downstream, std::string name)
    : config_(config), down_(downstream), name_(std::move(name))
{
    if (!down_)
        panic("%s: write buffer needs a downstream level",
              name_.c_str());
    if (config_.enabled && config_.depth == 0)
        fatal("%s: enabled write buffer needs depth > 0",
              name_.c_str());
    if (config_.matchGranularityWords == 0)
        fatal("%s: matchGranularityWords must be nonzero",
              name_.c_str());
    // The overlap test divides by the granularity on every queued
    // entry of every read; the common granularities are powers of
    // two, where a shift gives the identical quotient.
    unsigned gran = config_.matchGranularityWords;
    if ((gran & (gran - 1)) == 0)
        granShift_ = static_cast<unsigned>(std::countr_zero(gran));
    queue_.init(std::max<std::size_t>(config_.depth, 1));
}

bool
WriteBuffer::matches(const Entry &entry, Addr addr, unsigned words,
                     Pid pid) const
{
    if (entry.pid != pid)
        return false;
    Addr lo1, hi1, lo2, hi2;
    if (granShift_ != kNoShift) [[likely]] {
        lo1 = entry.addr >> granShift_;
        hi1 = (entry.addr + entry.words - 1) >> granShift_;
        lo2 = addr >> granShift_;
        hi2 = (addr + words - 1) >> granShift_;
    } else {
        Addr gran = config_.matchGranularityWords;
        lo1 = entry.addr / gran;
        hi1 = (entry.addr + entry.words - 1) / gran;
        lo2 = addr / gran;
        hi2 = (addr + words - 1) / gran;
    }
    return lo1 <= hi2 && lo2 <= hi1;
}

void
WriteBuffer::catchUp(Tick now)
{
    while (!queue_.empty()) {
        if (!config_.drainOnIdle && queue_.size() < config_.highWater)
            break;
        const Entry &head = queue_.front();
        Tick start = std::max(down_->freeAt(), head.ready);
        if (config_.readPriority && start >= now)
            break;
        down_->writeBlock(std::max(start, head.ready), head.addr,
                          head.words, head.pid);
        queue_.pop_front();
        ++stats_.retired;
    }
}

Tick
WriteBuffer::forceDrain(std::size_t through, Tick now)
{
    Tick release = now;
    for (std::size_t i = 0; i <= through && !queue_.empty(); ++i) {
        const Entry head = queue_.front();
        queue_.pop_front();
        Tick start = std::max(now, head.ready);
        release = down_->writeBlock(start, head.addr, head.words,
                                    head.pid);
        ++stats_.retired;
    }
    return release;
}

ReadReply
WriteBuffer::readBlock(Tick when, Addr addr, unsigned words,
                       unsigned criticalOffset, Pid pid)
{
    catchUp(when);

    Tick start = when;
    if (!config_.readPriority && !queue_.empty()) {
        // Writes drain first regardless of the waiting read.
        forceDrain(queue_.size() - 1, when);
    } else if (config_.checkReadMatch) {
        // Find the youngest queued write overlapping the read.
        std::size_t match = queue_.size();
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            if (matches(queue_[i], addr, words, pid))
                match = i;
        }
        if (match < queue_.size()) {
            ++stats_.readMatches;
            Tick release = forceDrain(match, when);
            if (release > start) {
                stats_.readMatchStallCycles += release - start;
                start = release;
            }
            CACHETIME_TRACE_EVENT(
                trace_debug::WriteBuffer,
                "%s t=%llu read match addr=%llx stall=%llu",
                name_.c_str(), static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(start - when));
        }
    }
    return down_->readBlock(start, addr, words, criticalOffset, pid);
}

Tick
WriteBuffer::writeBlock(Tick when, Addr addr, unsigned words, Pid pid)
{
    if (!config_.enabled)
        return down_->writeBlock(when, addr, words, pid);

    catchUp(when);

    ++stats_.enqueued;
    stats_.wordsEnqueued += words;

    if (config_.coalesce) {
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            Entry &entry = queue_[i];
            if (entry.addr == addr && entry.pid == pid) {
                entry.words = std::max(entry.words, words);
                entry.ready = std::max(entry.ready, when);
                ++stats_.coalesced;
                return when;
            }
        }
    }

    Tick stall_until = when;
    if (queue_.size() >= config_.depth) {
        // Full: the requester waits for the head entry to be
        // accepted downstream.
        ++stats_.fullStalls;
        const Entry head = queue_.front();
        queue_.pop_front();
        Tick start = std::max(when, head.ready);
        stall_until = down_->writeBlock(start, head.addr, head.words,
                                        head.pid);
        ++stats_.retired;
        if (stall_until > when)
            stats_.fullStallCycles += stall_until - when;
        CACHETIME_TRACE_EVENT(
            trace_debug::WriteBuffer,
            "%s t=%llu full stall addr=%llx wait=%llu",
            name_.c_str(), static_cast<unsigned long long>(when),
            static_cast<unsigned long long>(addr),
            static_cast<unsigned long long>(stall_until - when));
    }

    CACHETIME_TRACE_EVENT(
        trace_debug::WriteBuffer,
        "%s t=%llu enqueue addr=%llx words=%u depth=%zu",
        name_.c_str(), static_cast<unsigned long long>(when),
        static_cast<unsigned long long>(addr), words,
        queue_.size() + 1);

    queue_.push_back({addr, words, std::max(when, stall_until), pid});
    stats_.maxOccupancy = std::max<unsigned>(
        stats_.maxOccupancy, static_cast<unsigned>(queue_.size()));
    stats_.occupancy.sample(queue_.size());
    return stall_until;
}

Tick
WriteBuffer::freeAt() const
{
    return down_->freeAt();
}

Tick
WriteBuffer::drain(Tick when)
{
    Tick release = when;
    if (!queue_.empty())
        release = forceDrain(queue_.size() - 1, when);
    return down_->drain(std::max(when, release));
}

void
WriteBuffer::saveState(StateWriter &w) const
{
    w.u64(queue_.size());
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Entry &entry = queue_[i];
        w.u64(entry.addr);
        w.u64(entry.words);
        w.u64(static_cast<std::uint64_t>(entry.ready));
        w.u64(entry.pid);
    }
}

void
WriteBuffer::loadState(StateReader &r)
{
    std::uint64_t n = r.u64();
    if (n > config_.depth)
        fatal("%s: checkpoint has %llu queued writes, depth is %u "
              "(config mismatch)",
              name_.c_str(), static_cast<unsigned long long>(n),
              config_.depth);
    queue_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        Entry entry;
        entry.addr = r.u64();
        entry.words = static_cast<unsigned>(r.u64());
        entry.ready = static_cast<Tick>(r.u64());
        entry.pid = static_cast<Pid>(r.u64());
        queue_.push_back(entry);
    }
}

} // namespace cachetime
