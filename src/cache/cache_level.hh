/**
 * @file
 * A cache as a level *inside* the hierarchy (e.g. a second-level
 * cache between the CPU/L1 pair and main memory, Section 6).
 *
 * CacheLevel composes the organizational Cache with access timing:
 * a fixed hit time in CPU cycles plus a word-transfer rate on its
 * upstream port.  Misses recurse into the downstream MemLevel
 * (usually a WriteBuffer in front of MainMemory), so hierarchies of
 * any depth compose.
 */

#ifndef CACHETIME_CACHE_CACHE_LEVEL_HH
#define CACHETIME_CACHE_CACHE_LEVEL_HH

#include <string>

#include "cache/cache.hh"
#include "memory/mem_level.hh"
#include "memory/memory_timing.hh"
#include "util/serialize.hh"

namespace cachetime
{

/** Timing parameters of an intermediate cache level. */
struct CacheLevelTiming
{
    /** Cycles to probe tags and read data on a hit. */
    unsigned hitCycles = 3;

    /** Upstream (toward the CPU) transfer rate. */
    TransferRate upstreamRate{1, 1};

    /** Internal path used to extract a victim block (words/cycle). */
    TransferRate victimRate{1, 1};
};

/** A timed cache level implementing MemLevel. */
class CacheLevel : public MemLevel
{
  public:
    /**
     * @param config     organizational parameters of this cache
     * @param timing     hit latency and port rates
     * @param downstream where misses and write-backs go
     * @param name       for diagnostics, e.g. "L2"
     */
    CacheLevel(const CacheConfig &config, const CacheLevelTiming &timing,
               MemLevel *downstream, std::string name = "L2");

    ReadReply readBlock(Tick when, Addr addr, unsigned words,
                        unsigned criticalOffset, Pid pid) override;

    Tick writeBlock(Tick when, Addr addr, unsigned words,
                    Pid pid) override;

    Tick freeAt() const override { return freeAt_; }

    Tick drain(Tick when) override { return down_->drain(when); }

    /** @return the organizational cache (stats, probing). */
    const Cache &cache() const { return cache_; }

    /** Reset statistics at the warm-start boundary. */
    void resetStats() { cache_.resetStats(); }

    /**
     * Return to the constructed state in place - an empty cache
     * (Cache::reset()), an idle port - now draining into
     * @p downstream.
     */
    void
    reset(MemLevel *downstream)
    {
        cache_.reset();
        down_ = downstream;
        freeAt_ = 0;
    }

    /** Serialize cache contents + port horizon (checkpoints). */
    void
    saveState(StateWriter &w) const
    {
        w.u64(static_cast<std::uint64_t>(freeAt_));
        cache_.saveState(w);
    }

    /** Restore state written by saveState() on an identical config. */
    void
    loadState(StateReader &r)
    {
        freeAt_ = static_cast<Tick>(r.u64());
        cache_.loadState(r);
    }

  private:
    /** Handle a fill, including any dirty-victim write-back. */
    Tick missFill(Tick start, const AccessOutcome &outcome, Pid pid);

    Cache cache_;
    CacheLevelTiming timing_;
    MemLevel *down_;
    Tick freeAt_ = 0;
};

} // namespace cachetime

#endif // CACHETIME_CACHE_CACHE_LEVEL_HH
