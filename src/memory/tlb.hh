/**
 * @file
 * Address translation: a TLB and a deterministic page-frame map.
 *
 * The paper: "Virtual to physical translation can be placed
 * anywhere in the hierarchy.  All the simulations presented here
 * are with virtual caches..."  cachetime likewise defaults to
 * virtual (pid-tagged) caches, but provides the translation layer
 * so physically-addressed hierarchies can be simulated and compared
 * - including the Section 4 motivation that a physical cache
 * accessed in parallel with the TLB may use only the page-offset
 * bits for indexing, which forces associativity on large caches
 * (the IBM 3033's 16-way 64KB cache).
 *
 * The frame map stands in for an operating system's allocator: each
 * (pid, virtual page) is assigned a pseudo-random physical frame,
 * deterministically, so physical-cache index conflicts differ from
 * the virtual ones exactly as they do under a real OS.
 */

#ifndef CACHETIME_MEMORY_TLB_HH
#define CACHETIME_MEMORY_TLB_HH

#include <cstdint>
#include <vector>

#include "stats/counter_list.hh"
#include "util/types.hh"

namespace cachetime
{

class StateReader;
class StateWriter;

/** Organizational and timing parameters of a TLB. */
struct TlbConfig
{
    unsigned entries = 64;        ///< total entries
    unsigned assoc = 64;          ///< fully associative by default
    std::uint64_t pageWords = 1024; ///< 4KB pages
    /** Cycles to refill on a TLB miss (table walk / trap). */
    unsigned missPenaltyCycles = 20;
    std::uint64_t physFrames = 1 << 20; ///< physical memory frames

    /** Fatal-exit unless self-consistent. */
    void validate() const;
};

/** TLB activity counters (reset at warm start). */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRatio() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) / accesses;
    }

    void reset() { *this = TlbStats(); }

    /** Accumulate @p other (warm-segment measured-stats gathering). */
    void merge(const TlbStats &other) { mergeCounters(*this, other); }

    /** Every counter once (stats/counter_list.hh). */
    template <typename Visit>
    static void
    forEachCounter(Visit &&visit)
    {
        visit("accesses", "translations", &TlbStats::accesses);
        visit("misses", "TLB misses", &TlbStats::misses);
    }
};

/**
 * A set-associative TLB with LRU replacement over a deterministic
 * frame map.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /** Result of a translation. */
    struct Translation
    {
        Addr paddr;  ///< physical word address
        bool hit;    ///< TLB hit (no penalty)
    };

    /**
     * Translate a virtual word address.  Misses refill the TLB (the
     * caller charges config().missPenaltyCycles).
     */
    Translation translate(Addr vaddr, Pid pid);

    /**
     * @return the physical frame backing (pid, vpage) - the OS
     * allocation, independent of TLB state.
     */
    std::uint64_t frameOf(std::uint64_t vpage, Pid pid) const;

    /** Drop all entries (e.g. on a simulated TLB flush). */
    void flush();

    const TlbConfig &config() const { return config_; }
    const TlbStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Serialize entries and the LRU sequence (checkpoints). */
    void saveState(StateWriter &w) const;

    /** Restore state written by saveState() on an identical config. */
    void loadState(StateReader &r);

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t vpage = 0;
        Pid pid = 0;
        std::uint64_t frame = 0;
        std::uint64_t lastUse = 0;
    };

    TlbConfig config_;
    std::uint64_t numSets_;
    std::vector<Entry> entries_; ///< numSets x assoc
    std::uint64_t seq_ = 0;
    TlbStats stats_;
};

} // namespace cachetime

#endif // CACHETIME_MEMORY_TLB_HH
