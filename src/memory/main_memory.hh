/**
 * @file
 * Main memory as a single timed functional unit.
 *
 * Reads consist of a latency portion followed by a transfer period;
 * writes take an address cycle, the data transfer, and the write
 * operation; after either, a recovery period must elapse before the
 * next operation (the DRAM access-vs-cycle-time difference).  All
 * quantization to cycles is delegated to MemoryTiming so that this
 * component reproduces Table 2 of the paper for every cycle time.
 */

#ifndef CACHETIME_MEMORY_MAIN_MEMORY_HH
#define CACHETIME_MEMORY_MAIN_MEMORY_HH

#include <cstdint>
#include <vector>

#include "memory/mem_level.hh"
#include "memory/memory_timing.hh"
#include "stats/counter_list.hh"

namespace cachetime
{

class StateReader;
class StateWriter;

/** Counters for main-memory activity (reset at warm start). */
struct MainMemoryStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t wordsRead = 0;
    std::uint64_t wordsWritten = 0;
    Tick busyCycles = 0;     ///< cycles the unit was occupied
    Tick readWaitCycles = 0; ///< read start delays due to busy memory

    void reset() { *this = MainMemoryStats(); }

    /** Accumulate @p other (warm-segment measured-stats gathering). */
    void merge(const MainMemoryStats &other) { mergeCounters(*this, other); }

    /** Every counter once (stats/counter_list.hh). */
    template <typename Visit>
    static void
    forEachCounter(Visit &&visit)
    {
        using S = MainMemoryStats;
        visit("reads", "read operations", &S::reads);
        visit("writes", "write operations", &S::writes);
        visit("wordsRead", "words read", &S::wordsRead);
        visit("wordsWritten", "words written", &S::wordsWritten);
        visit("busyCycles", "cycles the unit was occupied",
              &S::busyCycles);
        visit("readWaitCycles", "read start delays due to busy memory",
              &S::readWaitCycles);
    }
};

/** The bottom of the hierarchy. */
class MainMemory : public MemLevel
{
  public:
    /**
     * @param config  nanosecond timing parameters
     * @param cycleNs CPU cycle time used for quantization
     */
    MainMemory(const MainMemoryConfig &config, double cycleNs);

    ReadReply readBlock(Tick when, Addr addr, unsigned words,
                        unsigned criticalOffset, Pid pid) override;

    Tick writeBlock(Tick when, Addr addr, unsigned words,
                    Pid pid) override;

    /**
     * Earliest time a new operation could possibly start: the bus
     * must be free and at least one bank recovered.  (The actual
     * start also waits for the specific banks an operation
     * touches.)
     */
    Tick freeAt() const override;

    /** @return quantized timing (Table 2 values). */
    const MemoryTiming &timing() const { return timing_; }

    const MainMemoryStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Serialize the bus and bank busy horizons (checkpoints). */
    void saveState(StateWriter &w) const;

    /** Restore state written by saveState() on an identical config. */
    void loadState(StateReader &r);

  private:
    /** @return when every bank touched by [addr, addr+words) frees. */
    Tick banksFreeAt(Addr addr, unsigned words) const;

    /** Mark the touched banks busy until @p until. */
    void occupyBanks(Addr addr, unsigned words, Tick until);

    MainMemoryConfig config_;
    MemoryTiming timing_;
    /** banks - 1 when banks is a power of two (mask instead of
     *  modulo in the interleave math), 0 otherwise. */
    unsigned bankMask_ = 0;
    Tick busFreeAt_ = 0;            ///< address/data path
    std::vector<Tick> bankFreeAt_;  ///< per-bank recovery horizon
    MainMemoryStats stats_;
};

} // namespace cachetime

#endif // CACHETIME_MEMORY_MAIN_MEMORY_HH
