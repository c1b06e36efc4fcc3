/**
 * @file
 * Synthetic per-process reference-stream models.
 *
 * The paper's stimulus was eight multiprogrammed traces: four VAX
 * 8200 ATUM snapshots with operating-system activity and four
 * interleaved MIPS R2000 user-level traces.  Those artifacts are not
 * redistributable, so cachetime substitutes a parametric generator
 * that reproduces the properties the experiments depend on:
 *
 *  - temporal locality of data (Zipf-distributed object popularity),
 *  - spatial locality (sequential scans within objects, sequential
 *    instruction fetch, stack locality),
 *  - looping instruction streams with function calls,
 *  - process start-up behaviour (sequential zeroing of the data
 *    space, which the paper credits for the write traffic of the
 *    grep/egrep runs),
 *  - distinct code/data/stack regions laid out at the *same* virtual
 *    addresses in every process, so multiprogramming produces the
 *    inter-process conflicts that drive the virtual-cache effects in
 *    Figure 4-1.
 *
 * Every stream is a deterministic function of its seed.
 */

#ifndef CACHETIME_TRACE_SYNTHETIC_HH
#define CACHETIME_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <vector>

#include "trace/ref.hh"
#include "util/rng.hh"

namespace cachetime
{

/**
 * Tunable knobs describing one process's locality behaviour.
 *
 * The defaults approximate the paper's VAX multiprogramming mix; the
 * riscProfile() / vaxProfile() factories below give the two families
 * used by the Table 1 workloads.
 */
struct ProcessProfile
{
    // --- instruction stream ---
    std::uint64_t codeWords = 16 * 1024;  ///< code footprint in words
    double meanLoopLen = 24;              ///< mean inner-loop length
    double meanLoopIters = 12;            ///< mean inner iterations
    double meanOuterLen = 1024;           ///< mean outer-loop span
    double meanOuterIters = 4;            ///< mean outer iterations
    double callProb = 0.15;               ///< call chance at outer exit
    std::uint64_t functionCount = 64;     ///< call-target population
    double functionZipfTheta = 0.7;       ///< call-target popularity skew

    // --- reference mix ---
    double dataFraction = 0.40;           ///< data refs / total refs
    double storeFraction = 0.32;          ///< stores / data refs
    double stackFraction = 0.30;          ///< stack refs / data refs

    // --- data stream ---
    std::uint64_t dataWords = 24 * 1024;  ///< heap+global footprint
    std::uint64_t objectWords = 16;       ///< spatial clustering grain

    /**
     * Temporal locality: heap accesses pick an object by LRU stack
     * distance drawn from a lognormal distribution (median
     * medianDepthObjects, log-scale sigma depthSigma), the shape
     * real stack-distance profiles show.  A cache holding the s
     * most recent objects then misses with the lognormal tail
     * probability P(depth > s), which falls off steeply with size -
     * the multi-scale reuse the speed-size tradeoff depends on.
     */
    double medianDepthObjects = 24;
    double depthSigma = 2.0;

    /**
     * Fraction of heap accesses that go to the *static* hot head of
     * the data segment (globals/bss at the segment start).  Because
     * segments are page-aligned, these hot head pages alias with the
     * hot stack page in small direct-mapped caches - the intra- and
     * inter-process conflict structure that makes set associativity
     * pay off (Figure 4-1).
     */
    double hotHeadProb = 0.25;
    std::uint64_t hotHeadObjects = 16;    ///< ~256 words of globals

    double scanStartProb = 0.06;          ///< chance a ref starts a scan
    double meanScanLen = 16;              ///< mean sequential scan length
    std::uint64_t stackWords = 512;       ///< active stack window

    /**
     * --- sharing (multi-core workloads) ---
     *
     * Fraction of data references steered into a *shared* region
     * that sits at the same virtual address in every process (no
     * per-pid scatter).  With processes mapped onto different cores
     * this is what creates cross-core read sharing and, through
     * sharedStoreFraction, the invalidation traffic the coherence
     * protocols differ on.  Zero (the default) keeps every process's
     * footprint fully private.
     */
    double sharedFraction = 0.0;
    std::uint64_t sharedWords = 4 * 1024; ///< shared-region footprint
    double sharedStoreFraction = 0.30;    ///< stores / shared refs

    // --- start-up behaviour ---
    std::uint64_t zeroingWords = 0;       ///< stores issued at start

    /**
     * Walk the data space with loads at start-up (interleaved with
     * instruction fetches).  Models a process that has already
     * touched its address space, so that - as with the paper's
     * traces - misses after the warm-start boundary reflect
     * capacity and conflict behaviour, not first-touch effects.
     */
    bool primeOnStart = true;

    /** The VAX/VMS multiprogramming flavour (higher miss rates). */
    static ProcessProfile vaxProfile();

    /** The R2000 optimized-C flavour (denser loops, lower miss rates). */
    static ProcessProfile riscProfile();
};

/**
 * Generates one process's reference stream on demand.
 *
 * All processes share one virtual-address layout (code low, heap in
 * the middle, stack high) with a small per-process jitter, mirroring
 * real multiprogrammed address spaces.
 */
class ProcessModel
{
  public:
    /**
     * @param profile locality parameters
     * @param pid     process id stamped on every reference
     * @param seed    RNG seed; streams are deterministic per seed
     */
    ProcessModel(const ProcessProfile &profile, Pid pid,
                 std::uint64_t seed);

    /** Produce the next reference of this process. */
    Ref next();

    /** @return the process id. */
    Pid pid() const { return pid_; }

    /** One contiguous region of this process's address space. */
    struct Region
    {
        Addr base;
        std::uint64_t words;
        RefKind kind; ///< how untouched words are emitted in a prefix
    };

    /**
     * @return the code/data/stack (and shared) regions: the full
     * footprint.  The regions are disjoint and hold every address
     * next() emits; the constructor rejects a profile that would
     * break either promise.
     */
    std::vector<Region> footprint() const;

  private:
    Ref nextInstruction();
    Ref nextData();
    void startLoop(Addr at);
    void startOuter(Addr at);
    Addr pickHeapObject();
    void checkFootprint() const;

    ProcessProfile profile_;
    Pid pid_;
    Rng rng_;

    // Address-space layout (word addresses).
    Addr codeBase_;
    Addr dataBase_;
    Addr stackBase_;

    // Instruction-stream state: an inner loop nested in an outer
    // loop, giving reuse at two scales.
    Addr pc_;
    Addr loopStart_ = 0;
    std::uint64_t loopLen_ = 1;
    std::uint64_t loopItersLeft_ = 0;
    Addr outerStart_ = 0;
    std::uint64_t outerLen_ = 1;
    std::uint64_t outerItersLeft_ = 0;

    // LRU stack of heap objects, most recent first, in one array.
    // A touch at depth d moves the d objects above it down one slot
    // in a single block move.  The lognormal pick draws the depth
    // itself; hot-head and scan touches search the stack for it.
    std::vector<std::uint32_t> objectStack_;
    /** Move the object at @p depth to the front; @return it. */
    std::uint32_t moveToFront(std::size_t depth);
    /** Move @p object to the front, wherever it sits. */
    void touchObject(std::uint32_t object);

    // Data-stream state.
    Addr scanPtr_ = 0;
    std::uint64_t scanLeft_ = 0;
    std::int64_t stackDepth_ = 0;
    std::uint64_t zeroingLeft_ = 0;
    Addr zeroPtr_ = 0;
    std::uint64_t primeLeft_ = 0;
    Addr primePtr_ = 0;
};

} // namespace cachetime

#endif // CACHETIME_TRACE_SYNTHETIC_HH
