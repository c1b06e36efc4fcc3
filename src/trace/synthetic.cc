#include "trace/synthetic.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "util/logging.hh"

namespace cachetime
{

namespace
{

// Shared virtual layout, in word addresses.  All processes use the
// same bases (plus scatter) so that multiprogrammed execution
// produces inter-process index conflicts in a virtual cache.
constexpr Addr codeRegionBase = 0x0000'0400;   // ~4KB into the space
constexpr Addr dataRegionBase = 0x0010'0000;
constexpr Addr stackRegionBase = 0x1fff'0000;
// The shared segment is mapped at the *same* address in every
// process (no per-pid scatter): references from different pids hit
// the same blocks, which is what makes them shared.
constexpr Addr sharedRegionBase = 0x0800'0000;

// Per-process placement offsets.  Real multiprogrammed address
// spaces overlap partially: segments start at similar-but-not-equal
// virtual addresses (different binary sizes, heap growth, stack
// depth).  Pseudo-random scatter windows keep some inter-process
// index conflicts alive at every cache size (the virtual-cache
// effects of Figure 4-1 depend on them) while letting conflicts
// thin out as the number of sets grows, as they do for real traces.
// Code clusters more tightly (binaries all start near the bottom of
// the text segment) than data.
// Segments are page-aligned, as in any real virtual-memory system.
// Alignment matters: the hot first pages of every process's stack
// and data segments land on the *same* indices of a small direct-
// mapped cache, producing the conflict misses that set
// associativity removes (Section 4).
constexpr Addr pageWords = 1024; // 4KB pages

Addr
pidOffsetWords(Pid pid, Addr window_words, std::uint64_t salt)
{
    std::uint64_t h = (static_cast<std::uint64_t>(pid) + 1 + salt) *
                      0x9e3779b97f4a7c15ULL;
    return ((h >> 17) % window_words) / pageWords * pageWords;
}

constexpr Addr codeScatterWords = 256 * 1024;   // 1MB window
constexpr Addr dataScatterWords = 2048 * 1024;  // 8MB window
constexpr Addr stackScatterWords = 2048 * 1024; // 8MB window

} // namespace

ProcessProfile
ProcessProfile::vaxProfile()
{
    // VMS multiprogramming snapshots: modest per-process footprints
    // (Table 1's VAX traces touch 25K-50K unique words in total
    // across 6-14 processes).
    ProcessProfile p;
    p.codeWords = 4 * 1024;
    p.dataWords = 6 * 1024;
    p.stackWords = 256;
    p.meanLoopLen = 20;
    p.meanLoopIters = 3;
    p.meanOuterLen = 768;
    p.meanOuterIters = 8;
    p.callProb = 0.20;
    p.medianDepthObjects = 64;
    p.depthSigma = 1.6;
    // Workload generation primes caches with the interleaver's
    // recency-ordered footprint prefix rather than an in-stream
    // walk, so the warm boundary never lands mid-prime.
    p.primeOnStart = false;
    return p;
}

ProcessProfile
ProcessProfile::riscProfile()
{
    ProcessProfile p;
    // Optimized RISC code: tighter loops executed longer, a slightly
    // smaller data fraction, and a larger overall footprint (the
    // R2000 traces in Table 1 touch many more unique words).
    p.meanLoopLen = 14;
    p.meanLoopIters = 6;
    p.meanOuterLen = 1024;
    p.meanOuterIters = 10;
    p.callProb = 0.12;
    p.dataFraction = 0.35;
    p.storeFraction = 0.28;
    p.medianDepthObjects = 96;
    p.depthSigma = 1.8;
    p.scanStartProb = 0.08;
    p.meanScanLen = 24;
    p.codeWords = 24 * 1024;
    p.dataWords = 48 * 1024;
    // The interleaver's recency-ordered prefix primes the caches for
    // R2000-style traces, so no start-up walk is needed.
    p.primeOnStart = false;
    return p;
}

ProcessModel::ProcessModel(const ProcessProfile &profile, Pid pid,
                           std::uint64_t seed)
    : profile_(profile), pid_(pid), rng_(seed)
{
    if (profile_.codeWords < 16 || profile_.dataWords < 16)
        fatal("ProcessModel: degenerate footprint for pid %u",
              unsigned(pid));
    codeBase_ =
        codeRegionBase + pidOffsetWords(pid, codeScatterWords, 11);
    dataBase_ =
        dataRegionBase + pidOffsetWords(pid, dataScatterWords, 23);
    // Stacks are *not* page-aligned: the stack pointer sits at an
    // arbitrary depth.  Each process's hot stack window therefore
    // aliases with its own (page-aligned) hot globals with a
    // probability that falls off as caches grow - a two-contender
    // conflict that one extra way repairs.
    stackBase_ = stackRegionBase +
                 pidOffsetWords(pid, stackScatterWords, 37) +
                 (static_cast<Addr>(pid) * 977) % pageWords;
    checkFootprint();
    pc_ = codeBase_;
    startOuter(pc_);
    startLoop(pc_);

    std::uint64_t objects =
        std::max<std::uint64_t>(1, profile_.dataWords /
                                       profile_.objectWords);
    objectStack_.resize(objects);
    std::iota(objectStack_.begin(), objectStack_.end(), 0);

    zeroingLeft_ = profile_.zeroingWords;
    zeroPtr_ = dataBase_;
    if (profile_.primeOnStart) {
        primeLeft_ = profile_.dataWords + profile_.stackWords;
        primePtr_ = dataBase_;
    }
}

std::vector<ProcessModel::Region>
ProcessModel::footprint() const
{
    std::vector<Region> regions = {
        {codeBase_, profile_.codeWords, RefKind::IFetch},
        {dataBase_, profile_.dataWords, RefKind::Load},
        {stackBase_, profile_.stackWords, RefKind::Load},
    };
    if (profile_.sharedFraction > 0)
        regions.push_back(
            {sharedRegionBase, profile_.sharedWords, RefKind::Load});
    return regions;
}

void
ProcessModel::checkFootprint() const
{
    // next() draws a word inside an object, and a stack word below
    // stackWords: a region smaller than an object, or an empty stack,
    // would emit addresses outside footprint().
    if (profile_.objectWords == 0 ||
        profile_.objectWords > profile_.dataWords ||
        (profile_.sharedFraction > 0 &&
         profile_.objectWords > profile_.sharedWords))
        fatal("ProcessModel: pid %u: objectWords %llu must be at "
              "least 1 and fit the data (%llu words) and shared "
              "(%llu words) regions",
              unsigned(pid_),
              static_cast<unsigned long long>(profile_.objectWords),
              static_cast<unsigned long long>(profile_.dataWords),
              static_cast<unsigned long long>(profile_.sharedWords));
    if (profile_.stackWords == 0)
        fatal("ProcessModel: pid %u has an empty stack region",
              unsigned(pid_));
    // A word belongs to exactly one region, so the interleaver's
    // warm prefix can keep one slot per footprint word.
    static const char *const names[] = {"code", "data", "stack",
                                        "shared"};
    const std::vector<Region> regions = footprint();
    for (std::size_t a = 0; a < regions.size(); ++a) {
        for (std::size_t b = a + 1; b < regions.size(); ++b) {
            const Region &x = regions[a], &y = regions[b];
            if (x.base < y.base + y.words && y.base < x.base + x.words)
                fatal("ProcessModel: pid %u: %s region [%#llx, +%llu) "
                      "overlaps %s region [%#llx, +%llu)",
                      unsigned(pid_), names[a],
                      static_cast<unsigned long long>(x.base),
                      static_cast<unsigned long long>(x.words),
                      names[b],
                      static_cast<unsigned long long>(y.base),
                      static_cast<unsigned long long>(y.words));
        }
    }
}

void
ProcessModel::startOuter(Addr at)
{
    Addr code_end = codeBase_ + profile_.codeWords;
    if (at >= code_end)
        at = codeBase_;
    outerStart_ = at;
    outerLen_ = 1 + rng_.geometric(1.0 / profile_.meanOuterLen);
    outerLen_ =
        std::min<std::uint64_t>(outerLen_, code_end - at);
    outerItersLeft_ = 1 + rng_.geometric(1.0 / profile_.meanOuterIters);
}

void
ProcessModel::startLoop(Addr at)
{
    Addr outer_end = outerStart_ + outerLen_;
    if (at >= outer_end)
        at = outerStart_;
    loopStart_ = at;
    loopLen_ = 1 + rng_.geometric(1.0 / profile_.meanLoopLen);
    // Keep the inner body inside the outer span.
    loopLen_ = std::min<std::uint64_t>(loopLen_, outer_end - at);
    loopItersLeft_ = 1 + rng_.geometric(1.0 / profile_.meanLoopIters);
}

Ref
ProcessModel::nextInstruction()
{
    Ref ref{pc_, RefKind::IFetch, pid_};
    ++pc_;
    if (pc_ >= loopStart_ + loopLen_) {
        if (loopItersLeft_ > 1) {
            // Another iteration of the inner loop.
            --loopItersLeft_;
            pc_ = loopStart_;
        } else if (pc_ < outerStart_ + outerLen_) {
            // Fall through to the next inner loop in the outer body.
            startLoop(pc_);
        } else if (outerItersLeft_ > 1) {
            // Another iteration of the outer loop.
            --outerItersLeft_;
            pc_ = outerStart_;
            startLoop(pc_);
        } else if (rng_.chance(profile_.callProb)) {
            // Transfer to a Zipf-popular function entry point.
            std::uint64_t fn =
                rng_.zipf(profile_.functionCount,
                          profile_.functionZipfTheta);
            pc_ = codeBase_ +
                  fn * (profile_.codeWords / profile_.functionCount);
            startOuter(pc_);
            startLoop(pc_);
        } else {
            // Continue sequentially, wrapping at the code end.
            if (pc_ >= codeBase_ + profile_.codeWords)
                pc_ = codeBase_;
            startOuter(pc_);
            startLoop(pc_);
        }
    }
    return ref;
}

std::uint32_t
ProcessModel::moveToFront(std::size_t depth)
{
    // One block move shifts the depth more recent objects down.
    std::uint32_t object = objectStack_[depth];
    std::memmove(objectStack_.data() + 1, objectStack_.data(),
                 depth * sizeof(objectStack_[0]));
    objectStack_[0] = object;
    return object;
}

void
ProcessModel::touchObject(std::uint32_t object)
{
    // The stack is a permutation of every object, so the search
    // always finds it.
    moveToFront(static_cast<std::size_t>(
        std::find(objectStack_.begin(), objectStack_.end(), object) -
        objectStack_.begin()));
}

Addr
ProcessModel::pickHeapObject()
{
    std::uint64_t n = objectStack_.size();
    std::uint32_t object;
    if (rng_.chance(profile_.hotHeadProb)) {
        // Static hot head: the globals at the start of the segment.
        std::uint64_t head =
            std::min<std::uint64_t>(profile_.hotHeadObjects, n);
        object = static_cast<std::uint32_t>(rng_.zipf(head, 0.6));
        touchObject(object);
    } else {
        // Lognormal LRU stack distance into the working set.
        object = moveToFront(rng_.lognormalBelow(
            n, profile_.medianDepthObjects, profile_.depthSigma));
    }
    return dataBase_ + static_cast<Addr>(object) * profile_.objectWords;
}

Ref
ProcessModel::nextData()
{
    // Process start-up: sequential zeroing of the data space.
    if (zeroingLeft_ > 0) {
        Ref ref{zeroPtr_, RefKind::Store, pid_};
        ++zeroPtr_;
        --zeroingLeft_;
        if (zeroPtr_ >= dataBase_ + profile_.dataWords)
            zeroPtr_ = dataBase_;
        return ref;
    }

    // Shared-segment references: Zipf-popular objects in the region
    // every process maps at the same address, so the hot head is
    // contended across cores while the tail gives each visit some
    // spatial spread.
    if (profile_.sharedFraction > 0 &&
        rng_.chance(profile_.sharedFraction)) {
        std::uint64_t objects = std::max<std::uint64_t>(
            1, profile_.sharedWords / profile_.objectWords);
        std::uint64_t object = rng_.zipf(objects, 0.6);
        Addr addr = sharedRegionBase +
                    static_cast<Addr>(object) * profile_.objectWords +
                    rng_.below(profile_.objectWords);
        RefKind kind = rng_.chance(profile_.sharedStoreFraction)
                           ? RefKind::Store
                           : RefKind::Load;
        return {addr, kind, pid_};
    }

    RefKind kind = rng_.chance(profile_.storeFraction) ? RefKind::Store
                                                       : RefKind::Load;

    // Stack references wander in a small window.
    if (rng_.chance(profile_.stackFraction)) {
        stackDepth_ += rng_.range(-2, 2);
        if (stackDepth_ < 0)
            stackDepth_ = 0;
        auto limit = static_cast<std::int64_t>(profile_.stackWords) - 1;
        if (stackDepth_ > limit)
            stackDepth_ = limit;
        return {stackBase_ + static_cast<Addr>(stackDepth_), kind, pid_};
    }

    // Continue an active sequential scan.  Scanned objects move to
    // the front of the LRU stack: a rescanned array hits.
    if (scanLeft_ > 0 && scanPtr_ >= dataBase_ + profile_.dataWords)
        scanLeft_ = 0; // ran off the end of the data space
    if (scanLeft_ > 0) {
        Ref ref{scanPtr_, kind, pid_};
        std::uint64_t off = scanPtr_ - dataBase_;
        if (off % profile_.objectWords == 0 &&
            off / profile_.objectWords < objectStack_.size()) {
            touchObject(static_cast<std::uint32_t>(
                off / profile_.objectWords));
        }
        ++scanPtr_;
        --scanLeft_;
        return ref;
    }

    // Pick an object by stack distance, a word within it uniformly.
    Addr object_base = pickHeapObject();
    Addr addr = object_base + rng_.below(profile_.objectWords);
    if (rng_.chance(profile_.scanStartProb)) {
        scanLeft_ = 1 + rng_.geometric(1.0 / profile_.meanScanLen);
        scanPtr_ = addr + 1;
    }
    return {addr, kind, pid_};
}

Ref
ProcessModel::next()
{
    if (zeroingLeft_ > 0)
        return nextData();
    if (primeLeft_ > 0 && rng_.chance(0.6)) {
        // Start-up priming: sequential loads over data, then stack.
        --primeLeft_;
        Addr addr = primePtr_;
        ++primePtr_;
        if (primePtr_ == dataBase_ + profile_.dataWords)
            primePtr_ = stackBase_;
        return {addr, RefKind::Load, pid_};
    }
    if (rng_.chance(profile_.dataFraction))
        return nextData();
    return nextInstruction();
}

} // namespace cachetime
