/**
 * @file
 * Randomized equivalence coverage for the fast-path engine: the SoA
 * probe arrays, the shift/mask indexing and the templated chunked
 * loop in System::run must be unobservable except in wall-clock.
 *
 * Five properties:
 *  - ~200 random machines from the fuzz generator agree with the
 *    oracle counter-for-counter (a directed complement to the
 *    larger verify.fuzz_smoke campaign, run in-process so a failure
 *    shows up in the unit suite with a formatted diff);
 *  - probe() and the demand path agree on every hit/miss decision,
 *    including tags at and beyond 2^50 where the fused-key array
 *    falls back to the wide-tag sentinel scan;
 *  - the SWAR probe scan (four fused keys per iteration in
 *    Cache::findIndex) is equivalent to the oracle's one-at-a-time
 *    scalar scan across associativities that exercise both the
 *    4-wide body and the scalar tail, on traces mixing narrow and
 *    >= 2^50 wide tags within the same sets;
 *  - eight concurrent simulations of the same (config, trace) are
 *    bit-identical to a serial run (no shared mutable state in the
 *    fast path);
 *  - running with every debug-trace flag lit is bit-identical to
 *    running silent (the miss, buffer, memory and run events change
 *    only what is emitted, never what is simulated).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "core/experiment.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"
#include "trace_debug/trace_debug.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "verify/diff.hh"
#include "verify/fuzz.hh"
#include "verify/oracle.hh"

using namespace cachetime;

namespace
{

/** Deterministic scaled-down paper workload shared by the tests. */
const Trace &
smallTrace()
{
    static const Trace trace = [] {
        setQuiet(true);
        return generate(table1Workloads().front(), 0.02);
    }();
    return trace;
}

} // namespace

TEST(FastPath, RandomConfigsMatchOracle)
{
    setQuiet(true);
    // A seed range disjoint from verify.fuzz_smoke (seeds 1..10000)
    // so the two runs cover different machines.
    constexpr std::uint64_t kFirstSeed = 7'000'001;
    constexpr std::uint64_t kCases = 200;
    for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kCases;
         ++seed) {
        verify::FuzzCase fuzz_case = verify::generateCase(seed);
        verify::CaseOutcome outcome = verify::checkCase(fuzz_case);
        ASSERT_FALSE(outcome.mismatch)
            << "fast path diverged from the oracle at seed " << seed
            << "\n"
            << verify::formatDiffs(outcome.diffs);
    }
}

TEST(FastPath, ProbeAgreesWithDemandAccessIncludingWideTags)
{
    struct Shape
    {
        unsigned assoc;
        ReplPolicy repl;
        unsigned fetchWords; // 0 = whole blocks
    };
    const Shape shapes[] = {
        {1, ReplPolicy::Random, 0},
        {4, ReplPolicy::LRU, 0},
        {2, ReplPolicy::FIFO, 1}, // sub-block valid bits
        {8, ReplPolicy::LRU, 0},  // two full SWAR quads
        {16, ReplPolicy::LRU, 0}, // four quads, deeper LRU churn
    };

    for (const Shape &shape : shapes) {
        CacheConfig config;
        config.sizeWords = 4 * 1024;
        config.blockWords = 4;
        config.assoc = shape.assoc;
        config.replPolicy = shape.repl;
        config.fetchWords = shape.fetchWords;
        config.virtualTags = true;
        Cache cache(config);

        // Three address regions: ordinary tags, tags right at the
        // 2^50 wide-tag boundary, and far beyond it.  All three land
        // in the same sets, so narrow and wide keys coexist within
        // one fused-key row.
        const Addr bases[] = {0, Addr{1} << 50, Addr{3} << 60};
        const Pid pids[] = {1, 2, 7};
        Rng rng(0x9e3779b9 + shape.assoc);

        for (int i = 0; i < 20000; ++i) {
            Addr addr = bases[rng.below(3)] +
                        (rng.below(2048) * 4 + rng.below(4));
            Pid pid = pids[rng.below(3)];
            RefKind kind = rng.below(4) == 0 ? RefKind::Store
                           : rng.below(2) == 0 ? RefKind::Load
                                               : RefKind::IFetch;

            const bool expect_hit = cache.probe(addr, 1, pid);
            AccessOutcome outcome = cache.access(Ref{addr, kind, pid});
            if (kind == RefKind::Store) {
                // A store hits on any resident line (write-validate
                // fills the word), so probe() true must imply a hit
                // but not the converse.
                ASSERT_TRUE(!expect_hit || outcome.hit)
                    << "probe hit but store missed at addr=" << addr
                    << " pid=" << pid << " assoc=" << shape.assoc;
            } else {
                ASSERT_EQ(outcome.hit, expect_hit)
                    << "probe/demand disagreement at addr=" << addr
                    << " pid=" << pid << " assoc=" << shape.assoc;
            }

            if (i == 12000) {
                cache.invalidateAll();
                for (Addr base : bases)
                    EXPECT_FALSE(cache.probe(base, 1, pid));
            }
        }
    }
}

/**
 * The SWAR scan against straight-line scalar code: the oracle scans
 * sets one key at a time, the fast path four fused keys per
 * iteration, and every counter must still match exactly.  The
 * associativity axis covers the quad-only shapes (4, 8, 16), the
 * tail-only shapes (1, 2) and the direct-mapped degenerate case;
 * the address regions put ordinary fused keys and >= 2^50 wide-tag
 * sentinels side by side in the same sets, so the scan has to skip
 * sentinel slots without ever matching one.
 */
TEST(FastPath, SwarScanMatchesScalarOracleWithWideTags)
{
    setQuiet(true);
    for (unsigned assoc : {1u, 2u, 4u, 8u, 16u}) {
        SystemConfig config = SystemConfig::paperDefault();
        config.split = false;
        config.dcache.sizeWords = 4 * 1024;
        config.dcache.blockWords = 4;
        config.dcache.fetchWords = 0;
        config.dcache.assoc = assoc;
        config.dcache.replPolicy =
            assoc == 1 ? ReplPolicy::Random : ReplPolicy::LRU;
        config.dcache.allocPolicy = AllocPolicy::WriteAllocate;
        config.dcache.virtualTags = true;

        std::vector<Ref> refs;
        Rng rng(0x5ea5c0de + assoc);
        const Addr bases[] = {0, Addr{1} << 50, Addr{1} << 55,
                              Addr{3} << 60};
        for (int i = 0; i < 30000; ++i) {
            Addr addr = bases[rng.below(4)] +
                        (rng.below(2048) * 4 + rng.below(4));
            RefKind kind = rng.below(4) == 0 ? RefKind::Store
                           : rng.below(2) == 0 ? RefKind::Load
                                               : RefKind::IFetch;
            refs.push_back(
                Ref{addr, kind, static_cast<Pid>(rng.below(3))});
        }
        Trace trace("swar-wide", std::move(refs), 0);

        SimResult fast = simulateOne(config, trace);
        SimResult scalar = verify::oracleRun(config, trace);
        auto diffs = verify::diffResults(scalar, fast);
        EXPECT_TRUE(diffs.empty())
            << "SWAR scan diverged from the scalar oracle at assoc="
            << assoc << ":\n"
            << verify::formatDiffs(diffs);
    }
}

TEST(FastPath, EightConcurrentRunsBitIdenticalToSerial)
{
    setQuiet(true);
    const Trace &trace = smallTrace();
    SystemConfig config = SystemConfig::paperDefault();
    SimResult serial = simulateOne(config, trace);

    setParallelThreads(8);
    std::vector<SimResult> results(8);
    parallelFor(8, [&](std::size_t i) {
        results[i] = simulateOne(config, trace);
    });
    setParallelThreads(0);

    for (std::size_t i = 0; i < results.size(); ++i) {
        auto diffs = verify::diffResults(serial, results[i]);
        EXPECT_TRUE(diffs.empty())
            << "copy " << i << " diverged:\n"
            << verify::formatDiffs(diffs);
    }
}

TEST(FastPath, TracingOnVsOffBitIdentical)
{
    setQuiet(true);
    const Trace &trace = smallTrace();
    SystemConfig config = SystemConfig::paperDefault();

    const unsigned saved = trace_debug::flags();
    trace_debug::setFlags(0);
    SimResult off = simulateOne(config, trace);

    // Capture into the ring so the run stays silent; All lights every
    // event the run emits (misses, buffer, memory, run start/end).
    trace_debug::setRingCapacity(1024);
    trace_debug::setFlags(trace_debug::All);
    SimResult on = simulateOne(config, trace);
    const bool emitted = !trace_debug::drainRing().empty();
    trace_debug::setFlags(saved);
    trace_debug::setRingCapacity(0);

    EXPECT_TRUE(emitted) << "tracing run produced no events";
    auto diffs = verify::diffResults(off, on);
    EXPECT_TRUE(diffs.empty())
        << "tracing changed the simulation:\n"
        << verify::formatDiffs(diffs);
}
