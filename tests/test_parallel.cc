/**
 * @file
 * Tests for the parallel sweep engine and the SimCache memoizer:
 * parallelFor/parallelMap semantics, thread-count-independent
 * (bit-identical) sweep results and workload generation, and
 * SimCache keying/hit accounting.
 *
 * Built as its own executable so `ctest -R parallel` runs exactly
 * this suite, e.g. under -DCACHETIME_TSAN=ON.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/tradeoff.hh"
#include "thread_guard.hh"
#include "trace/interleave.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace cachetime
{
namespace
{

std::vector<Trace>
tinyTraces()
{
    setQuiet(true);
    auto specs = table1Workloads();
    return {generate(specs[0], 0.01), generate(specs[4], 0.01)};
}

/// RAII guard: restore default thread count and a clean, enabled
/// SimCache no matter how the test exits.
struct ParallelGuard
{
    ~ParallelGuard()
    {
        setParallelThreads(0);
        SimCache::global().setEnabled(true);
        SimCache::global().clear();
    }
};

TEST(Parallel, ThreadCountRespondsToSetter)
{
    ParallelGuard guard;
    setParallelThreads(3);
    EXPECT_EQ(parallelThreads(), 3u);
    setParallelThreads(1);
    EXPECT_EQ(parallelThreads(), 1u);
    setParallelThreads(0);
    EXPECT_GE(parallelThreads(), 1u);
}

TEST(Parallel, ParallelForVisitsEveryIndexOnce)
{
    ParallelGuard guard;
    for (unsigned threads : {1u, 2u, 8u}) {
        setParallelThreads(threads);
        std::vector<std::atomic<int>> visits(1000);
        parallelFor(visits.size(), [&](std::size_t i) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < visits.size(); ++i)
            ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

/**
 * Workers started by a resize must wait for the next dispatch: one
 * that joined the already-finished last dispatch could count itself
 * done twice in the next one, so parallelFor either returned while
 * another worker was still running indices or hung.  Heavily
 * oversubscribed pools widen the race window enough that a pool
 * with the bug hangs in about a third of runs of this test.
 */
TEST(Parallel, ResizeThenDispatchWaitsForEveryIndex)
{
    ParallelGuard guard;
    for (int round = 0; round < 300; ++round) {
        setParallelThreads(round % 2 ? 64 : 48);
        std::vector<std::atomic<int>> visits(32);
        parallelFor(visits.size(), [&](std::size_t i) {
            // Long enough that an early return finds work pending.
            for (int spin = 0; spin < 2000; ++spin)
                visits[i].fetch_add(0, std::memory_order_relaxed);
            visits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < visits.size(); ++i)
            ASSERT_EQ(visits[i].load(), 1)
                << "round " << round << " index " << i;
    }
}

TEST(Parallel, ParallelMapPreservesOrder)
{
    ParallelGuard guard;
    for (unsigned threads : {1u, 2u, 8u}) {
        setParallelThreads(threads);
        auto out = parallelMap<std::size_t>(
            257, [](std::size_t i) { return i * i; });
        ASSERT_EQ(out.size(), 257u);
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], i * i);
    }
}

TEST(Parallel, EmptyAndSingleElementRanges)
{
    ParallelGuard guard;
    setParallelThreads(4);
    bool ran = false;
    parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
    auto one = parallelMap<int>(1, [](std::size_t) { return 7; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 7);
}

TEST(Parallel, NestedCallsRunInline)
{
    ParallelGuard guard;
    setParallelThreads(4);
    std::atomic<int> total{0};
    // A nested parallelFor inside pool work must not deadlock; it
    // runs serially on the calling worker.
    parallelFor(8, [&](std::size_t) {
        parallelFor(8, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(Parallel, ExceptionsPropagateToCaller)
{
    ParallelGuard guard;
    setParallelThreads(4);
    EXPECT_THROW(parallelFor(100,
                             [](std::size_t i) {
                                 if (i == 57)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // The pool must still be usable afterwards.
    auto out =
        parallelMap<int>(10, [](std::size_t i) { return int(i); });
    EXPECT_EQ(out[9], 9);
}

/// fatal() in a body exits with code 1 whichever thread runs it: a
/// lone fused batch or SMARTS pass runs its groups on pool workers,
/// and a worker's exit() must neither join itself nor tear down the
/// pool the submitting thread waits on.
TEST(ParallelDeathTest, FatalOnAWorkerExitsWithCodeOne)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ParallelGuard guard;
    setParallelThreads(2);
    const std::thread::id caller = std::this_thread::get_id();
    EXPECT_EXIT(parallelFor(64,
                            [caller](std::size_t i) {
                                if (std::this_thread::get_id() != caller)
                                    fatal("bad input at %zu", i);
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(10));
                            }),
                ::testing::ExitedWithCode(1), "bad input");
}

/// Fig 3/4-shaped mini-grid: a size x cycle-time sweep aggregated
/// with runGeoMeanMany, exactly the shape the figure benches use.
std::vector<AggregateMetrics>
miniGrid(const std::vector<Trace> &traces)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words_each : {512u, 2048u, 8192u}) {
        for (double cycle : {40.0, 55.0, 70.0}) {
            SystemConfig config = SystemConfig::paperDefault();
            config.setL1SizeWordsEach(words_each);
            config.cycleNs = cycle;
            configs.push_back(config);
        }
    }
    return runGeoMeanMany(configs, traces);
}

TEST(Parallel, MiniGridBitIdenticalAcrossThreadCounts)
{
    ParallelGuard guard;
    auto traces = tinyTraces();

    setParallelThreads(1);
    SimCache::global().clear();
    auto serial = miniGrid(traces);
    ASSERT_EQ(serial.size(), 9u);

    for (unsigned threads : {2u, 8u}) {
        setParallelThreads(threads);
        SimCache::global().clear();
        auto parallel = miniGrid(traces);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            // Bit-identical, not approximately equal: the engine
            // guarantees thread count never changes results.
            EXPECT_EQ(serial[i].execNsPerRef,
                      parallel[i].execNsPerRef)
                << "point " << i << " at " << threads << " threads";
            EXPECT_EQ(serial[i].cyclesPerRef,
                      parallel[i].cyclesPerRef);
            EXPECT_EQ(serial[i].readMissRatio,
                      parallel[i].readMissRatio);
            EXPECT_EQ(serial[i].readTrafficRatio,
                      parallel[i].readTrafficRatio);
        }
    }
}

TEST(Parallel, MiniGridBitIdenticalWithCacheDisabled)
{
    ParallelGuard guard;
    auto traces = tinyTraces();

    setParallelThreads(1);
    SimCache::global().setEnabled(false);
    auto serial = miniGrid(traces);

    setParallelThreads(8);
    auto parallel = miniGrid(traces);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i].execNsPerRef, parallel[i].execNsPerRef);
}

TEST(Parallel, SpeedSizeGridMatchesAcrossThreadCounts)
{
    ParallelGuard guard;
    auto traces = tinyTraces();
    std::vector<std::uint64_t> sizes{1024, 4096};
    std::vector<double> cycles{40.0, 60.0};

    setParallelThreads(1);
    SimCache::global().clear();
    SpeedSizeGrid serial =
        buildSpeedSizeGrid(SystemConfig::paperDefault(), sizes,
                           cycles, traces);

    setParallelThreads(8);
    SimCache::global().clear();
    SpeedSizeGrid parallel =
        buildSpeedSizeGrid(SystemConfig::paperDefault(), sizes,
                           cycles, traces);

    for (std::size_t i = 0; i < sizes.size(); ++i)
        for (std::size_t j = 0; j < cycles.size(); ++j) {
            EXPECT_EQ(serial.execNsPerRef[i][j],
                      parallel.execNsPerRef[i][j]);
            EXPECT_EQ(serial.cyclesPerRef[i][j],
                      parallel.cyclesPerRef[i][j]);
        }
}

TEST(SimCacheTest, HitAndMissAccounting)
{
    ParallelGuard guard;
    auto traces = tinyTraces();
    SimCache::global().setEnabled(true);
    SimCache::global().clear();
    SystemConfig config = SystemConfig::paperDefault();

    std::uint64_t misses0 = SimCache::global().misses();
    auto first = simulateOneCached(config, traces[0]);
    EXPECT_EQ(SimCache::global().misses(), misses0 + 1);

    std::uint64_t hits0 = SimCache::global().hits();
    auto second = simulateOneCached(config, traces[0]);
    EXPECT_EQ(SimCache::global().hits(), hits0 + 1);
    // Memoized: literally the same immutable result object.
    EXPECT_EQ(first.get(), second.get());

    // A different trace is a distinct key.
    simulateOneCached(config, traces[1]);
    EXPECT_EQ(SimCache::global().misses(), misses0 + 2);
}

TEST(SimCacheTest, CachedResultMatchesUncachedSimulation)
{
    ParallelGuard guard;
    auto traces = tinyTraces();
    SimCache::global().clear();
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(2048);

    SimResult plain = simulateOne(config, traces[0]);
    auto cached = simulateOneCached(config, traces[0]);
    EXPECT_EQ(plain.cycles, cached->cycles);
    EXPECT_EQ(plain.refs, cached->refs);
    EXPECT_EQ(plain.dcache.readMisses, cached->dcache.readMisses);
}

TEST(SimCacheTest, DisabledCacheBypassesMemoization)
{
    ParallelGuard guard;
    auto traces = tinyTraces();
    SimCache::global().setEnabled(false);
    SimCache::global().clear();
    SystemConfig config = SystemConfig::paperDefault();
    auto a = simulateOneCached(config, traces[0]);
    auto b = simulateOneCached(config, traces[0]);
    EXPECT_EQ(SimCache::global().size(), 0u);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->cycles, b->cycles);
}

TEST(SimCacheTest, KeySeparatesTimingRelevantFields)
{
    auto traces = tinyTraces();
    std::uint64_t h = traceIdentityHash(traces[0]);
    SystemConfig base = SystemConfig::paperDefault();
    SimKey base_key = simKey(base, h);

    // Every timing-relevant mutation must move the key.
    std::vector<SystemConfig> variants;
    SystemConfig v = base;
    v.cycleNs = 41.0;
    variants.push_back(v);
    v = base;
    v.setL1SizeWordsEach(base.dcache.sizeWords * 2);
    variants.push_back(v);
    v = base;
    v.setL1BlockWords(base.dcache.blockWords * 2);
    variants.push_back(v);
    v = base;
    v.setL1Assoc(2);
    variants.push_back(v);
    v = base;
    v.dcache.writePolicy = WritePolicy::WriteThrough;
    variants.push_back(v);
    v = base;
    v.l1Buffer.depth += 1;
    variants.push_back(v);
    v = base;
    v.memory.readLatencyNs += 60.0;
    variants.push_back(v);
    v = base;
    v.hasL2 = true;
    variants.push_back(v);
    v = base;
    v.dcache.victimEntries = 4;
    variants.push_back(v);
    v = base;
    v.dcache.prefetchPolicy = PrefetchPolicy::Tagged;
    variants.push_back(v);

    std::vector<SimKey> keys{base_key};
    for (const SystemConfig &variant : variants)
        keys.push_back(simKey(variant, h));
    // Also: same config, different trace.
    keys.push_back(simKey(base, traceIdentityHash(traces[1])));

    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_FALSE(keys[i] == keys[j])
                << "collision between variant " << i << " and " << j;
}

TEST(SimCacheTest, KeyStableAcrossEquivalentSpellings)
{
    auto traces = tinyTraces();
    std::uint64_t h = traceIdentityHash(traces[0]);

    // hasL2/l2cache sugar and an explicit one-entry midLevels list
    // describe the same machine; the canonical key must agree.
    SystemConfig sugar = SystemConfig::paperDefault();
    sugar.hasL2 = true;
    sugar.l2cache.sizeWords = 128 * 1024;
    sugar.l2Timing.hitCycles = 4;

    SystemConfig explicit_list = SystemConfig::paperDefault();
    SystemConfig::MidLevelConfig mid;
    mid.cache = sugar.l2cache;
    mid.timing = sugar.l2Timing;
    mid.buffer = sugar.l2Buffer;
    explicit_list.midLevels.push_back(mid);

    EXPECT_TRUE(simKey(sugar, h) == simKey(explicit_list, h));
}

TEST(SimCacheTest, InsertIsFirstWins)
{
    ParallelGuard guard;
    SimCache::global().setEnabled(true);
    SimCache::global().clear();
    SimKey key{0x1234, 0x5678};
    auto a = std::make_shared<const SimResult>();
    auto b = std::make_shared<const SimResult>();
    SimCache::global().insert(key, a);
    SimCache::global().insert(key, b);
    EXPECT_EQ(SimCache::global().find(key).get(), a.get());
    EXPECT_EQ(SimCache::global().size(), 1u);
}

TEST(SimCacheTest, TraceHashSensitiveToContent)
{
    setQuiet(true);
    auto specs = table1Workloads();
    Trace a = generate(specs[0], 0.01);
    Trace b = generate(specs[0], 0.02); // different length
    Trace c = generate(specs[1], 0.01); // different workload
    EXPECT_NE(traceIdentityHash(a), traceIdentityHash(b));
    EXPECT_NE(traceIdentityHash(a), traceIdentityHash(c));
    EXPECT_EQ(traceIdentityHash(a), traceIdentityHash(a));
}

TEST(Parallel, StandardTraceGenerationOrderIndependent)
{
    ParallelGuard guard;
    setQuiet(true);
    setParallelThreads(1);
    auto serial = generateTable1(0.01);
    setParallelThreads(8);
    auto parallel = generateTable1(0.01);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].name(), parallel[i].name());
        EXPECT_EQ(traceIdentityHash(serial[i]),
                  traceIdentityHash(parallel[i]));
    }
}

/// A lone generator builds its per-process warm prefixes over the
/// pool; inside a pool task it builds them serially.  Either way the
/// stream is the same, since each prefix depends only on its own
/// process and the interleaving draws all come after.
TEST(Interleave, PrefixIndependentOfThreadCount)
{
    ThreadGuard guard;
    const WorkloadSpec spec = table1Workloads()[1]; // mu6: 11 processes
    std::uint64_t hash = 0;
    std::size_t prefix = 0;
    for (unsigned threads : {1u, 2u, 4u}) {
        setParallelThreads(threads);
        const std::uint64_t before = poolStats().dispatches;
        auto source = makeWorkloadSource(spec, 0.05);
        const std::uint64_t dispatches = poolStats().dispatches - before;
        if (threads == 1) {
            EXPECT_EQ(dispatches, 0u);
            hash = source->contentHash();
            prefix = source->prefixLength();
            EXPECT_GT(prefix, 0u);
            continue;
        }
        EXPECT_GT(dispatches, 0u) << threads << " threads";
        EXPECT_EQ(source->contentHash(), hash) << threads << " threads";
        EXPECT_EQ(source->prefixLength(), prefix)
            << threads << " threads";
    }

    setParallelThreads(2);
    std::unique_ptr<InterleaveSource> nested;
    const std::uint64_t before = poolStats().dispatches;
    parallelFor(2, [&](std::size_t i) {
        if (i == 0)
            nested = makeWorkloadSource(spec, 0.05);
    });
    EXPECT_EQ(poolStats().dispatches - before, 1u); // the outer loop
    ASSERT_TRUE(nested);
    EXPECT_EQ(nested->contentHash(), hash);
    EXPECT_EQ(nested->prefixLength(), prefix);
}

} // namespace
} // namespace cachetime
