/**
 * @file
 * Golden regression suite: paper-figure numbers pinned at trace
 * scale 0.01 (see generateTable1).
 *
 * The values below were produced by this repository at the commit
 * that introduced the suite and are pinned as regression anchors,
 * not as claims of matching the paper's absolute numbers (the
 * synthetic traces only reproduce the paper's workload *statistics*).
 * The qualitative paper results asserted alongside them - the 56ns
 * anomaly, the cycle-count illusion, exec-optimal block size far
 * below miss-optimal - must hold for any faithful implementation.
 *
 * Tolerances: simulation is deterministic, so integer counters are
 * pinned exactly.  Geometric-mean ratios pass through std::pow/log
 * and are pinned to a 1e-9 relative tolerance to absorb libm and
 * re-association differences across toolchains.  Derived optima
 * (parabola fits) get 1e-6 relative.  See EXPERIMENTS.md for the
 * regeneration procedure when a deliberate timing change moves them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/blocksize_opt.hh"
#include "core/breakeven.hh"
#include "core/experiment.hh"
#include "memory/memory_timing.hh"
#include "sim/simulator.hh"
#include "stats/interval.hh"
#include "stats/telemetry.hh"
#include "thread_guard.hh"
#include "trace/ref_source.hh"
#include "trace/workloads.hh"
#include "verify/diff.hh"

namespace cachetime
{
namespace
{

constexpr double kGoldenScale = 0.01;
constexpr double kRatioTol = 1e-9; ///< relative, geomean ratios
constexpr double kFitTol = 1e-6;   ///< relative, parabola-fit optima

/** The Table 1 workload suite at the golden scale, built once. */
const std::vector<Trace> &
traces()
{
    static const std::vector<Trace> suite = generateTable1(kGoldenScale);
    return suite;
}

void
expectNear(double actual, double golden, double tol,
           const char *what)
{
    EXPECT_NEAR(actual, golden, std::abs(golden) * tol) << what;
}

/** Table 2: main-memory timing quantized to whole processor cycles. */
TEST(Golden, Table2MemoryCycleCounts)
{
    const MainMemoryConfig &memory =
        SystemConfig::paperDefault().memory;

    struct Row
    {
        double cycleNs;
        Tick read4Words;
        Tick write4Words;
        Tick recovery;
    };
    // {cycle time, 4-word read, 4-word write, recovery}, in cycles.
    const Row rows[] = {
        {20.0, 14, 10, 6},
        {40.0, 10, 8, 3},
        {60.0, 8, 7, 2},
    };
    for (const Row &row : rows) {
        MemoryTiming timing(memory, row.cycleNs);
        EXPECT_EQ(timing.readTimeCycles(4), row.read4Words)
            << row.cycleNs << "ns";
        EXPECT_EQ(timing.writeTimeCycles(4), row.write4Words)
            << row.cycleNs << "ns";
        EXPECT_EQ(timing.recoveryCycles(), row.recovery)
            << row.cycleNs << "ns";
    }
}

/** Figure 3-1: miss and traffic ratios falling with cache size. */
TEST(Golden, Fig31MissAndTrafficRatios)
{
    struct Point
    {
        std::uint64_t sizeWordsEach;
        double readMiss;
        double writeTrafficBlock;
        double writeTrafficWord;
        double readTraffic;
    };
    const Point points[] = {
        {512, 0.135942975327, 0.153980877724, 0.0843635240566,
         0.543771901309},
        {8192, 0.0944535450595, 0.0528495764191, 0.035682821947,
         0.377814180238},
        {131072, 0.00390422079632, 0.00128294479666,
         0.00114586440154, 0.0131321810879},
    };

    double prev_miss = 1.0;
    for (const Point &point : points) {
        SystemConfig config = SystemConfig::paperDefault();
        config.setL1SizeWordsEach(point.sizeWordsEach);
        AggregateMetrics metrics = runGeoMean(config, traces());

        expectNear(metrics.readMissRatio, point.readMiss, kRatioTol,
                   "readMissRatio");
        expectNear(metrics.writeTrafficBlockRatio,
                   point.writeTrafficBlock, kRatioTol,
                   "writeTrafficBlockRatio");
        expectNear(metrics.writeTrafficWordRatio,
                   point.writeTrafficWord, kRatioTol,
                   "writeTrafficWordRatio");
        expectNear(metrics.readTrafficRatio, point.readTraffic,
                   kRatioTol, "readTrafficRatio");

        // Structural shape of the figure: ratios fall with size,
        // and with 4-word blocks read traffic is ~4x the miss
        // ratio.  The geometric mean floors near-zero per-trace
        // ratios at an epsilon, which bends the 4x identity once
        // misses all but vanish, so only the smaller caches check it.
        EXPECT_LT(metrics.readMissRatio, prev_miss);
        if (point.readMiss > 0.01) {
            EXPECT_NEAR(metrics.readTrafficRatio,
                        4.0 * metrics.readMissRatio,
                        0.01 * metrics.readTrafficRatio);
        }
        prev_miss = metrics.readMissRatio;
    }
}

/**
 * Figures 3-2/3-3 at 512 words each: the cycle-count illusion (the
 * fast clock looks worse in cycles per reference) and the 56ns
 * quantization anomaly (56ns is *worse* than 60ns in absolute time
 * despite the faster clock - see tradeoff.hh).
 */
TEST(Golden, Fig32CycleCountIllusionAnd56nsAnomaly)
{
    struct Point
    {
        double cycleNs;
        double cyclesPerRef;
        double execNsPerRef;
    };
    const Point points[] = {
        {20.0, 3.52873084339, 70.5746168678},
        {56.0, 2.31682927823, 129.742439581},
        {60.0, 2.09483749618, 125.690249771},
        {80.0, 2.09483749618, 167.586999695},
    };

    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(512);

    AggregateMetrics at[4];
    for (int i = 0; i < 4; ++i) {
        SystemConfig point_config = config;
        point_config.cycleNs = points[i].cycleNs;
        at[i] = runGeoMean(point_config, traces());
        expectNear(at[i].cyclesPerRef, points[i].cyclesPerRef,
                   kRatioTol, "cyclesPerRef");
        expectNear(at[i].execNsPerRef, points[i].execNsPerRef,
                   kRatioTol, "execNsPerRef");
    }

    // Cycle-count illusion: the 20ns machine takes ~68% more cycles
    // per reference than the 80ns machine...
    EXPECT_GT(at[0].cyclesPerRef, 1.5 * at[3].cyclesPerRef);
    // ...while being >2x faster in real time.
    EXPECT_LT(at[0].execNsPerRef, 0.5 * at[3].execNsPerRef);

    // 56ns anomaly: quantization makes the faster 56ns clock
    // *slower* in absolute time than the 60ns clock (footnote 9's
    // reason for smoothing).
    EXPECT_GT(at[1].execNsPerRef, at[2].execNsPerRef);
}

/** Figure 4-3: break-even degradations for 2-way associativity. */
TEST(Golden, Fig43BreakEvenTwoWay)
{
    const std::vector<std::uint64_t> sizes{512, 8192};
    const std::vector<double> cycles{20.0, 40.0, 60.0};
    SystemConfig base = SystemConfig::paperDefault();

    SpeedSizeGrid direct =
        buildSpeedSizeGrid(base, sizes, cycles, traces()).smoothed();
    SpeedSizeGrid twoWay =
        buildAssocGrid(base, 2, sizes, cycles, traces()).smoothed();
    BreakEvenMap map = computeBreakEven(direct, twoWay, 2);

    const double golden[2][3] = {
        {-0.281472802675, -0.370257297349, -0.57684144174},
        {0.530232678637, 0.688341779905, 0.763060786917},
    };
    for (std::size_t i = 0; i < sizes.size(); ++i)
        for (std::size_t j = 0; j < cycles.size(); ++j)
            expectNear(map.breakEvenNs[i][j], golden[i][j],
                       kRatioTol, "breakEvenNs");

    // The paper's punchline: even where associativity helps (the
    // larger cache), the break-even degradation is far below the
    // 6ns an AS-TTL mux adds to the data path, so 2-way loses.
    EXPECT_GT(map.breakEvenNs[1][1], 0.0);
    EXPECT_LT(map.breakEvenNs[1][1], asMuxDataInToOutNs);
    // At the small cache, associativity loses outright (negative
    // break-even: the set-associative machine is slower even with a
    // free implementation).
    EXPECT_LT(map.breakEvenNs[0][1], 0.0);
}

/**
 * Figure 5-1 family (260ns memory): the execution-time-optimal
 * block size sits far below the miss-ratio-optimal one.
 */
TEST(Golden, Fig51BlockSizeOptima)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.memory.readLatencyNs = 260.0;
    config.memory.writeNs = 260.0;
    config.memory.recoveryNs = 260.0;

    const std::vector<unsigned> blocks{1, 2, 4, 8, 16, 32, 64, 128};
    BlockSizeCurve curve = sweepBlockSize({config}, blocks, traces())[0];

    const double goldenExec[] = {
        175.823650809, 123.828110579, 93.4773959561, 78.9714535096,
        73.3087644677, 75.8584798669, 86.3226299766, 110.894796578,
    };
    for (std::size_t k = 0; k < blocks.size(); ++k)
        expectNear(curve.execNsPerRef[k], goldenExec[k], kRatioTol,
                   "execNsPerRef");
    expectNear(curve.readMissRatio.front(), 0.242859669359,
               kRatioTol, "readMissRatio[1W]");
    expectNear(curve.readMissRatio.back(), 0.0107496342158,
               kRatioTol, "readMissRatio[128W]");

    // Miss ratio keeps improving out to the largest block swept, so
    // the parabola fit pins its optimum at the edge...
    expectNear(missOptimalBlockWords(curve), 128.0, kFitTol,
               "missOptimalBlockWords");
    // ...while execution time already turned around near 16 words.
    expectNear(optimalBlockWords(curve), 18.2462585328, kFitTol,
               "optimalBlockWords");
    EXPECT_LT(optimalBlockWords(curve),
              missOptimalBlockWords(curve) / 4.0);
}

/**
 * The Section 5 memory grid (Figures 5-2 to 5-4) as one many-base
 * block sweep: nine memory systems (transfer rate x latency) x seven
 * block sizes.  Each base's optimum and its execution time there are
 * pinned to the values one single-base sweep per memory system
 * gives, and the memory systems share front ends.
 */
TEST(Golden, Sec5MemoryGridOptima)
{
    ThreadGuard guard;
    setParallelThreads(4);
    struct Row
    {
        TransferRate rate;
        double latencyNs;
        double optimalBlockWords;
        double execAtOptimum; ///< the curve's least exec ns/ref
    };
    const Row rows[] = {
        {{4, 1}, 100, 16.1498263197, 48.6212291563},
        {{4, 1}, 260, 28.182831449, 55.1189907706},
        {{4, 1}, 420, 40.5564940505, 61.2433741527},
        {{1, 1}, 100, 10.4974835447, 63.2161410757},
        {{1, 1}, 260, 18.2462585328, 73.3087644677},
        {{1, 1}, 420, 24.3371608764, 83.2041495817},
        {{1, 4}, 100, 3.47572729296, 109.790116092},
        {{1, 4}, 260, 7.0567287647, 132.898794856},
        {{1, 4}, 420, 10.5639536381, 150.820063814},
    };
    std::vector<SystemConfig> bases;
    for (const Row &row : rows) {
        SystemConfig config = SystemConfig::paperDefault();
        config.memory.readLatencyNs = row.latencyNs;
        config.memory.writeNs = row.latencyNs;
        config.memory.recoveryNs = row.latencyNs;
        config.memory.rate = row.rate;
        bases.push_back(config);
    }
    const std::vector<unsigned> blocks{1, 2, 4, 8, 16, 32, 64};

    telemetry::resetStages();
    const std::vector<BlockSizeCurve> curves =
        sweepBlockSize(bases, blocks, traces());
    ASSERT_EQ(curves.size(), bases.size());
    for (std::size_t b = 0; b < bases.size(); ++b) {
        SCOPED_TRACE(bases[b].describe());
        EXPECT_EQ(curves[b].blockWords, blocks);
        expectNear(optimalBlockWords(curves[b]),
                   rows[b].optimalBlockWords, kFitTol,
                   "optimalBlockWords");
        expectNear(*std::min_element(curves[b].execNsPerRef.begin(),
                                     curves[b].execNsPerRef.end()),
                   rows[b].execAtOptimum, kRatioTol, "exec at optimum");
    }
    std::uint64_t followers = 0;
    for (const telemetry::StageRecord &stage : telemetry::stages()) {
        for (const auto &[key, value] : stage.counts)
            if (stage.name == "batch" && key == "followers")
                followers += value;
    }
    EXPECT_GT(followers, 0u);
}

/** Table 3 flavor: the miss-penalty distribution on one trace. */
TEST(Golden, Table3MissPenaltyOnMu3)
{
    SimResult result =
        simulateOne(SystemConfig::paperDefault(), traces().front());
    EXPECT_EQ(result.missPenaltyCycles.count(), 683u);
    EXPECT_EQ(result.cycles, 19981);
    expectNear(result.missPenaltyCycles.mean(), 11.850658858,
               kRatioTol, "missPenalty mean");
}

/** 64-bit FNV-1a of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** mu3 with two warm segments inside its measured suffix. */
Trace
segmentedMu3()
{
    const Trace &mu3 = traces().front();
    Trace segmented(mu3.name(), mu3.refs(), mu3.warmStart());
    segmented.setWarmSegments({{66000, 68501}, {72000, 73001}});
    return segmented;
}

/**
 * Every kind of work a lone machine's timing code does below its
 * L1s - misses, victim swaps, prefetches (on miss and tagged),
 * write-through and write-allocate stores, TLB misses, an L2, early
 * continuation and a unified L1 - pinned as a digest of every
 * counter and histogram a SimResult carries.  The oracle does not
 * model prefetch or victim caches, so this is their only fixed
 * anchor.
 */
TEST(Golden, EventKindsLoneMachines)
{
    struct Machine
    {
        const char *name;
        SystemConfig config;
        std::uint64_t digest;
    };
    const SystemConfig base = SystemConfig::paperDefault();
    std::vector<Machine> machines;
    auto add = [&](const char *name, std::uint64_t digest,
                   auto &&edit) {
        SystemConfig config = base;
        edit(config);
        machines.push_back({name, config, digest});
    };
    add("paper default", 0xf2164216245da480ULL, [](SystemConfig &) {});
    add("early continuation", 0x00e566b8e8c8dd5aULL, [](SystemConfig &c) {
        c.cpu.earlyContinuation = true;
    });
    add("write-through D", 0x098e149085498738ULL, [](SystemConfig &c) {
        c.dcache.writePolicy = WritePolicy::WriteThrough;
    });
    add("write-allocate D", 0x296179ad2655534fULL, [](SystemConfig &c) {
        c.dcache.allocPolicy = AllocPolicy::WriteAllocate;
    });
    add("on-miss prefetch", 0x0a9afcf11aaf852aULL, [](SystemConfig &c) {
        c.icache.prefetchPolicy = PrefetchPolicy::OnMiss;
        c.dcache.prefetchPolicy = PrefetchPolicy::OnMiss;
    });
    add("tagged prefetch", 0x520465fc3adda7beULL, [](SystemConfig &c) {
        c.icache.prefetchPolicy = PrefetchPolicy::Tagged;
        c.dcache.prefetchPolicy = PrefetchPolicy::Tagged;
    });
    add("victim caches", 0xbc4f650d026874abULL, [](SystemConfig &c) {
        c.icache.victimEntries = 2;
        c.dcache.victimEntries = 2;
    });
    add("physical, small TLB", 0xfdc59a868727e9faULL, [](SystemConfig &c) {
        c.addressing = AddressMode::Physical;
        c.tlb.entries = 4;
        c.tlb.assoc = 4;
    });
    add("L2", 0x7d118f1fd8e4c5f1ULL, [](SystemConfig &c) { c.hasL2 = true; });
    add("unified, no pair issue", 0xd2ca0f50ddc2919cULL, [](SystemConfig &c) {
        c.split = false;
        c.cpu.pairIssue = false;
    });

    const Trace trace = segmentedMu3();
    std::set<std::uint64_t> digests;
    for (const Machine &machine : machines) {
        SimResult result = makeSimulator(machine.config)->run(trace);
        EXPECT_GT(result.missPenaltyCycles.count(), 0u) << machine.name;
        const std::string text =
            verify::formatDiffs(verify::diffResults(result, SimResult()));
        EXPECT_EQ(fnv1a(text), machine.digest)
            << machine.name << " digest 0x" << std::hex << fnv1a(text);
        digests.insert(machine.digest);
    }
    // Each feature moves some counter away from the paper default.
    EXPECT_EQ(digests.size(), machines.size());

    // The simulated columns of an early-continuation run's interval
    // windows (host time left out).
    SystemConfig early = base;
    early.cpu.earlyContinuation = true;
    IntervalCollector collector(5003);
    std::unique_ptr<Simulator> machine = makeSimulator(early);
    machine->setIntervalCollector(&collector);
    machine->run(trace);
    std::string columns;
    for (const IntervalRecord &r : collector.records()) {
        const IntervalCounters &c = r.c;
        for (std::uint64_t v :
             {std::uint64_t{r.index}, r.beginRef, r.endRef,
              std::uint64_t{r.final}, c.refs, c.readRefs, c.writeRefs,
              c.groups, c.cycles, c.ifetchAccesses, c.ifetchMisses,
              c.readAccesses, c.readMisses, c.writeAccesses,
              c.writeMisses, c.wbufEnqueued, c.wbufFullStalls,
              c.wbufOccupancyCount, c.tlbAccesses, c.tlbMisses,
              c.memReads, c.memWrites})
            columns += std::to_string(v) + ",";
        columns += std::to_string(c.wbufOccupancySum) + "\n";
    }
    EXPECT_EQ(collector.records().size(), 16u);
    EXPECT_EQ(fnv1a(columns), 0xf2d75ea9e06eb9dfULL)
        << "interval digest 0x" << std::hex << fnv1a(columns);
}

/** The golden trace suite itself: sizes pin the generator. */
TEST(Golden, TraceSuiteShape)
{
    struct Shape
    {
        const char *name;
        std::size_t len;
        std::size_t warm;
    };
    const Shape shapes[] = {
        {"mu3", 77024, 62634},    {"mu6", 115422, 99992},
        {"mu10", 133784, 122844}, {"savec", 61747, 50127},
        {"rd1n3", 284079, 269189}, {"rd2n4", 461837, 448697},
        {"rd1n5", 363183, 350043}, {"rd2n7", 473838, 457058},
    };
    ASSERT_EQ(traces().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(traces()[i].name(), shapes[i].name);
        EXPECT_EQ(traces()[i].size(), shapes[i].len);
        EXPECT_EQ(traces()[i].warmStart(), shapes[i].warm);
    }
}

/**
 * The generator's content, not just its sizes: the identity hash
 * covers every reference, so any change to a draw, its order or the
 * prefix order moves it.  Speedups of the generator must leave these
 * values untouched.
 */
TEST(Golden, TraceSuiteContent)
{
    const std::uint64_t hashes[] = {
        0x12fd5b9a41cb8941ULL, 0x329e5e77b3e0cdbaULL,
        0x4577a8d9adf8ffb1ULL, 0x327fbc9aa1d2ad91ULL,
        0x1026651f55b10c94ULL, 0x3e343367c3de953aULL,
        0x0553e45b8c68985eULL, 0xf441a63a9a123095ULL,
    };
    ASSERT_EQ(traces().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(traceIdentityHash(traces()[i]), hashes[i])
            << traces()[i].name();

    // fig_sharing's share-heavy workload: eight processes contending
    // for one shared segment.
    WorkloadSpec spec;
    spec.name = "share-heavy";
    spec.processes = 8;
    spec.lengthRefs = 1'200'000;
    spec.warmStartRefs = 300'000;
    spec.seed = 503;
    spec.footprintScale = 0.8;
    spec.sharedFraction = 0.35;
    spec.sharedWords = 4 * 1024;
    EXPECT_EQ(traceIdentityHash(generate(spec, kGoldenScale)),
              0x5cb4cd966b6e9823ULL);
}

} // namespace
} // namespace cachetime
