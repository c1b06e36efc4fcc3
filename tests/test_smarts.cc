/**
 * @file
 * Tests for the SMARTS-style sampling engine: plan layout, the
 * Student-t confidence machinery, full-pass vs. replay bit
 * identity, one-pass sweeps vs. separate passes, checkpoint-aware
 * scheduling, and oracle agreement on sampled measurement layouts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/sim_cache.hh"
#include "core/smarts.hh"
#include "fill_only_source.hh"
#include "json_check.hh"
#include "sim/system.hh"
#include "stats/confidence.hh"
#include "stats/trace_event.hh"
#include "thread_guard.hh"
#include "trace/ref_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_v2.hh"
#include "trace/workloads.hh"
#include "util/parallel.hh"
#include "verify/diff.hh"
#include "verify/oracle.hh"

namespace cachetime
{
namespace
{

/** A Table 1 workload small enough for full-run ground truth. */
const Trace &
testTrace()
{
    static const Trace trace = [] {
        WorkloadSpec spec = table1Workloads()[0]; // mu3
        return generate(spec, 0.02);
    }();
    return trace;
}

SmartsConfig
testSmartsConfig()
{
    SmartsConfig cfg;
    cfg.unitRefs = 200;
    cfg.warmupRefs = 400;
    cfg.periodRefs = 2000;
    cfg.pilotUnits = 5;
    cfg.targetRelError = 0.05;
    return cfg;
}

TEST(SmartsPlan, SystematicLayout)
{
    SmartsConfig cfg;
    cfg.unitRefs = 100;
    cfg.warmupRefs = 50;
    cfg.periodRefs = 1000;
    SmartsPlan plan = planSmarts(10'000, 400, cfg);
    ASSERT_EQ(plan.units.size(), 10u);
    for (std::size_t k = 0; k < plan.units.size(); ++k) {
        const SmartsUnit &unit = plan.units[k];
        EXPECT_EQ(unit.cp, 400 + k * 1000);
        EXPECT_EQ(unit.begin, unit.cp + 50);
        EXPECT_EQ(unit.end, unit.begin + 100);
        EXPECT_LE(unit.end, 10'000u);
    }
}

TEST(SmartsPlan, DropsPartialTrailingUnit)
{
    SmartsConfig cfg;
    cfg.unitRefs = 100;
    cfg.warmupRefs = 50;
    cfg.periodRefs = 1000;
    // The third unit would need refs [2000, 2150); only 2149 exist.
    SmartsPlan plan = planSmarts(2'149, 0, cfg);
    EXPECT_EQ(plan.units.size(), 2u);
    EXPECT_EQ(planSmarts(2'150, 0, cfg).units.size(), 3u);
}

TEST(SmartsPlan, RejectsOverlappingUnits)
{
    SmartsConfig cfg;
    cfg.unitRefs = 600;
    cfg.warmupRefs = 500;
    cfg.periodRefs = 1000;
    EXPECT_EXIT(planSmarts(100'000, 0, cfg),
                ::testing::ExitedWithCode(1), "period");
}

TEST(SmartsPlan, RejectsTooFewUnits)
{
    SmartsConfig cfg;
    cfg.unitRefs = 100;
    cfg.warmupRefs = 100;
    cfg.periodRefs = 1000;
    EXPECT_EXIT(planSmarts(400, 0, cfg),
                ::testing::ExitedWithCode(1), "at least 2");
}

// --- confidence machinery ------------------------------------------

TEST(Confidence, StudentTQuantileAnchors)
{
    // Textbook two-sided values: t_{0.975,dof}.
    EXPECT_NEAR(studentTQuantile(0.975, 1), 12.706, 1e-3);
    EXPECT_NEAR(studentTQuantile(0.975, 10), 2.2281, 1e-4);
    EXPECT_NEAR(studentTQuantile(0.95, 5), 2.0150, 1e-4);
    // Large dof converges to the normal quantile.
    EXPECT_NEAR(studentTQuantile(0.975, 1'000'000), 1.95996, 1e-4);
    // Symmetry and median.
    EXPECT_DOUBLE_EQ(studentTQuantile(0.5, 7), 0.0);
    EXPECT_NEAR(studentTQuantile(0.025, 10),
                -studentTQuantile(0.975, 10), 1e-12);
}

TEST(Confidence, MeanCIContainsKnownValue)
{
    // Hand-checkable sample: mean 3, stddev 1.5811..., n = 5.
    std::vector<double> samples{1, 2, 3, 4, 5};
    MeanCI ci = meanConfidence(samples, 0.95);
    EXPECT_EQ(ci.n, 5u);
    EXPECT_DOUBLE_EQ(ci.mean, 3.0);
    EXPECT_NEAR(ci.stddev, std::sqrt(2.5), 1e-12);
    // half width = t_{0.975,4} * s / sqrt(5) = 2.7764 * 0.7071...
    EXPECT_NEAR(ci.halfWidth, 2.7764 * std::sqrt(2.5 / 5.0), 1e-3);
    EXPECT_TRUE(ci.contains(3.0));
    EXPECT_FALSE(ci.contains(10.0));
}

TEST(Confidence, DegenerateSamples)
{
    EXPECT_EQ(meanConfidence({}, 0.95).n, 0u);
    MeanCI one = meanConfidence({7.0}, 0.95);
    EXPECT_DOUBLE_EQ(one.mean, 7.0);
    EXPECT_DOUBLE_EQ(one.halfWidth, 0.0);
    MeanCI flat = meanConfidence({2.0, 2.0, 2.0}, 0.95);
    EXPECT_DOUBLE_EQ(flat.halfWidth, 0.0);
    EXPECT_DOUBLE_EQ(flat.relativeError(), 0.0);
}

TEST(Confidence, RequiredUnitsScalesWithVariance)
{
    std::size_t tight = requiredUnits(0.05, 0.03, 0.95);
    std::size_t loose = requiredUnits(0.50, 0.03, 0.95);
    EXPECT_LT(tight, loose);
    // Quadrupling the CV should roughly 16x the sample size.
    std::size_t n1 = requiredUnits(0.1, 0.03, 0.95);
    std::size_t n4 = requiredUnits(0.4, 0.03, 0.95);
    EXPECT_GT(n4, 10 * n1);
    EXPECT_GE(requiredUnits(0.0, 0.03, 0.95), 2u);
}

// --- full pass -----------------------------------------------------

TEST(Smarts, FullPassEstimateTracksTruth)
{
    SystemConfig config = SystemConfig::paperDefault();
    const Trace &trace = testTrace();
    SmartsRunResult sampled =
        runSmartsFullPass(config, trace, testSmartsConfig(), nullptr);

    System machine(config);
    SimResult truth = machine.run(trace);

    EXPECT_EQ(sampled.mode, SmartsMode::FullPass);
    ASSERT_GE(sampled.selectedCount, 2u);
    EXPECT_GT(sampled.estimate.cpi.mean, 1.0);
    // Systematic sampling of a phase-structured stream is an
    // estimate, not a proof; 15% is far outside the CI width seen
    // in practice and still catches any boundary-accounting bug.
    EXPECT_NEAR(sampled.estimate.cpi.mean, truth.cyclesPerRef(),
                0.15 * truth.cyclesPerRef());
    EXPECT_NEAR(sampled.estimate.readMissRatio.mean,
                truth.readMissRatio(), 0.05);
    EXPECT_LT(sampled.replayFraction(), 1.0);
}

TEST(Smarts, UnitCountersSumIntoAggregate)
{
    SystemConfig config = SystemConfig::paperDefault();
    const Trace &trace = testTrace();
    SmartsConfig cfg = testSmartsConfig();
    cfg.pilotUnits = 2;
    cfg.targetRelError = 1.0; // keep the minimum sample
    SmartsRunResult run =
        runSmartsFullPass(config, trace, cfg, nullptr);
    for (const SmartsUnitResult &unit : run.units) {
        EXPECT_GT(unit.refs, 0u);
        // Pair issue can retire two refs per cycle, so per-unit CPI
        // may dip below 1; it can never reach 0.
        EXPECT_GT(unit.cycles, 0u);
        EXPECT_NEAR(unit.cpi,
                    static_cast<double>(unit.cycles) /
                        static_cast<double>(unit.refs),
                    0.0);
        EXPECT_GE(unit.readMissRatio, 0.0);
        EXPECT_LE(unit.readMissRatio, 1.0);
    }
}

// --- replay --------------------------------------------------------

TEST(Smarts, ExactReplayIsBitIdentical)
{
    SystemConfig config = SystemConfig::paperDefault();
    const Trace &trace = testTrace();
    SmartsConfig cfg = testSmartsConfig();

    CheckpointFile checkpoint;
    SmartsRunResult full =
        runSmartsFullPass(config, trace, cfg, &checkpoint);

    // Round-trip the checkpoint through its wire encoding first, so
    // the replay consumes exactly what a file would hold.
    std::string wire = encodeCheckpoint(checkpoint);
    CheckpointFile loaded =
        decodeCheckpoint(wire.data(), wire.size(), "wire");

    SmartsRunResult replay =
        runSmartsReplay(config, trace, cfg, loaded);
    EXPECT_EQ(replay.mode, SmartsMode::ExactReplay);

    ASSERT_EQ(replay.units.size(), full.units.size());
    for (std::size_t i = 0; i < full.units.size(); ++i) {
        const SmartsUnitResult &a = full.units[i];
        const SmartsUnitResult &b = replay.units[i];
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.beginRef, b.beginRef);
        EXPECT_EQ(a.endRef, b.endRef);
        EXPECT_EQ(a.refs, b.refs) << "unit " << a.index;
        EXPECT_EQ(a.cycles, b.cycles) << "unit " << a.index;
        EXPECT_EQ(a.cpi, b.cpi) << "unit " << a.index;
        EXPECT_EQ(a.readMissRatio, b.readMissRatio)
            << "unit " << a.index;
    }
    EXPECT_EQ(full.estimate.cpi.mean, replay.estimate.cpi.mean);
    EXPECT_EQ(full.estimate.cpi.halfWidth,
              replay.estimate.cpi.halfWidth);
    EXPECT_EQ(full.estimate.readMissRatio.mean,
              replay.estimate.readMissRatio.mean);
    EXPECT_EQ(full.selectedCount, replay.selectedCount);
    EXPECT_EQ(full.tunedUnits, replay.tunedUnits);
    EXPECT_LT(replay.simulatedRefs, full.simulatedRefs);
}

TEST(Smarts, WarmReplayServesDifferentTiming)
{
    SystemConfig config_a = SystemConfig::paperDefault();
    SystemConfig config_b = config_a;
    config_b.cycleNs = config_a.cycleNs * 2; // timing-only change
    ASSERT_TRUE(warmStateKey(config_a) == warmStateKey(config_b));

    const Trace &trace = testTrace();
    SmartsConfig cfg = testSmartsConfig();
    CheckpointFile checkpoint;
    runSmartsFullPass(config_a, trace, cfg, &checkpoint);

    SmartsRunResult replay =
        runSmartsReplay(config_b, trace, cfg, checkpoint);
    EXPECT_EQ(replay.mode, SmartsMode::WarmReplay);

    // Ground truth for config B, sampled with a full pass.
    SmartsRunResult full_b =
        runSmartsFullPass(config_b, trace, cfg, nullptr);
    EXPECT_NEAR(replay.estimate.cpi.mean,
                full_b.estimate.cpi.mean,
                0.10 * full_b.estimate.cpi.mean);
    // The point of live points: only units + warm-up re-simulate.
    EXPECT_LT(replay.replayFraction(), 0.5);
    EXPECT_LT(replay.simulatedRefs, full_b.simulatedRefs);
}

TEST(Smarts, ReplayRejectsForeignTrace)
{
    SystemConfig config = SystemConfig::paperDefault();
    const Trace &trace = testTrace();
    SmartsConfig cfg = testSmartsConfig();
    CheckpointFile checkpoint;
    runSmartsFullPass(config, trace, cfg, &checkpoint);

    WorkloadSpec other = table1Workloads()[1];
    Trace other_trace = generate(other, 0.02);
    EXPECT_EXIT(
        runSmartsReplay(config, other_trace, cfg, checkpoint),
        ::testing::ExitedWithCode(1), "different trace");
}

TEST(Smarts, ReplayRejectsForeignOrganization)
{
    SystemConfig config = SystemConfig::paperDefault();
    const Trace &trace = testTrace();
    SmartsConfig cfg = testSmartsConfig();
    CheckpointFile checkpoint;
    runSmartsFullPass(config, trace, cfg, &checkpoint);

    SystemConfig other = config;
    other.dcache.sizeWords *= 2; // different warm organization
    EXPECT_EXIT(runSmartsReplay(other, trace, cfg, checkpoint),
                ::testing::ExitedWithCode(1), "warm-key mismatch");
}

TEST(Smarts, ReplayRejectsUnitsOutOfStreamOrder)
{
    // One pass replays units in stream order, so a checkpoint whose
    // unit starts before the previous one ends is inconsistent.
    SystemConfig config = SystemConfig::paperDefault();
    const Trace &trace = testTrace();
    SmartsConfig cfg = testSmartsConfig();
    CheckpointFile checkpoint;
    runSmartsFullPass(config, trace, cfg, &checkpoint);
    ASSERT_GE(checkpoint.units.size(), 2u);
    checkpoint.units[1].cpPos = checkpoint.units[0].endPos - 1;
    EXPECT_EXIT(runSmartsReplay(config, trace, cfg, checkpoint),
                ::testing::ExitedWithCode(1), "inconsistent checkpoint");
}

TEST(Smarts, RunSmartsManySharesLivePoints)
{
    SystemConfig base = SystemConfig::paperDefault();
    SystemConfig faster = base;
    faster.cycleNs = base.cycleNs / 2;
    SystemConfig bigger = base;
    bigger.dcache.sizeWords *= 2;
    bigger.icache.sizeWords *= 2;

    TraceRefSource source(testTrace());
    std::vector<SmartsRunResult> results = runSmartsMany(
        {base, faster, bigger}, source, testSmartsConfig());

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].mode, SmartsMode::FullPass);
    EXPECT_EQ(results[1].mode, SmartsMode::WarmReplay);
    EXPECT_EQ(results[2].mode, SmartsMode::FullPass);
    EXPECT_LT(results[1].simulatedRefs, results[0].simulatedRefs);
}

/**
 * Telling exact from warm replay needs no trace hash: configs of one
 * warm key - one slower, one identical to the first - are sorted on
 * the pass's own read of the stream, the only one.
 */
TEST(Smarts, ManyReadsItsSourceOnce)
{
    SystemConfig base = SystemConfig::paperDefault();
    SystemConfig slower = base;
    slower.cycleNs = 2 * base.cycleNs;

    FillOnlySource source(testTrace());
    std::vector<SmartsRunResult> results = runSmartsMany(
        {base, slower, base}, source, testSmartsConfig());

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].mode, SmartsMode::FullPass);
    EXPECT_EQ(results[1].mode, SmartsMode::WarmReplay);
    EXPECT_EQ(results[2].mode, SmartsMode::ExactReplay);
    EXPECT_GT(source.filled(), 0u);
    EXPECT_LE(source.filled(), source.size());
}

TEST(Smarts, CheckpointDirRoundTrip)
{
    SystemConfig config = SystemConfig::paperDefault();
    TraceRefSource first(testTrace());
    SmartsOptions options;
    options.cfg = testSmartsConfig();
    options.checkpointDir = ::testing::TempDir();
    // The checkpoint file name is deterministic, so a leftover from
    // an earlier test run would turn pass one into a replay.
    std::remove((options.checkpointDir + "/" +
                 checkpointFileName(traceIdentityHash(testTrace()),
                                    warmStateKey(config),
                                    options.cfg.unitRefs,
                                    options.cfg.warmupRefs,
                                    options.cfg.periodRefs))
                    .c_str());

    SmartsRunResult pass_one = runSmarts(config, first, options);
    EXPECT_EQ(pass_one.mode, SmartsMode::FullPass);

    TraceRefSource second(testTrace());
    SmartsRunResult pass_two = runSmarts(config, second, options);
    EXPECT_EQ(pass_two.mode, SmartsMode::ExactReplay);
    EXPECT_EQ(pass_one.estimate.cpi.mean,
              pass_two.estimate.cpi.mean);
    EXPECT_EQ(pass_one.estimate.readMissRatio.mean,
              pass_two.estimate.readMissRatio.mean);
}

TEST(Smarts, CheckpointDirKeysByPlan)
{
    // A checkpoint serves only the plan it was taken under: a run
    // under another plan takes a full pass of its own, and the
    // first plan still finds its file afterwards.
    SystemConfig config = SystemConfig::paperDefault();
    SmartsOptions plan_a;
    plan_a.cfg = testSmartsConfig();
    plan_a.checkpointDir =
        (std::filesystem::temp_directory_path() / "smarts_plan_keys")
            .string();
    SmartsOptions plan_b = plan_a;
    plan_b.cfg.unitRefs = 300;
    plan_b.cfg.periodRefs = 4000;
    std::filesystem::remove_all(plan_a.checkpointDir);
    const Trace &trace = testTrace();
    TraceRefSource source(trace);

    SmartsRunResult a = runSmarts(config, source, plan_a);
    EXPECT_EQ(a.mode, SmartsMode::FullPass);

    SmartsRunResult b = runSmarts(config, source, plan_b);
    EXPECT_EQ(b.mode, SmartsMode::FullPass);
    SmartsPlan want_b =
        planSmarts(trace.size(), trace.warmStart(), plan_b.cfg);
    EXPECT_EQ(b.plan.units.size(), want_b.units.size());
    EXPECT_NE(b.plan.units.size(), a.plan.units.size());

    SmartsRunResult again = runSmarts(config, source, plan_a);
    EXPECT_EQ(again.mode, SmartsMode::ExactReplay);
    EXPECT_EQ(again.plan.units.size(), a.plan.units.size());
    EXPECT_EQ(again.estimate.cpi.mean, a.estimate.cpi.mean);
    std::filesystem::remove_all(plan_a.checkpointDir);
}

// --- one pass vs. separate passes ----------------------------------

void
expectSameCI(const MeanCI &a, const MeanCI &b, const std::string &what)
{
    EXPECT_EQ(a.n, b.n) << what;
    EXPECT_EQ(a.mean, b.mean) << what;
    EXPECT_EQ(a.stddev, b.stddev) << what;
    EXPECT_EQ(a.halfWidth, b.halfWidth) << what;
}

/** Field-for-field equality of two sampled runs. */
void
expectSameRun(const SmartsRunResult &a, const SmartsRunResult &b,
              const std::string &what)
{
    EXPECT_EQ(a.mode, b.mode) << what;
    ASSERT_EQ(a.units.size(), b.units.size()) << what;
    for (std::size_t i = 0; i < a.units.size(); ++i) {
        const SmartsUnitResult &x = a.units[i];
        const SmartsUnitResult &y = b.units[i];
        const std::string unit = what + " unit " + std::to_string(i);
        EXPECT_EQ(x.index, y.index) << unit;
        EXPECT_EQ(x.beginRef, y.beginRef) << unit;
        EXPECT_EQ(x.endRef, y.endRef) << unit;
        EXPECT_EQ(x.refs, y.refs) << unit;
        EXPECT_EQ(x.cycles, y.cycles) << unit;
        EXPECT_EQ(x.cpi, y.cpi) << unit;
        EXPECT_EQ(x.readMissRatio, y.readMissRatio) << unit;
    }
    expectSameCI(a.estimate.cpi, b.estimate.cpi, what + " cpi");
    expectSameCI(a.estimate.readMissRatio, b.estimate.readMissRatio,
                 what + " read miss ratio");
    EXPECT_EQ(a.pilotCount, b.pilotCount) << what;
    EXPECT_EQ(a.pilotCv, b.pilotCv) << what;
    EXPECT_EQ(a.tunedUnits, b.tunedUnits) << what;
    EXPECT_EQ(a.selectedCount, b.selectedCount) << what;
    EXPECT_EQ(a.simulatedRefs, b.simulatedRefs) << what;
}

TEST(Smarts, OnePassMatchesSeparatePasses)
{
    ThreadGuard guard;
    // One warm-key group whose members replay with other pairing,
    // as an exact duplicate and at other timing, plus a physical
    // machine that leads a group of its own.
    SystemConfig base = SystemConfig::paperDefault();
    SystemConfig unpaired = base;
    unpaired.cpu.pairIssue = false;
    SystemConfig slower = base;
    slower.cycleNs = base.cycleNs * 2;
    SystemConfig physical = base;
    physical.addressing = AddressMode::Physical;
    const std::vector<SystemConfig> configs = {base, unpaired, base,
                                               slower, physical};

    // testSmartsConfig() puts several units in one span; this plan
    // spaces units further apart than a span is long, and measures
    // most of each unit.
    SmartsConfig long_period;
    long_period.unitRefs = 3000;
    long_period.warmupRefs = 1000;
    long_period.periodRefs = 20000;
    long_period.pilotUnits = 4;
    long_period.targetRelError = 0.1;
    ASSERT_GT(long_period.periodRefs, refChunkSize);
    const Trace long_trace = generate(table1Workloads()[0], 0.3);

    for (const auto &[trace, cfg] :
         {std::pair{&testTrace(), testSmartsConfig()},
          std::pair{&long_trace, long_period}}) {
        // Separate passes: each leader's full pass keeps its live
        // points, and the rest of its group replays from them.
        std::vector<SmartsRunResult> want;
        std::vector<CheckpointFile> points(configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            std::size_t leader = 0;
            while (!(warmStateKey(configs[leader]) ==
                     warmStateKey(configs[i])))
                ++leader;
            want.push_back(leader == i
                               ? runSmartsFullPass(configs[i], *trace,
                                                   cfg, &points[i])
                               : runSmartsReplay(configs[i], *trace,
                                                 cfg, points[leader]));
        }
        ASSERT_EQ(want[1].mode, SmartsMode::WarmReplay);
        ASSERT_EQ(want[2].mode, SmartsMode::ExactReplay);
        ASSERT_EQ(want[4].mode, SmartsMode::FullPass);

        const std::string period =
            " period " + std::to_string(cfg.periodRefs);
        // Serially, then with the two groups on the pool's threads.
        auto check = [&](RefSource &source, const std::string &kind) {
            for (unsigned threads : {1u, 4u}) {
                setParallelThreads(threads);
                const std::string what = kind + period + " threads " +
                                         std::to_string(threads);
                const std::uint64_t before = poolStats().dispatches;
                std::vector<SmartsRunResult> got =
                    runSmartsMany(configs, source, cfg);
                if (threads > 1) {
                    EXPECT_GT(poolStats().dispatches, before) << what;
                }
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i)
                    expectSameRun(got[i], want[i],
                                  what + " config " + std::to_string(i));
                // The exact duplicate reproduces its leader's units
                // bit for bit, which no shared replay code can fake.
                SmartsRunResult exact = got[2];
                exact.mode = got[0].mode;
                exact.simulatedRefs = got[0].simulatedRefs;
                expectSameRun(exact, got[0], what + " exact duplicate");
            }
        };
        TraceRefSource resident(*trace);
        check(resident, "resident");
        FillOnlySource filled(*trace);
        check(filled, "fill-only");
        const std::string path =
            (std::filesystem::temp_directory_path() /
             "smarts_one_pass.v2")
                .string();
        writeV2(*trace, path);
        {
            V2FileSource file(path);
            check(file, "v2 file");
        }
        std::remove(path.c_str());
        const std::string text_path =
            (std::filesystem::temp_directory_path() /
             "smarts_one_pass.txt")
                .string();
        saveFile(*trace, text_path);
        check(*openRefSource(text_path), "text file");
        std::remove(text_path.c_str());
    }
}

/**
 * A sampled pass is one "smarts-pass" stage span whose args give its
 * groups, runs and stream, so a Perfetto trace shows each pass; the
 * pool's per-chunk spans show its fan-out.
 */
TEST(Smarts, PassEmitsOneSweepSpan)
{
    SystemConfig base = SystemConfig::paperDefault();
    SystemConfig slower = base;
    slower.cycleNs = base.cycleNs * 2;
    SystemConfig physical = base;
    physical.addressing = AddressMode::Physical;
    const std::string path = (std::filesystem::temp_directory_path() /
                              "smarts_pass_span.json")
                                 .string();

    ASSERT_TRUE(trace_event::beginSession(path));
    TraceRefSource source(testTrace());
    runSmartsMany({base, slower, physical}, source, testSmartsConfig());
    ASSERT_TRUE(trace_event::endSession());

    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    json_check::JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_check::parseJson(text.str(), &doc, &error)) << error;
    std::size_t passes = 0;
    for (const json_check::JsonValue &e :
         doc.find("traceEvents")->items) {
        if (e.find("ph")->text != "X" ||
            e.find("name")->text != "smarts-pass")
            continue;
        ++passes;
        EXPECT_EQ(e.find("pid")->number,
                  static_cast<double>(trace_event::Cat::Stage));
        ASSERT_NE(e.find("args"), nullptr);
        EXPECT_EQ(e.path("args.groups")->number, 2.0);
        EXPECT_EQ(e.path("args.runs")->number, 3.0);
        EXPECT_EQ(e.path("args.label")->text, testTrace().name());
    }
    EXPECT_EQ(passes, 1u);
}

// --- oracle agreement on sampled layouts ---------------------------

/**
 * Apply a SMARTS plan to a trace as the warm-segment layout the
 * engine uses internally: measurement starts at the first unit and
 * the gaps between units are warm segments.
 */
Trace
sampledLayout(const Trace &trace, const SmartsPlan &plan)
{
    Trace sampled(trace.name() + ".smarts", trace.refs(),
                  static_cast<std::size_t>(plan.units[0].begin));
    std::vector<WarmSegment> gaps;
    for (std::size_t k = 1; k < plan.units.size(); ++k)
        gaps.push_back(
            {static_cast<std::size_t>(plan.units[k - 1].end),
             static_cast<std::size_t>(plan.units[k].begin)});
    sampled.setWarmSegments(std::move(gaps));
    return sampled;
}

TEST(Smarts, OracleAgreesOnSampledLayout)
{
    WorkloadSpec spec = table1Workloads()[4]; // rd1n3: warm start 0
    Trace trace = generate(spec, 0.005);
    SmartsConfig cfg;
    cfg.unitRefs = 150;
    cfg.warmupRefs = 250;
    cfg.periodRefs = 1500;
    SmartsPlan plan =
        planSmarts(trace.size(), trace.warmStart(), cfg);
    Trace sampled = sampledLayout(trace, plan);

    SystemConfig config = SystemConfig::paperDefault();
    ASSERT_TRUE(verify::oracleSupports(config));
    System fast(config);
    SimResult fast_result = fast.run(sampled);
    SimResult oracle_result = verify::oracleRun(config, sampled);
    std::vector<verify::FieldDiff> diffs =
        verify::diffResults(fast_result, oracle_result);
    EXPECT_TRUE(diffs.empty())
        << verify::formatDiffs(diffs);
}

TEST(Smarts, OracleAgreesOnSampledLayoutPhysical)
{
    WorkloadSpec spec = table1Workloads()[5]; // rd2n4
    Trace trace = generate(spec, 0.005);
    SmartsConfig cfg;
    cfg.unitRefs = 100;
    cfg.warmupRefs = 300;
    cfg.periodRefs = 2000;
    SmartsPlan plan =
        planSmarts(trace.size(), trace.warmStart(), cfg);
    Trace sampled = sampledLayout(trace, plan);

    SystemConfig config = SystemConfig::paperDefault();
    config.addressing = AddressMode::Physical;
    ASSERT_TRUE(verify::oracleSupports(config));
    System fast(config);
    SimResult fast_result = fast.run(sampled);
    SimResult oracle_result = verify::oracleRun(config, sampled);
    std::vector<verify::FieldDiff> diffs =
        verify::diffResults(fast_result, oracle_result);
    EXPECT_TRUE(diffs.empty())
        << verify::formatDiffs(diffs);
}

} // namespace
} // namespace cachetime
