/**
 * @file
 * Tests of the Table 1 workload set and the interleaver.
 */

#include <limits>
#include <unordered_set>

#include <gtest/gtest.h>

#include "trace/interleave.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"

namespace cachetime
{
namespace
{

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

const auto *quietEnv [[maybe_unused]] =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

TEST(Workloads, EightSpecsWithPaperNames)
{
    auto specs = table1Workloads();
    ASSERT_EQ(specs.size(), 8u);
    EXPECT_EQ(specs[0].name, "mu3");
    EXPECT_EQ(specs[3].name, "savec");
    EXPECT_EQ(specs[4].name, "rd1n3");
    EXPECT_EQ(specs[7].name, "rd2n7");
    EXPECT_EQ(specs[0].processes, 7u);
    EXPECT_EQ(specs[2].processes, 14u);
    EXPECT_FALSE(specs[0].risc);
    EXPECT_TRUE(specs[5].risc);
}

TEST(Workloads, GenerateIsDeterministic)
{
    auto spec = table1Workloads()[0];
    Trace a = generate(spec, 0.02);
    Trace b = generate(spec, 0.02);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.refs()[i], b.refs()[i]);
}

TEST(Workloads, ScaleControlsLength)
{
    // The live (post-warm-start) portion scales with the factor;
    // the footprint prefix before the boundary does not.
    auto spec = table1Workloads()[3]; // savec, 1.162M refs
    Trace small = generate(spec, 0.01);
    Trace large = generate(spec, 0.03);
    EXPECT_GT(large.size() - large.warmStart(),
              2 * (small.size() - small.warmStart()));
}

TEST(Workloads, MultiprogrammingLevelMatches)
{
    auto spec = table1Workloads()[0]; // mu3: 7 processes
    Trace trace = generate(spec, 0.05);
    TraceStats stats = computeStats(trace);
    EXPECT_EQ(stats.processes, 7u);
}

TEST(Workloads, WarmStartInsideTrace)
{
    for (const auto &spec : table1Workloads()) {
        Trace trace = generate(spec, 0.02);
        EXPECT_GT(trace.warmStart(), 0u) << spec.name;
        EXPECT_LT(trace.warmStart(), trace.size()) << spec.name;
    }
}

TEST(Workloads, PrefixPrimesUniqueAddresses)
{
    // Every (pid, addr) pair seen after the warm boundary must have
    // appeared before it: that is the warm-start guarantee that
    // makes large-cache results valid.
    auto spec = table1Workloads()[4]; // rd1n3 (RISC)
    Trace trace = generate(spec, 0.02);
    std::unordered_set<std::uint64_t> before;
    std::size_t fresh_after = 0, after = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Ref &ref = trace.refs()[i];
        std::uint64_t key =
            (static_cast<std::uint64_t>(ref.pid) << 48) ^ ref.addr;
        if (i < trace.warmStart()) {
            before.insert(key);
        } else {
            ++after;
            fresh_after += !before.contains(key);
            before.insert(key);
        }
    }
    ASSERT_GT(after, 0u);
    // Nothing (or almost nothing) is first-touched after warm start.
    EXPECT_LT(static_cast<double>(fresh_after) / after, 0.001);
}

TEST(Workloads, RiscTracesTouchMoreUniqueWords)
{
    Trace vax = generate(table1Workloads()[0], 0.02);
    Trace risc = generate(table1Workloads()[4], 0.02);
    EXPECT_GT(computeStats(risc).uniqueAddrs,
              computeStats(vax).uniqueAddrs);
}

TEST(Workloads, BenchScaleUsesEnvironment)
{
    unsetenv("CACHETIME_SCALE");
    EXPECT_DOUBLE_EQ(benchScale(0.25), 0.25);
    setenv("CACHETIME_SCALE", "0.5", 1);
    EXPECT_DOUBLE_EQ(benchScale(0.25), 0.5);
    unsetenv("CACHETIME_SCALE");
}

// The unit binary runs the pool, so death tests re-execute rather
// than fork.
TEST(WorkloadsDeathTest, BadScaleEnvironmentIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Junk, and a scale no trace length can follow, name the variable
    // and the text.
    for (const char *text : {"junk", "0.02x", "inf", "1e400", "0", "-1"}) {
        EXPECT_EXIT(
            {
                setenv("CACHETIME_SCALE", text, 1);
                benchScale(0.25);
            },
            ::testing::ExitedWithCode(1),
            std::string("fatal: CACHETIME_SCALE: '") + text + "'")
            << text;
    }
}

TEST(WorkloadsDeathTest, UnrepresentableScaleIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const WorkloadSpec spec = table1Workloads()[0];
    EXPECT_EXIT(generate(spec, std::numeric_limits<double>::infinity()),
                ::testing::ExitedWithCode(1), "positive and finite");
    EXPECT_EXIT(generate(spec, std::numeric_limits<double>::quiet_NaN()),
                ::testing::ExitedWithCode(1), "positive and finite");
    EXPECT_EXIT(generate(spec, 1e30), ::testing::ExitedWithCode(1),
                "more than 2\\^63");
}

TEST(Interleave, SlicesComeFromAllProcesses)
{
    std::vector<ProcessModel> processes;
    for (Pid p = 1; p <= 3; ++p)
        processes.emplace_back(ProcessProfile::vaxProfile(), p,
                               1000 + p);
    InterleaveConfig cfg;
    cfg.lengthRefs = 30000;
    cfg.meanSliceRefs = 1000;
    cfg.seed = 5;
    Trace trace = interleave("mix", processes, cfg);
    EXPECT_EQ(trace.size(), 30000u);
    EXPECT_EQ(computeStats(trace).processes, 3u);
}

TEST(Interleave, ContextSwitchesExist)
{
    std::vector<ProcessModel> processes;
    for (Pid p = 1; p <= 2; ++p)
        processes.emplace_back(ProcessProfile::vaxProfile(), p,
                               2000 + p);
    InterleaveConfig cfg;
    cfg.lengthRefs = 20000;
    cfg.meanSliceRefs = 500;
    cfg.seed = 6;
    Trace trace = interleave("mix", processes, cfg);
    std::size_t switches = 0;
    for (std::size_t i = 1; i < trace.size(); ++i)
        switches += trace.refs()[i].pid != trace.refs()[i - 1].pid;
    // ~40 slices expected; demand at least a handful.
    EXPECT_GE(switches, 5u);
}

} // namespace
} // namespace cachetime
