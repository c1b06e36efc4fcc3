/**
 * @file
 * Tests of the synthetic process model: determinism, address-space
 * structure, reference mix, and locality properties.
 */

#include <deque>
#include <unordered_set>

#include <gtest/gtest.h>

#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace cachetime
{
namespace
{

TEST(ProcessModel, DeterministicPerSeed)
{
    ProcessProfile profile = ProcessProfile::vaxProfile();
    ProcessModel a(profile, 1, 99), b(profile, 1, 99);
    for (int i = 0; i < 5000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(ProcessModel, PidIsStamped)
{
    ProcessProfile profile = ProcessProfile::vaxProfile();
    ProcessModel model(profile, 7, 1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(model.next().pid, 7);
}

/// @p profile with its code and data footprints scaled by @p f, as
/// the Table 1 workloads jitter them (floored at 256 words).
ProcessProfile
scaled(ProcessProfile profile, double f)
{
    profile.codeWords = std::max<std::uint64_t>(
        256, static_cast<std::uint64_t>(profile.codeWords * f));
    profile.dataWords = std::max<std::uint64_t>(
        256, static_cast<std::uint64_t>(profile.dataWords * f));
    return profile;
}

/// The warm prefix keeps one slot per footprint word, so every
/// address next() emits must lie in footprint().  Each flavour runs
/// at both ends of the workloads' footprint range: jitter 0.125x at
/// footprint scale 1, and jitter 4x at the largest scale, 1.3.
TEST(ProcessModel, AddressesStayInFootprint)
{
    ProcessProfile shared = ProcessProfile::vaxProfile();
    shared.sharedFraction = 0.35;
    ProcessProfile zeroing = ProcessProfile::vaxProfile();
    zeroing.zeroingWords = zeroing.dataWords;
    ProcessProfile priming = ProcessProfile::vaxProfile();
    priming.primeOnStart = true;
    const struct
    {
        const char *name;
        ProcessProfile profile;
    } flavours[] = {
        {"vax", ProcessProfile::vaxProfile()},
        {"risc", ProcessProfile::riscProfile()},
        {"shared", shared},
        {"zeroing", zeroing},
        {"primeOnStart", priming},
    };
    for (const auto &flavour : flavours) {
        for (double f : {0.125, 4 * 1.3}) {
            ProcessProfile profile = scaled(flavour.profile, f);
            if (profile.zeroingWords > 0)
                profile.zeroingWords = profile.dataWords;
            ProcessModel model(profile, 3, 5);
            auto regions = model.footprint();
            std::size_t outside = 0;
            for (int i = 0; i < 100000; ++i) {
                Ref ref = model.next();
                bool inside = false;
                for (const auto &region : regions) {
                    if (ref.addr >= region.base &&
                        ref.addr < region.base + region.words) {
                        inside = true;
                        break;
                    }
                }
                outside += !inside;
            }
            EXPECT_EQ(outside, 0u) << flavour.name << " at f = " << f;
        }
    }
}

TEST(ProcessModel, FootprintRegionsAreDisjoint)
{
    for (const WorkloadSpec &spec : table1Workloads()) {
        for (const ProcessModel &model : workloadProcesses(spec)) {
            auto regions = model.footprint();
            for (std::size_t a = 0; a < regions.size(); ++a) {
                for (std::size_t b = a + 1; b < regions.size(); ++b) {
                    const auto &x = regions[a], &y = regions[b];
                    EXPECT_TRUE(x.base + x.words <= y.base ||
                                y.base + y.words <= x.base)
                        << spec.name << " pid " << model.pid()
                        << ": regions " << a << " and " << b
                        << " overlap";
                }
            }
        }
    }
}

// The unit binary runs the pool (workload generation builds its
// prefixes there), so death tests re-execute rather than fork.
TEST(ProcessModelDeathTest, OverlappingRegionsAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ProcessProfile profile = ProcessProfile::vaxProfile();
    profile.codeWords = 1 << 22; // runs into the data region
    EXPECT_EXIT(ProcessModel(profile, 1, 1),
                ::testing::ExitedWithCode(1),
                "code region .* overlaps data region");
}

TEST(ProcessModelDeathTest, ProfilesThatEscapeTheFootprintAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ProcessProfile no_stack = ProcessProfile::vaxProfile();
    no_stack.stackWords = 0;
    EXPECT_EXIT(ProcessModel(no_stack, 1, 1),
                ::testing::ExitedWithCode(1), "empty stack region");
    ProcessProfile huge_objects = ProcessProfile::vaxProfile();
    huge_objects.objectWords = huge_objects.dataWords + 1;
    EXPECT_EXIT(ProcessModel(huge_objects, 1, 1),
                ::testing::ExitedWithCode(1), "objectWords");
    ProcessProfile tiny_shared = ProcessProfile::vaxProfile();
    tiny_shared.sharedFraction = 0.1;
    tiny_shared.sharedWords = tiny_shared.objectWords - 1;
    EXPECT_EXIT(ProcessModel(tiny_shared, 1, 1),
                ::testing::ExitedWithCode(1), "objectWords");
}

TEST(ProcessModel, FootprintHasThreeRegions)
{
    ProcessProfile profile = ProcessProfile::riscProfile();
    ProcessModel model(profile, 1, 1);
    auto regions = model.footprint();
    ASSERT_EQ(regions.size(), 3u);
    EXPECT_EQ(regions[0].kind, RefKind::IFetch);
    EXPECT_EQ(regions[0].words, profile.codeWords);
    EXPECT_EQ(regions[1].words, profile.dataWords);
    EXPECT_EQ(regions[2].words, profile.stackWords);
}

TEST(ProcessModel, DataFractionApproximatelyRespected)
{
    ProcessProfile profile = ProcessProfile::vaxProfile();
    ProcessModel model(profile, 1, 11);
    int data = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        data += isData(model.next().kind);
    EXPECT_NEAR(static_cast<double>(data) / n, profile.dataFraction,
                0.05);
}

TEST(ProcessModel, StoreFractionOfDataRefs)
{
    ProcessProfile profile = ProcessProfile::vaxProfile();
    ProcessModel model(profile, 1, 13);
    int stores = 0, data = 0;
    for (int i = 0; i < 80000; ++i) {
        Ref ref = model.next();
        if (isData(ref.kind)) {
            ++data;
            stores += ref.kind == RefKind::Store;
        }
    }
    ASSERT_GT(data, 0);
    EXPECT_NEAR(static_cast<double>(stores) / data,
                profile.storeFraction, 0.06);
}

TEST(ProcessModel, ZeroingEmitsSequentialStores)
{
    ProcessProfile profile = ProcessProfile::vaxProfile();
    profile.zeroingWords = 500;
    ProcessModel model(profile, 1, 17);
    Addr prev = 0;
    for (int i = 0; i < 500; ++i) {
        Ref ref = model.next();
        EXPECT_EQ(ref.kind, RefKind::Store);
        if (i > 0) {
            EXPECT_EQ(ref.addr, prev + 1);
        }
        prev = ref.addr;
    }
}

TEST(ProcessModel, InstructionStreamIsMostlySequentialOrLooping)
{
    ProcessProfile profile = ProcessProfile::riscProfile();
    ProcessModel model(profile, 1, 19);
    Addr prev = 0;
    bool first = true;
    int sequential = 0, total = 0;
    for (int i = 0; i < 50000; ++i) {
        Ref ref = model.next();
        if (ref.kind != RefKind::IFetch)
            continue;
        if (!first) {
            ++total;
            sequential += ref.addr == prev + 1;
        }
        prev = ref.addr;
        first = false;
    }
    ASSERT_GT(total, 1000);
    // The vast majority of instruction fetches are sequential.
    EXPECT_GT(static_cast<double>(sequential) / total, 0.8);
}

TEST(ProcessModel, TemporalLocalityOfData)
{
    // A small window over the recent data addresses should capture
    // well over half of data references.
    ProcessProfile profile = ProcessProfile::vaxProfile();
    ProcessModel model(profile, 1, 23);
    std::unordered_set<Addr> recent;
    std::deque<Addr> order;
    int hits = 0, total = 0;
    const std::size_t window = 1024;
    for (int i = 0; i < 60000; ++i) {
        Ref ref = model.next();
        if (!isData(ref.kind))
            continue;
        ++total;
        if (recent.contains(ref.addr / 4))
            ++hits;
        order.push_back(ref.addr / 4);
        recent.insert(ref.addr / 4);
        while (order.size() > window) {
            // Imperfect LRU eviction is fine for a locality probe.
            recent.erase(order.front());
            order.pop_front();
        }
    }
    ASSERT_GT(total, 5000);
    EXPECT_GT(static_cast<double>(hits) / total, 0.5);
}

TEST(ProcessProfiles, RiscHasLargerFootprint)
{
    auto vax = ProcessProfile::vaxProfile();
    auto risc = ProcessProfile::riscProfile();
    EXPECT_GT(risc.codeWords, vax.codeWords);
    EXPECT_GT(risc.dataWords, vax.dataWords);
}

} // namespace
} // namespace cachetime
