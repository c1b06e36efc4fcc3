/**
 * @file
 * Tests of the synthetic process model: determinism, address-space
 * structure, reference mix, and locality properties.
 */

#include <deque>
#include <unordered_set>

#include <gtest/gtest.h>

#include "trace/synthetic.hh"

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

TEST(ProcessModel, AddressesStayInFootprint)
{
    ProcessProfile profile = ProcessProfile::vaxProfile();
    ProcessModel model(profile, 3, 5);
    auto regions = model.footprint();
    for (int i = 0; i < 50000; ++i) {
        Ref ref = model.next();
        bool inside = false;
        for (const auto &region : regions) {
            if (ref.addr >= region.base &&
                ref.addr < region.base + region.words) {
                inside = true;
                break;
            }
        }
        EXPECT_TRUE(inside) << "address " << ref.addr
                            << " outside the declared footprint";
    }
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
