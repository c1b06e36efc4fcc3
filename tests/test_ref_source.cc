/**
 * @file
 * Tests for the streaming reference pipeline: the RefSource
 * adapters, the stream hasher, the chunk feeder's cuts, and the
 * requirement that streamed simulation is bit-identical to the
 * materialized path (including warm segments from sampling).
 */

#include <cstdio>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "trace/interleave.hh"
#include "trace/ref_source.hh"
#include "trace/trace_v2.hh"
#include "trace/workloads.hh"
#include "util/rng.hh"
#include "verify/diff.hh"
#include "verify/oracle.hh"

namespace cachetime
{
namespace
{

/** A random trace long enough to cross several fill() chunks. */
Trace
randomTrace(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Ref> refs;
    refs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Ref r;
        r.addr = rng.below(1u << 16);
        r.kind = static_cast<RefKind>(rng.below(3));
        r.pid = static_cast<Pid>(rng.below(3));
        refs.push_back(r);
    }
    return Trace("rand", std::move(refs), n / 10);
}

TEST(RefSource, TraceAdapterFillsAndResets)
{
    Trace trace = randomTrace(1000, 7);
    TraceRefSource source(trace);
    EXPECT_EQ(source.size(), trace.size());
    EXPECT_EQ(source.warmStart(), trace.warmStart());
    EXPECT_EQ(source.name(), trace.name());

    std::vector<Ref> got;
    std::vector<Ref> buf(333); // deliberately not a divisor
    std::size_t n;
    while ((n = source.fill(buf.data(), buf.size())) > 0)
        got.insert(got.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(got, trace.refs());
    EXPECT_EQ(source.fill(buf.data(), buf.size()), 0u);

    source.reset();
    Ref one;
    ASSERT_EQ(source.fill(&one, 1), 1u);
    EXPECT_EQ(one, trace.refs()[0]);
}

TEST(RefSource, MaterializeCarriesMetadata)
{
    Trace trace = randomTrace(500, 11);
    trace.setWarmSegments({{100, 150}, {300, 320}});
    TraceRefSource source(trace);
    Trace copy = materialize(source);
    EXPECT_EQ(copy.refs(), trace.refs());
    EXPECT_EQ(copy.warmStart(), trace.warmStart());
    EXPECT_EQ(copy.warmSegments(), trace.warmSegments());
    EXPECT_EQ(copy.name(), trace.name());
}

TEST(RefSource, ContentHashMatchesTraceIdentityHash)
{
    Trace trace = randomTrace(2000, 13);
    TraceRefSource adapter(trace);
    EXPECT_EQ(adapter.contentHash(), traceIdentityHash(trace));

    // A generative source replays itself to hash; the digest must
    // land on the same value as hashing the materialized trace.
    WorkloadSpec spec = table1Workloads()[0];
    auto source = makeWorkloadSource(spec, 0.003);
    Trace materialized = materialize(*source);
    source->reset();
    EXPECT_EQ(source->contentHash(),
              traceIdentityHash(materialized));
    // Memoized: a second call answers without another replay.
    EXPECT_EQ(source->contentHash(),
              traceIdentityHash(materialized));
}

TEST(RefSource, HashSensitivity)
{
    Trace a = randomTrace(100, 17);
    Trace b = a;
    EXPECT_EQ(traceIdentityHash(a), traceIdentityHash(b));
    b.setWarmStart(a.warmStart() + 1);
    EXPECT_NE(traceIdentityHash(a), traceIdentityHash(b));
    Trace c = a;
    c.setWarmSegments({{50, 60}});
    EXPECT_NE(traceIdentityHash(a), traceIdentityHash(c));
}

TEST(CoupletSafeCut, SlidesOnlyPastAPairedDataReference)
{
    const Ref refs[] = {
        {0x10, RefKind::IFetch, 0}, // 0: pairs with 1
        {0x20, RefKind::Load, 0},   // 1
        {0x11, RefKind::IFetch, 0}, // 2: followed by an IFetch
        {0x12, RefKind::IFetch, 0}, // 3: pairs with 4
        {0x21, RefKind::Store, 0},  // 4
    };
    const std::size_t n = std::size(refs);
    for (bool pair : {true, false}) {
        // The stream's ends are always safe.
        EXPECT_EQ(coupletSafeCut(refs, n, 0, pair), 0u);
        EXPECT_EQ(coupletSafeCut(refs, n, n, pair), n);
        // Between two issue groups: the cut stays.
        EXPECT_EQ(coupletSafeCut(refs, n, 2, pair), 2u);
        EXPECT_EQ(coupletSafeCut(refs, n, 3, pair), 3u);
    }
    // Inside a couplet: paired issue moves the cut past the data ref.
    EXPECT_EQ(coupletSafeCut(refs, n, 1, true), 2u);
    EXPECT_EQ(coupletSafeCut(refs, n, 4, true), 5u);
    EXPECT_EQ(coupletSafeCut(refs, n, 1, false), 1u);
    EXPECT_EQ(coupletSafeCut(refs, n, 4, false), 4u);
}

TEST(MeasureWindow, WarmStartOnly)
{
    MeasureWindow window(10, {});
    EXPECT_EQ(window.boundary(), 0u);
    EXPECT_FALSE(window.measured(0));
    EXPECT_EQ(window.boundary(), 10u);
    EXPECT_FALSE(window.measured(9));
    EXPECT_TRUE(window.measured(10));
    EXPECT_EQ(window.boundary(),
              std::numeric_limits<std::size_t>::max());
    EXPECT_TRUE(window.measured(1000));

    MeasureWindow all;
    EXPECT_TRUE(all.measured(0));
    EXPECT_EQ(all.boundary(), std::numeric_limits<std::size_t>::max());
}

TEST(MeasureWindow, SegmentStartingAtTheWarmStart)
{
    MeasureWindow window(10, {{10, 20}});
    EXPECT_FALSE(window.measured(0));
    EXPECT_EQ(window.boundary(), 10u);
    EXPECT_FALSE(window.measured(10));
    EXPECT_EQ(window.boundary(), 20u);
    EXPECT_TRUE(window.measured(20));
    EXPECT_EQ(window.boundary(),
              std::numeric_limits<std::size_t>::max());
}

TEST(MeasureWindow, BackToBackSegments)
{
    MeasureWindow window(0, {{5, 8}, {8, 12}, {20, 22}});
    EXPECT_TRUE(window.measured(0));
    EXPECT_EQ(window.boundary(), 5u);
    EXPECT_FALSE(window.measured(5));
    EXPECT_EQ(window.boundary(), 8u);
    EXPECT_FALSE(window.measured(8));
    EXPECT_EQ(window.boundary(), 12u);
    EXPECT_TRUE(window.measured(12));
    EXPECT_EQ(window.boundary(), 20u);
    // A group may start past a whole segment: it is skipped.
    EXPECT_TRUE(window.measured(23));
    EXPECT_EQ(window.boundary(),
              std::numeric_limits<std::size_t>::max());
}

TEST(MeasureWindow, SegmentEndingAtTheStreamEnd)
{
    // A 10-ref stream whose last segment runs to its end: the
    // boundary lands on the end, so no later position re-asks.
    MeasureWindow window(2, {{6, 10}});
    EXPECT_FALSE(window.measured(0));
    EXPECT_EQ(window.boundary(), 2u);
    EXPECT_TRUE(window.measured(2));
    EXPECT_EQ(window.boundary(), 6u);
    EXPECT_FALSE(window.measured(7));
    EXPECT_EQ(window.boundary(), 10u);
}

TEST(ChunkFeeder, SlicesResidentStreamsInPlaceAtCoupletSafeCuts)
{
    // Plant a couplet at every nominal cut, so each cut must slide
    // one reference past it.
    Trace base = randomTrace(3 * refChunkSize + 17, 31);
    std::vector<Ref> refs = base.refs();
    for (std::size_t cut = refChunkSize; cut < refs.size();
         cut += refChunkSize + 1) {
        refs[cut - 1].kind = RefKind::IFetch;
        refs[cut].kind = RefKind::Store;
    }
    Trace trace("couplets", std::move(refs), 0);
    const Ref *begin = trace.refs().data();
    const Ref *end = begin + trace.size();

    TraceRefSource source(trace);
    ChunkFeeder feeder(source);
    EXPECT_TRUE(feeder.zeroCopy());
    const Ref *at = begin;
    std::vector<std::size_t> sizes;
    while (ChunkFeeder::Span span = feeder.next()) {
        // In place, in order, and bounded.
        EXPECT_EQ(span.data, at);
        EXPECT_LE(span.size, refChunkSize + 1);
        at = span.data + span.size;
        if (at != end) {
            EXPECT_FALSE(at[-1].kind == RefKind::IFetch &&
                         isData(at[0].kind))
                << "a span ends inside a couplet at " << at - begin;
        }
        sizes.push_back(span.size);
    }
    EXPECT_EQ(at, end);
    EXPECT_EQ(sizes, (std::vector<std::size_t>{
                         refChunkSize + 1, refChunkSize + 1,
                         refChunkSize + 1, 17 - 3}));
}

TEST(RefSource, InterleaveSourceResetReplaysBitIdentically)
{
    WorkloadSpec spec = table1Workloads()[4]; // an R2000 workload
    auto source = makeWorkloadSource(spec, 0.005);
    Trace first = materialize(*source);
    EXPECT_EQ(first.size(), source->size());
    EXPECT_GT(source->prefixLength(), 0u);

    // Replay in awkward chunk sizes; the stream must not depend on
    // how it is consumed.
    source->reset();
    std::vector<Ref> replay;
    std::vector<Ref> buf(1009);
    std::size_t n;
    while ((n = source->fill(buf.data(), buf.size())) > 0)
        replay.insert(replay.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(replay, first.refs());
}

TEST(RefSource, GenerateIsMaterializedWorkloadSource)
{
    WorkloadSpec spec = table1Workloads()[1];
    Trace eager = generate(spec, 0.004);
    auto source = makeWorkloadSource(spec, 0.004);
    Trace streamed = materialize(*source);
    EXPECT_EQ(streamed.refs(), eager.refs());
    EXPECT_EQ(streamed.warmStart(), eager.warmStart());
    EXPECT_EQ(streamed.name(), eager.name());
}

TEST(RefSource, V2FileSourceStreamsTheFile)
{
    Trace trace = randomTrace(5000, 29);
    std::string path = "/tmp/cachetime_refsource_v2.trace";
    writeV2(trace, path);

    V2FileSource source(path);
    EXPECT_EQ(source.size(), trace.size());
    EXPECT_EQ(source.warmStart(), trace.warmStart());
    Trace streamed = materialize(source);
    EXPECT_EQ(streamed.refs(), trace.refs());

    // Rewind mid-stream and replay from the top.
    source.reset();
    std::vector<Ref> buf(100);
    ASSERT_EQ(source.fill(buf.data(), buf.size()), 100u);
    source.reset();
    Ref one;
    ASSERT_EQ(source.fill(&one, 1), 1u);
    EXPECT_EQ(one, trace.refs()[0]);

    // The digest covers the workload name, which a file source
    // derives from its path; compare against the materialized
    // stream, which carries that name.
    EXPECT_EQ(source.contentHash(), traceIdentityHash(streamed));
    EXPECT_NE(source.contentHash(), traceIdentityHash(trace));
    std::remove(path.c_str());
}

TEST(RefSource, SystemRunSourceMatchesRunTrace)
{
    Trace trace = generate(table1Workloads()[0], 0.004);
    SystemConfig config = SystemConfig::paperDefault();

    System eager(config);
    SimResult a = eager.run(trace);

    TraceRefSource source(trace);
    System streamed(config);
    SimResult b = streamed.run(source);

    EXPECT_TRUE(verify::diffResults(a, b).empty())
        << verify::formatDiffs(verify::diffResults(a, b));
}

TEST(RefSource, WarmSegmentsExcludedFromCounters)
{
    // 10 refs, warm start 2, segment [4, 7): 10 - 2 - 3 = 5 measured.
    std::vector<Ref> refs;
    for (std::size_t i = 0; i < 10; ++i)
        refs.push_back({0x100 + i * 64, RefKind::Load, 0});
    Trace trace("seg", std::move(refs), 2);
    trace.setWarmSegments({{4, 7}});

    SystemConfig config = SystemConfig::paperDefault();
    config.cpu.pairIssue = false;
    System system(config);
    SimResult fast = system.run(trace);
    EXPECT_EQ(fast.refs, 5u);
    EXPECT_EQ(fast.dcache.readAccesses, 5u);

    SimResult oracle = verify::oracleRun(config, trace);
    EXPECT_TRUE(verify::diffResults(fast, oracle).empty())
        << verify::formatDiffs(verify::diffResults(fast, oracle));
}

TEST(RefSource, SampledTraceAgreesWithOracle)
{
    // A workload trace with a 200-ref warm segment opening every
    // 1000-ref window after the first, the layout periodic sampling
    // produces.
    Trace workload = generate(table1Workloads()[2], 0.01);
    const std::size_t warm = 1200;
    ASSERT_GT(workload.size(), warm + 5000);
    Trace sampled("sampled", workload.refs(), warm);
    std::vector<WarmSegment> segments;
    for (std::size_t at = warm + 800; at + 200 <= workload.size();
         at += 1000)
        segments.push_back({at, at + 200});
    sampled.setWarmSegments(segments);
    ASSERT_GT(sampled.warmSegments().size(), 4u);

    SystemConfig config = SystemConfig::paperDefault();
    System system(config);
    SimResult fast = system.run(sampled);
    SimResult oracle = verify::oracleRun(config, sampled);
    EXPECT_TRUE(verify::diffResults(fast, oracle).empty())
        << verify::formatDiffs(verify::diffResults(fast, oracle));

    // Streamed replay of the sampled trace agrees too.
    TraceRefSource source(sampled);
    System streamed(config);
    SimResult c = streamed.run(source);
    EXPECT_TRUE(verify::diffResults(fast, c).empty())
        << verify::formatDiffs(verify::diffResults(fast, c));
}

} // namespace
} // namespace cachetime
