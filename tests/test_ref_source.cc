/**
 * @file
 * Tests for the streaming reference pipeline: the RefSource
 * adapters, the stream hasher, the streaming pairer, and the
 * requirement that streamed simulation is bit-identical to the
 * materialized path (including warm segments from sampling).
 */

#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/cpu.hh"
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

/** Collect (ifetch?, data?, refs) tuples from either pairer. */
struct GroupRecord
{
    bool hasIfetch = false;
    bool hasData = false;
    Ref ifetch{};
    Ref data{};

    bool operator==(const GroupRecord &other) const = default;
};

std::vector<GroupRecord>
eagerGroups(const Trace &trace, bool pair)
{
    std::vector<GroupRecord> out;
    RefPairer pairer(trace, pair);
    while (pairer.hasNext()) {
        RefGroup g = pairer.next();
        GroupRecord r;
        if (g.ifetch) {
            r.hasIfetch = true;
            r.ifetch = *g.ifetch;
        }
        if (g.data) {
            r.hasData = true;
            r.data = *g.data;
        }
        out.push_back(r);
    }
    return out;
}

std::vector<GroupRecord>
streamedGroups(RefSource &source, bool pair)
{
    std::vector<GroupRecord> out;
    StreamPairer pairer(source, pair);
    while (pairer.hasNext()) {
        StreamGroup g = pairer.next();
        out.push_back({g.hasIfetch, g.hasData, g.ifetch, g.data});
    }
    return out;
}

TEST(RefSource, StreamPairerMatchesRefPairer)
{
    // Long enough that couplets straddle chunk refills.
    Trace trace = randomTrace(3 * refChunkSize + 17, 23);
    for (bool pair : {true, false}) {
        TraceRefSource source(trace);
        EXPECT_EQ(streamedGroups(source, pair),
                  eagerGroups(trace, pair))
            << "pair=" << pair;
    }
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
