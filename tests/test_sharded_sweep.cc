/**
 * @file
 * The set-sharded stack kernel and the pipelined feeder against
 * their serial counterparts: runStackSweep must be bit-identical at
 * every thread count (the shard routing, local-set remap and
 * fixed-order merge are pure bookkeeping), the shard-key derivation
 * must match its specification, grids with no shared set-index bits
 * must fall back to the serial kernel unchanged, runMissRatioMany
 * must aggregate to the same doubles whichever engine and thread
 * count each point rode (including coherent configs, which the
 * stack kernel rejects onto the fused lattice), and PipelinedFeeder
 * must produce ChunkFeeder's span sequence byte for byte.  In the
 * fused lattice, configs sharing a front end (frontEndKey) must get
 * exactly the results they get running alone, whichever sources
 * feed the batch and whichever machines sit between them, and a
 * lone batch must hand its front-end groups to the pool.  A timing
 * grid query's per-trace runs must equal lone runs, and its
 * aggregates must be exactly those runs' aggregates.
 *
 * Every test here saves and restores the process-wide pool size, so
 * the suite is safe to interleave with the other parallel suites
 * under TSAN (ctest -L 'parallel|coherence|sweep').
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/smarts.hh"
#include "core/stack_sim.hh"
#include "core/sweep.hh"
#include "fill_only_source.hh"
#include "json_check.hh"
#include "sim/system.hh"
#include "stats/interval.hh"
#include "stats/telemetry.hh"
#include "stats/trace_event.hh"
#include "thread_guard.hh"
#include "trace/ref_source.hh"
#include "trace/trace_v2.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/serialize.hh"
#include "verify/fuzz.hh"

namespace cachetime
{
namespace
{

/** An eligible unified machine with everything else at baseline. */
SystemConfig
unifiedConfig(std::uint64_t size_words, unsigned block_words,
              unsigned assoc, AllocPolicy alloc, bool virtual_tags)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.split = false;
    config.dcache.sizeWords = size_words;
    config.dcache.blockWords = block_words;
    config.dcache.fetchWords = 0;
    config.dcache.assoc = assoc;
    config.dcache.replPolicy =
        assoc == 1 ? ReplPolicy::Random : ReplPolicy::LRU;
    config.dcache.allocPolicy = alloc;
    config.dcache.virtualTags = virtual_tags;
    return config;
}

/** Split variant; both L1s get the shape, D side the alloc policy. */
SystemConfig
splitConfig(std::uint64_t size_words, unsigned block_words,
            unsigned assoc, AllocPolicy alloc, bool pair_issue)
{
    SystemConfig config = unifiedConfig(size_words, block_words,
                                        assoc, alloc, true);
    config.split = true;
    config.icache = config.dcache;
    config.icache.allocPolicy = AllocPolicy::NoWriteAllocate;
    config.cpu.pairIssue = pair_issue;
    return config;
}

/** Every counter the stack kernel produces, compared exactly. */
void
expectCountersEqual(const SimResult &got, const SimResult &want,
                    const std::string &context)
{
    EXPECT_EQ(got.refs, want.refs) << context;
    EXPECT_EQ(got.readRefs, want.readRefs) << context;
    EXPECT_EQ(got.writeRefs, want.writeRefs) << context;
    EXPECT_EQ(got.groups, want.groups) << context;
    EXPECT_EQ(got.icache.readAccesses, want.icache.readAccesses)
        << context;
    EXPECT_EQ(got.icache.readMisses, want.icache.readMisses)
        << context;
    EXPECT_EQ(got.dcache.readAccesses, want.dcache.readAccesses)
        << context;
    EXPECT_EQ(got.dcache.readMisses, want.dcache.readMisses)
        << context;
    EXPECT_EQ(got.dcache.writeAccesses, want.dcache.writeAccesses)
        << context;
    EXPECT_EQ(got.dcache.writeMisses, want.dcache.writeMisses)
        << context;
}

/** One stack sweep at an explicit pool size. */
std::vector<SimResult>
sweepAt(unsigned threads, const std::vector<SystemConfig> &configs,
        const Trace &trace)
{
    setParallelThreads(threads);
    TraceRefSource source(trace);
    return runStackSweep(configs, source);
}

/**
 * The core property: the one-thread sweep (always the serial
 * kernel) is the reference, and every wider pool must reproduce it
 * counter for counter.
 */
void
compareAcrossThreads(const std::vector<SystemConfig> &configs,
                     const Trace &trace, std::uint64_t seed)
{
    ThreadGuard guard;
    std::vector<SimResult> serial = sweepAt(1, configs, trace);
    ASSERT_EQ(serial.size(), configs.size());
    for (unsigned threads : {2u, 8u}) {
        std::vector<SimResult> sharded =
            sweepAt(threads, configs, trace);
        ASSERT_EQ(sharded.size(), configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            expectCountersEqual(
                sharded[c], serial[c],
                "seed " + std::to_string(seed) + " threads " +
                    std::to_string(threads) + " config " +
                    configs[c].describe());
        }
    }
}

/**
 * Unified grids crossing size, associativity, block size and both
 * write-allocation policies - the no-write-allocate points exercise
 * the a-star augmentation inside every shard - plus shared-tag
 * points where the router's pid bits are dead weight.
 */
TEST(ShardedSweep, UnifiedGridBitIdenticalAcrossThreads)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words : {64u, 256u, 1024u}) {
        for (unsigned assoc : {1u, 2u, 4u}) {
            configs.push_back(
                unifiedConfig(words, 4, assoc,
                              AllocPolicy::NoWriteAllocate, true));
            configs.push_back(unifiedConfig(
                words, 4, assoc, AllocPolicy::WriteAllocate, true));
        }
        configs.push_back(unifiedConfig(
            words, 8, 2, AllocPolicy::NoWriteAllocate, true));
    }
    configs.push_back(
        unifiedConfig(256, 4, 1, AllocPolicy::NoWriteAllocate,
                      false));
    configs.push_back(
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, false));

    for (std::uint64_t seed = 96001; seed < 96009; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        compareAcrossThreads(configs, trace, seed);
    }
}

/** Split machines, with and without paired issue. */
TEST(ShardedSweep, SplitGridBitIdenticalAcrossThreads)
{
    for (bool pair : {false, true}) {
        std::vector<SystemConfig> configs;
        for (std::uint64_t words : {128u, 512u}) {
            for (unsigned assoc : {1u, 2u}) {
                configs.push_back(splitConfig(
                    words, 4, assoc, AllocPolicy::NoWriteAllocate,
                    pair));
                configs.push_back(splitConfig(
                    words, 8, assoc, AllocPolicy::WriteAllocate,
                    pair));
            }
        }
        for (std::uint64_t seed = 96101; seed < 96106; ++seed) {
            Trace trace = verify::generateCase(seed).trace;
            compareAcrossThreads(configs, trace, seed);
        }
    }
}

/**
 * Warm-start boundaries and mid-trace warm segments: the measured
 * flag is computed once in the router and carried to every shard,
 * so gating must be position-exact however references interleave.
 */
TEST(ShardedSweep, WarmSegmentsBitIdenticalAcrossThreads)
{
    std::vector<SystemConfig> configs{
        unifiedConfig(128, 4, 1, AllocPolicy::NoWriteAllocate, true),
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, true),
        unifiedConfig(512, 8, 4, AllocPolicy::NoWriteAllocate,
                      true)};
    for (std::uint64_t seed = 96201; seed < 96211; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        if (trace.size() < 40)
            continue;
        std::size_t warm = trace.size() / 8;
        Trace warmed(trace.name(), trace.refs(), warm);
        std::size_t third = trace.size() / 3;
        warmed.setWarmSegments(
            {{third, third + trace.size() / 10 + 1},
             {2 * third, 2 * third + trace.size() / 12 + 1}});
        compareAcrossThreads(configs, warmed, seed);
    }
}

/**
 * The shard key is the set-index bit range common to every layer:
 * bits above the largest block offset, below the smallest
 * set-index top, zero when the range is empty (fully-associative
 * points have no set-index bits at all).
 */
TEST(ShardedSweep, ShardBitsDerivation)
{
    // One direct-mapped layer: 1024/(4*1) = 256 sets over 4-word
    // blocks, so set-index bits [2, 10) - 8 routable bits.
    std::vector<SystemConfig> grid{unifiedConfig(
        1024, 4, 1, AllocPolicy::WriteAllocate, true)};
    EXPECT_EQ(stackShardBits(grid), 8u);

    // Add 512/(8*2) = 32 sets over 8-word blocks: bits [3, 8).
    // The shared range shrinks to [3, 8) - 5 bits.
    grid.push_back(unifiedConfig(512, 8, 2,
                                 AllocPolicy::WriteAllocate, true));
    EXPECT_EQ(stackShardBits(grid), 5u);

    // A fully-associative point has a single set: no shared bits
    // remain and the kernel must run serially.
    grid.push_back(unifiedConfig(64, 4, 16,
                                 AllocPolicy::WriteAllocate, true));
    EXPECT_EQ(stackShardBits(grid), 0u);

    // Split configs contribute both L1 layers to the fold.
    std::vector<SystemConfig> split_grid{splitConfig(
        1024, 4, 1, AllocPolicy::WriteAllocate, false)};
    EXPECT_EQ(stackShardBits(split_grid), 8u);

    EXPECT_EQ(stackShardBits({}), 0u);
}

/**
 * A grid containing a fully-associative point forces the serial
 * fallback even on a wide pool; the results must still match the
 * one-thread run (trivially - same kernel - but this pins the
 * fallback gate itself).
 */
TEST(ShardedSweep, SerialFallbackWhenNoSharedBits)
{
    std::vector<SystemConfig> configs{
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, true),
        unifiedConfig(64, 4, 16, AllocPolicy::NoWriteAllocate,
                      true)};
    ASSERT_EQ(stackShardBits(configs), 0u);
    for (std::uint64_t seed = 96301; seed < 96304; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        compareAcrossThreads(configs, trace, seed);
    }
}

/**
 * The mode-selecting front end across pool sizes: stack-eligible
 * points ride the (sharded) stack kernel, random-replacement and
 * coherent points fall back to the fused lattice, and the
 * aggregated doubles must be equal - not close - at every thread
 * count.
 */
TEST(ShardedSweep, MissRatioManyBitIdenticalAcrossThreads)
{
    std::vector<SystemConfig> configs;
    SystemConfig base = SystemConfig::paperDefault();
    for (std::uint64_t words : {1024u, 4096u}) {
        SystemConfig direct = base;
        direct.setL1SizeWordsEach(words);
        configs.push_back(direct); // eligible, split

        SystemConfig random = direct;
        random.setL1Assoc(2); // random replacement: fused fallback
        configs.push_back(random);
    }
    // A coherent config: rejected by stackEligible(), must ride the
    // fused lattice and still aggregate identically.
    SystemConfig coherent = base;
    coherent.cores = 2;
    coherent.protocol = CoherenceProtocol::MESI;
    coherent.applyCoherenceDefaults();
    configs.push_back(coherent);

    std::vector<Trace> traces;
    for (std::uint64_t seed = 96401; seed < 96404; ++seed)
        traces.push_back(verify::generateCase(seed).trace);

    ThreadGuard guard;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    setParallelThreads(1);
    std::vector<MissRatioMetrics> serial =
        runMissRatioMany(configs, traces);
    for (unsigned threads : {2u, 8u}) {
        setParallelThreads(threads);
        std::vector<MissRatioMetrics> wide =
            runMissRatioMany(configs, traces);
        ASSERT_EQ(wide.size(), serial.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            std::string context = "threads " +
                                  std::to_string(threads) +
                                  " config " +
                                  configs[c].describe();
            EXPECT_EQ(wide[c].readMissRatio,
                      serial[c].readMissRatio)
                << context;
            EXPECT_EQ(wide[c].ifetchMissRatio,
                      serial[c].ifetchMissRatio)
                << context;
            EXPECT_EQ(wide[c].loadMissRatio,
                      serial[c].loadMissRatio)
                << context;
            EXPECT_EQ(wide[c].writeMissRatio,
                      serial[c].writeMissRatio)
                << context;
        }
    }

    SimCache::global().setEnabled(cache_was_enabled);
}

/**
 * The pipelined feeder's span sequence, concatenated, must be the
 * reference stream ChunkFeeder produces - across multiple chunks
 * and through the held-back-IFetch carry rule - and the pipeline
 * must engage exactly when it can pay off: multi-thread pools over
 * fill()-only sources, never over zero-copy traces or one-thread
 * pools.
 */
TEST(ShardedSweep, PipelinedFeederMatchesChunkFeeder)
{
    // A synthetic stream long enough for several 16K-ref chunks,
    // with ifetches scattered so chunk boundaries hit the carry
    // rule, and a trailing ifetch to cover end-of-stream carry.
    std::vector<Ref> refs;
    Rng rng(96501);
    for (std::size_t i = 0; i < 50'000; ++i) {
        RefKind kind = RefKind::IFetch;
        std::uint64_t pick = rng.below(10);
        if (pick >= 6)
            kind = pick >= 8 ? RefKind::Store : RefKind::Load;
        refs.push_back(Ref{rng.below(1 << 20),
                           kind,
                           static_cast<Pid>(rng.below(3))});
    }
    refs.push_back(Ref{12345, RefKind::IFetch, 0});
    Trace trace("pipeline-check", refs, 0);

    ThreadGuard guard;
    setParallelThreads(8);

    auto drain = [](auto &feeder) {
        std::vector<Ref> out;
        while (ChunkFeeder::Span span = feeder.next())
            out.insert(out.end(), span.data,
                       span.data + span.size);
        return out;
    };

    FillOnlySource chunked_source(trace);
    ChunkFeeder chunked(chunked_source);
    std::vector<Ref> reference = drain(chunked);
    EXPECT_EQ(reference.size(), refs.size());
    EXPECT_TRUE(reference == refs);

    FillOnlySource piped_source(trace);
    PipelinedFeeder piped(piped_source);
    EXPECT_TRUE(piped.pipelined());
    std::vector<Ref> overlapped = drain(piped);
    EXPECT_TRUE(overlapped == reference);

    // Zero-copy sources bypass the thread entirely...
    TraceRefSource resident(trace);
    PipelinedFeeder borrowed(resident);
    EXPECT_FALSE(borrowed.pipelined());
    EXPECT_TRUE(drain(borrowed) == reference);

    // ...as does a one-thread pool over a fill()-only source.
    setParallelThreads(1);
    FillOnlySource serial_source(trace);
    PipelinedFeeder serial(serial_source);
    EXPECT_FALSE(serial.pipelined());
    EXPECT_TRUE(drain(serial) == reference);
}

/** RAII SimCache switch-off: restores the previous setting on exit. */
class SimCacheOff
{
  public:
    SimCacheOff() : was_(SimCache::global().enabled())
    {
        SimCache::global().setEnabled(false);
    }
    ~SimCacheOff() { SimCache::global().setEnabled(was_); }
    SimCacheOff(const SimCacheOff &) = delete;
    SimCacheOff &operator=(const SimCacheOff &) = delete;

  private:
    bool was_;
};

/**
 * Timing-only variants of @p config, each differing in one latency
 * or buffer knob, so each shares its front end.  Coherent machines
 * are single-issue, virtual and bufferless, so only their clock and
 * memory vary (and they never share anyway).
 */
std::vector<SystemConfig>
timingVariants(const SystemConfig &config)
{
    std::vector<SystemConfig> out(2, config);
    out[0].cycleNs = 2 * config.cycleNs;
    out[1].memory.readLatencyNs += 120;
    if (config.coherent())
        return out;
    out.push_back(config);
    out.back().l1Buffer.depth += 2;
    out.push_back(config);
    out.back().cpu.earlyContinuation = !config.cpu.earlyContinuation;
    if (config.addressing == AddressMode::Physical) {
        out.push_back(config);
        out.back().tlb.missPenaltyCycles += 7;
    }
    if (config.hasL2) {
        out.push_back(config);
        out.back().l2Timing.hitCycles += 3;
    }
    return out;
}

/**
 * Case @p i's machine: the fuzz config of @p seed with physical
 * addressing, both prefetch policies and victim caches mixed in, so
 * every stream a front end's event list carries is exercised.
 */
SystemConfig
frontEndCase(std::uint64_t seed, std::size_t i)
{
    SystemConfig config = verify::generateCase(seed).config;
    if (config.coherent())
        return config;
    if (i % 5 == 0)
        config.addressing = AddressMode::Physical;
    for (CacheConfig *cache : {&config.icache, &config.dcache}) {
        if (i % 4 == 1)
            cache->prefetchPolicy = PrefetchPolicy::OnMiss;
        else if (i % 4 == 2)
            cache->prefetchPolicy = PrefetchPolicy::Tagged;
        else if (i % 4 == 3)
            cache->victimEntries = 2 + static_cast<unsigned>(i % 3);
    }
    return config;
}

/** @p trace repeated past refChunkSize, keeping its warm start. */
Trace
longTrace(const Trace &trace)
{
    std::vector<Ref> refs;
    while (refs.size() <= refChunkSize + 100)
        refs.insert(refs.end(), trace.refs().begin(), trace.refs().end());
    return Trace(trace.name() + "-long", std::move(refs),
                 trace.warmStart());
}

/** Every config run alone over @p trace. */
std::vector<SimResult>
loneRuns(const std::vector<SystemConfig> &configs, const Trace &trace)
{
    std::vector<SimResult> out;
    for (const SystemConfig &config : configs)
        out.push_back(makeSimulator(config)->run(trace));
    return out;
}

/** @return count @p key of stage @p stage in the stage table, or 0. */
std::uint64_t
stageCount(const std::string &stage, const std::string &key)
{
    for (const telemetry::StageRecord &record : telemetry::stages()) {
        if (record.name != stage)
            continue;
        for (const auto &[name, value] : record.counts)
            if (name == key)
                return value;
    }
    return 0;
}

/** @return copies of the memoized results @p shared points at. */
std::vector<SimResult>
values(const std::vector<std::shared_ptr<const SimResult>> &shared)
{
    std::vector<SimResult> out;
    for (const auto &result : shared)
        out.push_back(*result);
    return out;
}

void
expectLone(const std::vector<SimResult> &got,
           const std::vector<SimResult> &lone,
           const std::vector<SystemConfig> &configs,
           const std::string &context)
{
    ASSERT_EQ(got.size(), lone.size()) << context;
    for (std::size_t c = 0; c < lone.size(); ++c) {
        std::vector<verify::FieldDiff> diffs =
            verify::diffResults(got[c], lone[c]);
        EXPECT_TRUE(diffs.empty())
            << context << " config " << c << " "
            << configs[c].describe() << "\n"
            << verify::formatDiffs(diffs);
    }
}

/**
 * The fused lattice's shared front ends against lone machines: each
 * fuzz machine is batched with its timing-only variants, a
 * pair-issue-flipped twin and unrelated machines in between, over a
 * resident stream longer than one span, the same stream from a
 * CTTRACE2 file, and a stream with warm segments, at 1 and 8
 * threads.  Every result must equal the config's lone run.
 */
TEST(SweepSharedFrontEnd, BatchesMatchLoneMachines)
{
    ThreadGuard guard;
    SimCacheOff off;
    telemetry::resetStages();
    const std::string path =
        ::testing::TempDir() + "/shared_front_end.cttrace2";
    for (std::size_t i = 0; i < 50; ++i) {
        const std::uint64_t seed = 97101 + i;
        const SystemConfig base = frontEndCase(seed, i);
        std::vector<SystemConfig> variants = timingVariants(base);
        for (const SystemConfig &variant : variants)
            ASSERT_TRUE(frontEndKey(variant) == frontEndKey(base));

        std::vector<SystemConfig> configs{
            base, verify::generateCase(seed + 5000).config};
        configs.insert(configs.end(), variants.begin(),
                       variants.begin() + 2);
        if (!base.coherent()) {
            SystemConfig flipped = base;
            flipped.cpu.pairIssue = !base.cpu.pairIssue;
            configs.push_back(flipped);
        }
        configs.push_back(verify::generateCase(seed + 6000).config);
        configs.insert(configs.end(), variants.begin() + 2,
                       variants.end());
        // Coherent machines reject warm segments.
        std::vector<SystemConfig> classic;
        for (const SystemConfig &config : configs)
            if (!config.coherent())
                classic.push_back(config);

        const Trace trace = longTrace(verify::generateCase(seed).trace);
        writeV2(trace, path);
        Trace segmented(trace.name(), trace.refs(), trace.size() / 8);
        const std::size_t third = trace.size() / 3;
        segmented.setWarmSegments(
            {{third, third + trace.size() / 10 + 1},
             {2 * third, 2 * third + trace.size() / 12 + 1}});
        const std::vector<SimResult> lone = loneRuns(configs, trace);
        const std::vector<SimResult> lone_segmented =
            loneRuns(classic, segmented);

        for (unsigned threads : {1u, 8u}) {
            setParallelThreads(threads);
            const std::string context = "seed " + std::to_string(seed) +
                                        " threads " +
                                        std::to_string(threads);
            TraceRefSource resident(trace);
            expectLone(simulateBatch(configs, resident), lone, configs,
                       context + " resident");
            V2FileSource streamed(path);
            expectLone(values(simulateSourceCachedMany(configs, streamed)),
                       lone, configs, context + " v2 file");
            TraceRefSource warm(segmented);
            expectLone(values(simulateSourceCachedMany(classic, warm)),
                       lone_segmented, classic,
                       context + " warm segments");
        }
    }
    std::remove(path.c_str());
    EXPECT_GT(stageCount("batch", "followers"), 0u);
}

/**
 * A lone pass fans out over the pool: the test thread calls
 * simulateBatch itself, outside any pool task, over a resident
 * stream of several spans.  The batch holds three front ends with
 * two timing variants each, a coherent machine and an unrelated
 * classic machine: five groups.  Every result must equal its lone
 * machine's at 1, 2 and 4 threads, and with more than one thread
 * every span must go through the pool.
 */
TEST(SweepSharedFrontEnd, LonePassFansOutOverThePool)
{
    ThreadGuard guard;
    std::vector<SystemConfig> configs;
    for (std::uint64_t seed = 97501; configs.size() < 9; ++seed) {
        const SystemConfig base = verify::generateCase(seed).config;
        if (base.coherent())
            continue;
        const std::vector<SystemConfig> variants = timingVariants(base);
        configs.push_back(base);
        configs.insert(configs.end(), variants.begin(),
                       variants.begin() + 2);
    }
    configs.push_back(verify::generateCoherentCase(97601).config);
    const SystemConfig unrelated = SystemConfig::paperDefault();
    for (const SystemConfig &config : configs)
        ASSERT_FALSE(frontEndKey(config) == frontEndKey(unrelated));
    configs.push_back(unrelated);

    const Trace seed_trace = verify::generateCase(97501).trace;
    std::vector<Ref> refs;
    while (refs.size() <= 4 * refChunkSize)
        refs.insert(refs.end(), seed_trace.refs().begin(),
                    seed_trace.refs().end());
    const Trace trace("lone-pass", std::move(refs),
                      seed_trace.warmStart());
    std::uint64_t spans = 0;
    {
        TraceRefSource source(trace);
        ChunkFeeder feeder(source);
        while (feeder.next())
            ++spans;
    }
    ASSERT_GE(spans, 4u);
    const std::vector<SimResult> lone = loneRuns(configs, trace);

    for (unsigned threads : {1u, 2u, 4u}) {
        setParallelThreads(threads);
        const std::string context =
            "threads " + std::to_string(threads);
        const std::uint64_t before = poolStats().dispatches;
        TraceRefSource source(trace);
        const std::vector<SimResult> got =
            simulateBatch(configs, source);
        const std::uint64_t dispatched =
            poolStats().dispatches - before;
        expectLone(got, lone, configs, context);
        if (threads == 1)
            EXPECT_EQ(dispatched, 0u) << context;
        else
            EXPECT_GE(dispatched, spans) << context;
    }
}

/**
 * A follower - a back end beyond the first - owns no L1s or TLB: it
 * joins a machine only on the same front-end key, before the machine
 * runs and while no interval collector watches it, and everything
 * that needs one back end's whole machine (an interval collector,
 * state capture and restore, endRun()) panics on a machine with
 * several.
 */
TEST(SweepSharedFrontEndDeathTest, FollowerOwnsNoFrontEnd)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SystemConfig config = SystemConfig::paperDefault();
    SystemConfig slower = config;
    slower.cycleNs = 2 * config.cycleNs;
    SystemConfig bigger = config;
    bigger.setL1SizeWordsEach(2 * config.dcache.sizeWords);

    System group(config);
    EXPECT_DEATH(group.addBackEnd(bigger), "cannot share");
    group.addBackEnd(slower);
    EXPECT_EQ(group.backEnds(), 2u);

    StateWriter writer;
    StateReader reader(nullptr, 0, "empty");
    EXPECT_DEATH(group.captureState(writer), "one back end");
    EXPECT_DEATH(group.restoreState(reader), "one back end");
    EXPECT_DEATH(group.restoreWarmState(reader), "one back end");
    EXPECT_DEATH(group.setIntervalCollector(nullptr), "one back end");
    EXPECT_DEATH(group.endRun(), "one back end");

    IntervalCollector collector(100);
    System watched(config);
    watched.setIntervalCollector(&collector);
    EXPECT_DEATH(watched.addBackEnd(slower), "interval collector");

    System ran(config);
    ran.run(verify::generateCase(97201).trace);
    EXPECT_DEATH(ran.addBackEnd(slower), "has not run");
}

/** 2 L1 sizes x 3 cycle times of the paper default. */
std::vector<SystemConfig>
frontEndGrid()
{
    std::vector<SystemConfig> configs;
    for (double cycle : {20.0, 40.0, 60.0}) {
        for (std::uint64_t words : {1024u, 4096u}) {
            SystemConfig config = SystemConfig::paperDefault();
            config.setL1SizeWordsEach(words);
            config.cycleNs = cycle;
            configs.push_back(config);
        }
    }
    return configs;
}

/**
 * The frontEndGrid() over one trace at one thread is cut into two
 * groups of one organization each, so it builds six back ends of
 * which four follow the first of their front end; the run
 * manifest's "batch" stage reports both counts, the references the
 * two front ends scanned and the events the six back ends replayed,
 * and every aggregate equals the lone machine's.  A miss-ratio query
 * over the same grid and two traces then runs one stack pass per
 * trace (one issue shape), which the "stack" stage counts as passes
 * and points, building no machine.
 */
TEST(SweepSharedFrontEnd, ManifestCountsMachinesAndFollowers)
{
    ThreadGuard guard;
    SimCacheOff off;
    setParallelThreads(1);

    const std::vector<SystemConfig> configs = frontEndGrid();
    const std::vector<Trace> traces{
        longTrace(verify::generateCase(97301).trace)};

    telemetry::resetStages();
    std::vector<AggregateMetrics> grid = runGeoMeanMany(configs, traces);

    telemetry::RunManifest run;
    run.tool = "sweep-shared-front-end";
    std::stringstream manifest;
    telemetry::writeManifest(manifest, run);
    json_check::JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_check::parseJson(manifest.str(), &doc, &error))
        << error;
    const json_check::JsonValue *machines =
        doc.path("phases.batch.machines");
    const json_check::JsonValue *followers =
        doc.path("phases.batch.followers");
    ASSERT_NE(machines, nullptr);
    ASSERT_NE(followers, nullptr);
    EXPECT_EQ(machines->number, 6.0);
    EXPECT_EQ(followers->number, 4.0);

    // One count from a fresh manifest; a missing key reads -1.
    auto count = [&run](const std::string &key) {
        std::stringstream text;
        telemetry::writeManifest(text, run);
        json_check::JsonValue fresh;
        std::string why;
        if (!json_check::parseJson(text.str(), &fresh, &why))
            return -2.0;
        const json_check::JsonValue *value = fresh.path("phases." + key);
        return value ? value->number : -1.0;
    };
    // No stack pass has run, so the manifest has no stack stage.
    EXPECT_EQ(count("stack"), -1.0);

    // Each of the two front ends scans the trace once, and each of
    // its three back ends replays the events a lone machine of its
    // organization replays.
    std::uint64_t lone_events = 0;
    for (std::uint64_t words : {1024u, 4096u}) {
        SystemConfig config = SystemConfig::paperDefault();
        config.setL1SizeWordsEach(words);
        System lone(config);
        lone.run(traces[0]);
        EXPECT_EQ(lone.scannedRefs(), traces[0].size());
        EXPECT_GT(lone.replayedEvents(), 0u);
        EXPECT_LT(lone.replayedEvents(), traces[0].size());
        lone_events += 3 * lone.replayedEvents();
    }
    EXPECT_EQ(count("batch.front_refs"),
              2.0 * static_cast<double>(traces[0].size()));
    EXPECT_EQ(count("batch.events"), static_cast<double>(lone_events));

    ASSERT_EQ(grid.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        AggregateMetrics lone = aggregateResults(
            configs[c], {std::make_shared<const SimResult>(
                            makeSimulator(configs[c])->run(traces[0]))});
        EXPECT_EQ(grid[c].cyclesPerRef, lone.cyclesPerRef) << c;
        EXPECT_EQ(grid[c].execNsPerRef, lone.execNsPerRef) << c;
        EXPECT_EQ(grid[c].readMissRatio, lone.readMissRatio) << c;
        EXPECT_EQ(grid[c].writeTrafficWordRatio,
                  lone.writeTrafficWordRatio)
            << c;
    }

    for (const SystemConfig &config : configs)
        ASSERT_TRUE(stackEligible(config));
    runMissRatioMany(configs,
                     {traces[0], verify::generateCase(97302).trace});
    EXPECT_EQ(count("stack.passes"), 2.0);
    EXPECT_EQ(count("stack.points"),
              2.0 * static_cast<double>(configs.size()));
    EXPECT_EQ(count("batch.machines"), 6.0);
    EXPECT_EQ(count("batch.events"), static_cast<double>(lone_events));
}

/**
 * Every engine stage is one span.  With a trace-event session open,
 * a timing grid (fused batches, at 1 and then 4 threads), a
 * miss-ratio grid (stack passes) and a SMARTS sweep (one pass) each
 * leave their stage in the manifest's "phases", with a count equal
 * to the stage's complete events in the trace file; every stage
 * event renders in the one stage process, and on the opener's track
 * each batch lies inside a "simulate" span.  The one-thread grid's
 * batches count 6 machines and 4 followers.
 */
TEST(TraceEventStages, EveryEngineStageIsOneSpan)
{
    ThreadGuard guard;
    SimCacheOff off;
    const std::vector<SystemConfig> configs = frontEndGrid();
    const Trace trace = longTrace(verify::generateCase(97301).trace);
    const std::vector<Trace> traces{trace,
                                    verify::generateCase(97302).trace,
                                    verify::generateCase(97303).trace};
    SystemConfig physical = SystemConfig::paperDefault();
    physical.addressing = AddressMode::Physical;
    SmartsConfig sampling;
    sampling.unitRefs = 200;
    sampling.warmupRefs = 400;
    sampling.periodRefs = 2000;
    sampling.pilotUnits = 5;

    const std::string path = ::testing::TempDir() + "/stage_spans.json";
    telemetry::resetStages();
    ASSERT_TRUE(trace_event::beginSession(path));
    setParallelThreads(1);
    runGeoMeanMany(configs, {trace});
    EXPECT_EQ(stageCount("batch", "machines"), 6u);
    EXPECT_EQ(stageCount("batch", "followers"), 4u);
    // The stage table is written from the pool's workers from here.
    setParallelThreads(4);
    runGeoMeanMany(configs, traces);
    runMissRatioMany(configs, traces);
    TraceRefSource source(trace);
    runSmartsMany({configs[0], configs[1], physical}, source, sampling);
    ASSERT_TRUE(trace_event::endSession());

    std::stringstream text;
    {
        std::ifstream in(path);
        text << in.rdbuf();
    }
    std::remove(path.c_str());
    json_check::JsonValue events;
    std::string error;
    ASSERT_TRUE(json_check::parseJson(text.str(), &events, &error))
        << error;
    std::stringstream manifest_text;
    telemetry::writeManifest(manifest_text, telemetry::RunManifest{});
    json_check::JsonValue manifest;
    ASSERT_TRUE(
        json_check::parseJson(manifest_text.str(), &manifest, &error))
        << error;
    EXPECT_EQ(manifest.find("sweep"), nullptr);

    struct Stage
    {
        std::string name;
        double pid, tid, ts, end;
    };
    const std::set<std::string> stages{"simulate", "batch", "stack",
                                       "smarts-pass"};
    std::vector<Stage> spans;
    double opener = -1;
    for (const json_check::JsonValue &e :
         events.find("traceEvents")->items) {
        const std::string &name = e.find("name")->text;
        if (e.find("ph")->text == "M" && name == "thread_name" &&
            e.path("args.name")->text == "main")
            opener = e.find("tid")->number;
        if (e.find("ph")->text == "X" && stages.count(name)) {
            const double ts = e.find("ts")->number;
            spans.push_back({name, e.find("pid")->number,
                             e.find("tid")->number, ts,
                             ts + e.find("dur")->number});
        }
    }
    auto spansOf = [&](const std::string &name) {
        return static_cast<std::size_t>(std::count_if(
            spans.begin(), spans.end(),
            [&](const Stage &span) { return span.name == name; }));
    };
    for (const std::string &stage : stages) {
        const json_check::JsonValue *count =
            manifest.path("phases." + stage + ".count");
        ASSERT_NE(count, nullptr) << stage;
        EXPECT_GT(count->number, 0.0) << stage;
        EXPECT_EQ(count->number, static_cast<double>(spansOf(stage)))
            << stage;
    }
    EXPECT_EQ(spansOf("simulate"), 3u);
    EXPECT_EQ(spansOf("smarts-pass"), 1u);

    ASSERT_GE(opener, 0.0);
    std::size_t nested = 0;
    for (const Stage &span : spans) {
        EXPECT_EQ(span.pid, static_cast<double>(trace_event::Cat::Stage))
            << span.name;
        if (span.name != "batch" || span.tid != opener)
            continue;
        ++nested;
        EXPECT_TRUE(std::any_of(
            spans.begin(), spans.end(), [&](const Stage &query) {
                return query.name == "simulate" && query.tid == opener &&
                       query.ts <= span.ts && span.end <= query.end;
            }))
            << "batch at " << span.ts;
    }
    EXPECT_GE(nested, 2u); // at least the one-thread grid's two
}

/** Every field of two aggregates, compared bit for bit. */
void
expectSameMetrics(const AggregateMetrics &got,
                  const AggregateMetrics &want,
                  const std::string &context)
{
    EXPECT_EQ(got.readMissRatio, want.readMissRatio) << context;
    EXPECT_EQ(got.ifetchMissRatio, want.ifetchMissRatio) << context;
    EXPECT_EQ(got.loadMissRatio, want.loadMissRatio) << context;
    EXPECT_EQ(got.writeMissRatio, want.writeMissRatio) << context;
    EXPECT_EQ(got.cyclesPerRef, want.cyclesPerRef) << context;
    EXPECT_EQ(got.execNsPerRef, want.execNsPerRef) << context;
    EXPECT_EQ(got.readTrafficRatio, want.readTrafficRatio) << context;
    EXPECT_EQ(got.writeTrafficBlockRatio, want.writeTrafficBlockRatio)
        << context;
    EXPECT_EQ(got.writeTrafficWordRatio, want.writeTrafficWordRatio)
        << context;
}

/**
 * The grid query's runs: a grid of machines sharing a front end
 * (timing-only variants of the paper default), another L1
 * organization, two physical machines of one front end and a
 * coherent machine, over three traces (one longer than a span), at 1
 * and 4 threads.  Each runs[c * T + t] must equal the lone machine's
 * run, and each metrics[c] must equal, bit for bit, both
 * aggregateResults() over its runs and runGeoMeanMany()'s answer.
 */
TEST(SweepGrid, RunsMatchLoneMachines)
{
    ThreadGuard guard;
    SimCacheOff off;

    const SystemConfig base = SystemConfig::paperDefault();
    std::vector<SystemConfig> configs{base};
    configs.push_back(base);
    configs.back().cycleNs = 30.0;
    configs.push_back(base);
    configs.back().memory.readLatencyNs = 420.0;
    configs.push_back(base);
    configs.back().setL1SizeWordsEach(2 * base.dcache.sizeWords);
    SystemConfig physical = base;
    physical.addressing = AddressMode::Physical;
    physical.tlb.entries = 64;
    physical.tlb.assoc = 64;
    physical.tlb.pageWords = 1024;
    physical.tlb.missPenaltyCycles = 20;
    configs.push_back(physical);
    physical.tlb.missPenaltyCycles = 35;
    configs.push_back(physical);
    SystemConfig coherent = base;
    coherent.cores = 2;
    coherent.protocol = CoherenceProtocol::MESI;
    coherent.applyCoherenceDefaults();
    coherent.validate();
    configs.push_back(coherent);

    const std::vector<Trace> traces{
        longTrace(verify::generateCase(97701).trace),
        verify::generateCase(97702).trace,
        verify::generateCase(97703).trace};
    const std::size_t T = traces.size();

    telemetry::resetStages();
    for (unsigned threads : {1u, 4u}) {
        setParallelThreads(threads);
        const GridRuns grid = runGeoMeanGrid(configs, traces);
        const std::vector<AggregateMetrics> many =
            runGeoMeanMany(configs, traces);
        ASSERT_EQ(grid.metrics.size(), configs.size());
        ASSERT_EQ(grid.runs.size(), configs.size() * T);
        ASSERT_EQ(many.size(), configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const std::string context =
                "threads " + std::to_string(threads) + " config " +
                std::to_string(c) + " " + configs[c].describe();
            std::vector<std::shared_ptr<const SimResult>> slice;
            for (std::size_t t = 0; t < T; ++t) {
                const std::shared_ptr<const SimResult> &run =
                    grid.runs[c * T + t];
                ASSERT_NE(run, nullptr) << context;
                std::vector<verify::FieldDiff> diffs = verify::diffResults(
                    *run, simulateOne(configs[c], traces[t]));
                EXPECT_TRUE(diffs.empty())
                    << context << " trace " << t << "\n"
                    << verify::formatDiffs(diffs);
                slice.push_back(run);
            }
            expectSameMetrics(grid.metrics[c],
                              aggregateResults(configs[c], slice),
                              context + " vs aggregateResults");
            expectSameMetrics(grid.metrics[c], many[c],
                              context + " vs runGeoMeanMany");
        }
    }
    EXPECT_GT(stageCount("batch", "followers"), 0u);
}

} // namespace
} // namespace cachetime
