/**
 * @file
 * The single-pass stack kernel against brute force: every L1 miss
 * counter it produces must be bit-identical to a full per-config
 * simulation, across associativities, block sizes, write-allocation
 * policies, PID-fused tags, warm starts and warm segments - and
 * runMissRatioMany's aggregated doubles must equal runGeoMeanMany's
 * exactly, whichever engine each grid point rode.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/stack_sim.hh"
#include "core/sweep.hh"
#include "json_check.hh"
#include "stats/telemetry.hh"
#include "stats/trace_event.hh"
#include "util/parallel.hh"
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

/** The counters the stack kernel claims exact; fail with context. */
void
expectCountersEqual(const SimResult &stack, const SimResult &full,
                    const std::string &context)
{
    EXPECT_EQ(stack.refs, full.refs) << context;
    EXPECT_EQ(stack.readRefs, full.readRefs) << context;
    EXPECT_EQ(stack.writeRefs, full.writeRefs) << context;
    EXPECT_EQ(stack.groups, full.groups) << context;
    EXPECT_EQ(stack.icache.readAccesses, full.icache.readAccesses)
        << context;
    EXPECT_EQ(stack.icache.readMisses, full.icache.readMisses)
        << context;
    EXPECT_EQ(stack.dcache.readAccesses, full.dcache.readAccesses)
        << context;
    EXPECT_EQ(stack.dcache.readMisses, full.dcache.readMisses)
        << context;
    EXPECT_EQ(stack.dcache.writeAccesses, full.dcache.writeAccesses)
        << context;
    EXPECT_EQ(stack.dcache.writeMisses, full.dcache.writeMisses)
        << context;
}

void
sweepAndCompare(const std::vector<SystemConfig> &configs,
                const Trace &trace, std::uint64_t seed)
{
    TraceRefSource source(trace);
    std::vector<SimResult> swept = runStackSweep(configs, source);
    ASSERT_EQ(swept.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SimResult full = simulateOne(configs[c], trace);
        expectCountersEqual(swept[c], full,
                            "seed " + std::to_string(seed) +
                                " config " +
                                configs[c].describe());
    }
}

TEST(StackSim, EligibilityGate)
{
    SystemConfig config = SystemConfig::paperDefault();
    EXPECT_TRUE(stackEligible(config)); // direct-mapped baseline

    SystemConfig physical = config;
    physical.addressing = AddressMode::Physical;
    EXPECT_FALSE(stackEligible(physical));

    SystemConfig prefetch = config;
    prefetch.icache.prefetchPolicy = PrefetchPolicy::OnMiss;
    EXPECT_FALSE(stackEligible(prefetch));

    SystemConfig victim = config;
    victim.dcache.victimEntries = 4;
    EXPECT_FALSE(stackEligible(victim));

    SystemConfig subblock = config;
    subblock.setL1BlockWords(8);
    subblock.dcache.fetchWords = 4;
    EXPECT_FALSE(stackEligible(subblock));

    SystemConfig lru = config;
    lru.setL1Assoc(4);
    lru.icache.replPolicy = ReplPolicy::LRU;
    lru.dcache.replPolicy = ReplPolicy::LRU;
    EXPECT_TRUE(stackEligible(lru));

    SystemConfig random = config;
    random.setL1Assoc(2);
    random.icache.replPolicy = ReplPolicy::Random;
    random.dcache.replPolicy = ReplPolicy::Random;
    EXPECT_FALSE(stackEligible(random));

    // Direct-mapped: every replacement policy is the same machine.
    SystemConfig fifo = config;
    fifo.dcache.replPolicy = ReplPolicy::FIFO;
    EXPECT_TRUE(stackEligible(fifo));
}

/**
 * Unified machines: one pass over each fuzz trace must reproduce
 * brute force for a grid crossing size, associativity, block size
 * and both write-allocation policies - the no-write-allocate points
 * are the ones a classic single-stack simulator gets wrong.
 */
TEST(StackSim, UnifiedMatchesBruteForce)
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
    // Shared-tag (no PID in the tag) points, exercising pidMask = 0.
    configs.push_back(
        unifiedConfig(256, 4, 1, AllocPolicy::NoWriteAllocate,
                      false));
    configs.push_back(
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, false));

    for (std::uint64_t seed = 90001; seed < 90021; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        sweepAndCompare(configs, trace, seed);
    }
}

/**
 * Split machines, with and without paired issue, over a size x
 * associativity lattice whose depths 1-8 share set counts: one pass
 * holds plain-LRU I-side and write-allocate layers beside
 * no-write-allocate D-side layers carrying a-stars.
 */
TEST(StackSim, SplitMatchesBruteForce)
{
    for (bool pair : {false, true}) {
        std::vector<SystemConfig> configs;
        for (std::uint64_t words : {256u, 1024u}) {
            for (unsigned assoc : {1u, 2u, 4u, 8u}) {
                configs.push_back(splitConfig(
                    words, 4, assoc, AllocPolicy::NoWriteAllocate,
                    pair));
                configs.push_back(splitConfig(
                    words, 8, assoc, AllocPolicy::WriteAllocate,
                    pair));
            }
        }
        for (std::uint64_t seed = 91001; seed < 91011; ++seed) {
            Trace trace = verify::generateCase(seed).trace;
            sweepAndCompare(configs, trace, seed);
        }
    }
}

/**
 * Fully-associative deep stacks: associativity equal to the block
 * count exercises the cascade all the way to the deletion case.
 */
TEST(StackSim, FullyAssociativeMatchesBruteForce)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words : {64u, 128u}) {
        configs.push_back(unifiedConfig(
            words, 4, static_cast<unsigned>(words / 4),
            AllocPolicy::WriteAllocate, true));
        configs.push_back(unifiedConfig(
            words, 4, static_cast<unsigned>(words / 4),
            AllocPolicy::NoWriteAllocate, true));
    }
    for (std::uint64_t seed = 92001; seed < 92011; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        sweepAndCompare(configs, trace, seed);
    }
}

/**
 * Warm-start boundaries and mid-trace warm segments gate the
 * histograms exactly as they gate System's stats: state always
 * advances, only measured accesses are counted.
 */
TEST(StackSim, WarmSegmentsMatchBruteForce)
{
    std::vector<SystemConfig> configs{
        unifiedConfig(128, 4, 1, AllocPolicy::NoWriteAllocate, true),
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, true),
        unifiedConfig(512, 8, 4, AllocPolicy::NoWriteAllocate,
                      true)};
    for (std::uint64_t seed = 93001; seed < 93021; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        if (trace.size() < 40)
            continue;
        std::size_t warm = trace.size() / 8;
        Trace warmed(trace.name(), trace.refs(), warm);
        std::size_t third = trace.size() / 3;
        warmed.setWarmSegments(
            {{third, third + trace.size() / 10 + 1},
             {2 * third, 2 * third + trace.size() / 12 + 1}});
        sweepAndCompare(configs, warmed, seed);
    }
}

/**
 * Word addresses past 2^48 overflow every layer's fused
 * (block << 16 | pid) key.  Two loads whose block addresses differ
 * only in bit 60 share a set of a 1K-word cache, so alternating them
 * misses every time direct-mapped and only twice at 4 ways (both
 * row kinds: a-stars under no-write-allocate, plain LRU under
 * write-allocate); both the serial and the sharded kernel, and the
 * miss-ratio front end, must say so.
 */
TEST(StackSim, WideAddressesDoNotAlias)
{
    const std::vector<SystemConfig> configs{
        unifiedConfig(1024, 4, 1, AllocPolicy::NoWriteAllocate, true),
        unifiedConfig(1024, 4, 4, AllocPolicy::NoWriteAllocate, true),
        unifiedConfig(1024, 4, 4, AllocPolicy::WriteAllocate, true)};
    const Addr low = 0x40;
    const Addr high = low | (Addr{1} << 62); // block bit 60
    std::vector<Ref> refs;
    for (int i = 0; i < 1000; ++i) {
        refs.push_back({low, RefKind::Load, 0});
        refs.push_back({high, RefKind::Load, 0});
    }
    Trace trace("wide", std::move(refs), 0);
    ASSERT_EQ(simulateOne(configs[0], trace).dcache.readMisses, 2000u);
    ASSERT_EQ(simulateOne(configs[1], trace).dcache.readMisses, 2u);

    for (unsigned threads : {1u, 4u}) {
        setParallelThreads(threads);
        sweepAndCompare(configs, trace, threads);
        std::vector<MissRatioMetrics> ratios =
            runMissRatioMany(configs, {trace});
        EXPECT_EQ(ratios[0].loadMissRatio, 1.0)
            << threads << " threads";
        EXPECT_DOUBLE_EQ(ratios[1].loadMissRatio, 2.0 / 2000.0)
            << threads << " threads";
        EXPECT_DOUBLE_EQ(ratios[2].loadMissRatio, 2.0 / 2000.0)
            << threads << " threads";
    }
    setParallelThreads(0);
}

/**
 * A stream too wide for the fused keys is re-answered by
 * simulateBatch in bounded passes: eleven direct-mapped sizes over
 * the wide stream of WideAddressesDoNotAlias run as 2 "batch" passes
 * of at most BatchOptions::maxBatch machines, read from each pass's
 * trace event, and every point equals its lone machine's result.
 */
TEST(StackSim, WideFallbackStaysBounded)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words = 256; configs.size() < 11; words *= 2)
        configs.push_back(unifiedConfig(
            words, 4, 1, AllocPolicy::NoWriteAllocate, true));
    const Addr low = 0x40;
    const Addr high = low | (Addr{1} << 62); // block bit 60
    std::vector<Ref> refs;
    for (int i = 0; i < 1000; ++i) {
        refs.push_back({low, RefKind::Load, 0});
        refs.push_back({high, RefKind::Load, 0});
    }
    const Trace trace("wide", std::move(refs), 0);

    const std::string path =
        ::testing::TempDir() + "/wide_fallback_trace.json";
    ASSERT_TRUE(trace_event::beginSession(path));
    TraceRefSource source(trace);
    const std::vector<SimResult> results = runStackSweep(configs, source);
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
    std::size_t passes = 0;
    double machines = 0;
    for (const json_check::JsonValue &e :
         events.find("traceEvents")->items) {
        if (e.find("ph")->text != "X" || e.find("name")->text != "batch")
            continue;
        const json_check::JsonValue *count = e.path("args.machines");
        ASSERT_NE(count, nullptr);
        EXPECT_LE(count->number,
                  static_cast<double>(BatchOptions::maxBatch));
        machines += count->number;
        ++passes;
    }
    EXPECT_EQ(passes, 2u);
    EXPECT_EQ(machines, static_cast<double>(configs.size()));

    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<verify::FieldDiff> diffs =
            verify::diffResults(results[c], simulateOne(configs[c], trace));
        EXPECT_TRUE(diffs.empty()) << configs[c].describe() << "\n"
                                   << verify::formatDiffs(diffs);
    }
}

/**
 * A grid mixing stack-eligible points of two issue shapes with
 * fused-lattice fallbacks (random-replacement set-associative).
 */
std::vector<SystemConfig>
mixedGrid()
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

        SystemConfig unified = direct;
        unified.split = false;
        configs.push_back(unified); // eligible, second shape
    }
    return configs;
}

/** The fuzzer's traces for @p count consecutive seeds. */
std::vector<Trace>
fuzzTraces(std::uint64_t first_seed, std::size_t count)
{
    std::vector<Trace> traces;
    for (std::uint64_t seed = first_seed; seed < first_seed + count;
         ++seed)
        traces.push_back(verify::generateCase(seed).trace);
    return traces;
}

/** The four miss ratios of @p fast equal @p reference's, exactly. */
void
expectSameMissRatios(const std::vector<MissRatioMetrics> &fast,
                     const std::vector<AggregateMetrics> &reference,
                     const std::vector<SystemConfig> &configs)
{
    ASSERT_EQ(fast.size(), reference.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        EXPECT_EQ(fast[c].readMissRatio, reference[c].readMissRatio)
            << configs[c].describe();
        EXPECT_EQ(fast[c].ifetchMissRatio,
                  reference[c].ifetchMissRatio)
            << configs[c].describe();
        EXPECT_EQ(fast[c].loadMissRatio, reference[c].loadMissRatio)
            << configs[c].describe();
        EXPECT_EQ(fast[c].writeMissRatio,
                  reference[c].writeMissRatio)
            << configs[c].describe();
    }
}

/**
 * The mode-selecting front end: a grid mixing stack-eligible points
 * with fused-lattice fallbacks must aggregate to exactly
 * runGeoMeanMany's doubles.
 */
TEST(StackSim, MissRatioManyMatchesGeoMeanMany)
{
    std::vector<SystemConfig> configs = mixedGrid();
    std::vector<Trace> traces = fuzzTraces(94001, 4);

    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);
    std::vector<MissRatioMetrics> fast =
        runMissRatioMany(configs, traces);
    std::vector<AggregateMetrics> reference =
        runGeoMeanMany(configs, traces);
    SimCache::global().setEnabled(cache_was_enabled);

    expectSameMissRatios(fast, reference, configs);
}

/**
 * Full timing results answer a later miss-ratio query over the same
 * grid, stack points and fused points alike: one SimCache hit per
 * (config, trace), no new miss, and exactly the timing query's
 * ratios.
 */
TEST(StackSim, FullResultsAnswerMissRatioQueries)
{
    std::vector<SystemConfig> configs = mixedGrid();
    std::vector<Trace> traces = fuzzTraces(96001, 3);

    SimCache &cache = SimCache::global();
    bool cache_was_enabled = cache.enabled();
    cache.setEnabled(true);
    cache.clear();

    std::vector<AggregateMetrics> timed =
        runGeoMeanMany(configs, traces);
    const std::uint64_t hits = cache.hits();
    const std::uint64_t misses = cache.misses();
    std::vector<MissRatioMetrics> ratios =
        runMissRatioMany(configs, traces);
    EXPECT_EQ(cache.hits() - hits, configs.size() * traces.size());
    EXPECT_EQ(cache.misses(), misses);
    expectSameMissRatios(ratios, timed, configs);

    cache.clear();
    cache.setEnabled(cache_was_enabled);
}

/** A miss-ratio query is timed in the manifest's "simulate" stage. */
TEST(StackSim, MissRatioQueryRecordsSimulatePhase)
{
    telemetry::resetStages();
    runMissRatioMany({SystemConfig::paperDefault()}, fuzzTraces(97001, 1));
    std::uint64_t count = 0;
    for (const telemetry::StageRecord &stage : telemetry::stages()) {
        if (stage.name == "simulate")
            count = stage.count;
    }
    EXPECT_EQ(count, 1u);
}

/**
 * Memoization keys: a stack sweep's partial result must never
 * satisfy a full cycle-accurate lookup, while a full result does
 * satisfy a later miss-ratio query.
 */
TEST(StackSim, PartialResultsStayPartial)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(512);
    Trace trace = verify::generateCase(95001).trace;
    std::vector<Trace> traces{trace};
    std::vector<SystemConfig> configs{config};

    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(true);
    SimCache::global().clear();

    // Stack first: the full key must stay vacant...
    runMissRatioMany(configs, traces);
    SimKey full_key = simKey(config, traceIdentityHash(trace));
    EXPECT_EQ(SimCache::global().find(full_key), nullptr);

    // ...so the timing run still simulates, and its (cached) cycles
    // are real rather than a partial result's zeros.
    AggregateMetrics timed = runGeoMean(config, traces);
    if (trace.warmStart() < trace.size()) {
        EXPECT_GT(timed.cyclesPerRef, 0.0);
    }
    EXPECT_NE(SimCache::global().find(full_key), nullptr);

    SimCache::global().clear();
    SimCache::global().setEnabled(cache_was_enabled);
}

} // namespace
} // namespace cachetime
