/**
 * @file
 * Property-based differential tests: fast path vs. oracle over the
 * randomized machine space, thread-count bit-identity, structural
 * invariants, and the repro/minimizer machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/sweep.hh"
#include "sim/coherent.hh"
#include "sim/system.hh"
#include "stats/interval.hh"
#include "stats/progress.hh"
#include "stats/trace_event.hh"
#include "trace/ref_source.hh"
#include "trace/trace_v2.hh"
#include "util/parallel.hh"
#include "verify/diff.hh"
#include "verify/fuzz.hh"
#include "verify/oracle.hh"

namespace cachetime
{
namespace
{

TEST(Differential, FuzzBatchAgrees)
{
    verify::FuzzOptions options;
    options.seed = 20001; // disjoint from the smoke target's range
    options.cases = 2500;
    options.reproDir = ::testing::TempDir();
    verify::FuzzReport report = verify::runFuzz(options);
    EXPECT_EQ(report.mismatches, 0u)
        << "seed " << report.firstBadSeed << "\n"
        << report.firstDiff << "repro: " << report.reproPath;
    EXPECT_EQ(report.casesRun, options.cases);
}

/** Serialize the fields diffResults() compares, for batch equality. */
std::string
fingerprint(const SimResult &result)
{
    SimResult zero;
    std::string print;
    for (const verify::FieldDiff &diff :
         verify::diffResults(result, zero)) {
        print += diff.field + "=" + diff.lhs + ";";
    }
    return print;
}

TEST(Differential, BitIdenticalAcrossThreadCounts)
{
    const std::size_t cases = 64;
    const std::uint64_t base_seed = 40001;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    auto run_batch = [&](unsigned threads) {
        setParallelThreads(threads);
        return parallelMap<std::string>(cases, [&](std::size_t i) {
            verify::FuzzCase fuzz_case =
                verify::generateCase(base_seed + i);
            System fast(fuzz_case.config);
            return fingerprint(fast.run(fuzz_case.trace));
        });
    };

    std::vector<std::string> one = run_batch(1);
    std::vector<std::string> eight = run_batch(8);

    setParallelThreads(0); // back to the environment default
    SimCache::global().setEnabled(cache_was_enabled);

    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(one[i], eight[i]) << "seed " << base_seed + i;
}

/**
 * The observability hard invariant: running with every time-resolved
 * instrument live — an interval collector slicing the stream, an
 * open trace-event session, and a progress meter bumped from every
 * pool worker — must not change a single simulated counter, at any
 * thread count.  The window width is co-prime with the chunk size so
 * interval cuts land at arbitrary stream offsets.
 */
TEST(Differential, InstrumentedRunsBitIdenticalAcrossThreadCounts)
{
    const std::size_t cases = 32;
    const std::uint64_t base_seed = 90001;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    std::vector<verify::FuzzCase> corpus;
    std::vector<std::string> plain;
    for (std::size_t i = 0; i < cases; ++i) {
        corpus.push_back(verify::generateCase(base_seed + i));
        System system(corpus[i].config);
        plain.push_back(fingerprint(system.run(corpus[i].trace)));
    }

    std::string trace_path =
        ::testing::TempDir() + "/instrumented_diff_trace.json";
    ProgressMeter meter;
    ASSERT_TRUE(meter.openSpec("/dev/null"));
    meter.setTotal(cases * 2, "cases");

    auto run_instrumented = [&](unsigned threads) {
        setParallelThreads(threads);
        return parallelMap<std::string>(cases, [&](std::size_t i) {
            IntervalCollector collector(97);
            System system(corpus[i].config);
            system.setIntervalCollector(&collector);
            SimResult result = system.run(corpus[i].trace);
            // The windows must still sum to the aggregate run.
            IntervalCounters sum;
            for (const IntervalRecord &record : collector.records())
                sum.add(record.c);
            EXPECT_EQ(sum.refs, result.refs);
            EXPECT_EQ(sum.cycles,
                      static_cast<std::uint64_t>(result.cycles));
            meter.bump(1);
            return fingerprint(result);
        });
    };

    ASSERT_TRUE(trace_event::beginSession(trace_path));
    std::vector<std::string> one = run_instrumented(1);
    std::vector<std::string> eight = run_instrumented(8);
    ASSERT_TRUE(trace_event::endSession());
    meter.finish();
    std::remove(trace_path.c_str());

    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);

    for (std::size_t i = 0; i < cases; ++i) {
        EXPECT_EQ(one[i], plain[i]) << "seed " << base_seed + i;
        EXPECT_EQ(eight[i], plain[i]) << "seed " << base_seed + i;
    }
}

/**
 * The streaming pipeline must reproduce the materialized path bit
 * for bit, at any thread count.  Each fuzz trace is written to a
 * format-v2 file and replayed through a per-task V2FileSource (the
 * sources are single-consumer, so every worker opens its own), then
 * compared against the in-memory run of the same case.
 */
TEST(Differential, StreamedBitIdenticalAcrossThreadCounts)
{
    const std::size_t cases = 24;
    const std::uint64_t base_seed = 80001;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    std::vector<verify::FuzzCase> corpus;
    std::vector<std::string> paths;
    std::vector<std::string> eager;
    for (std::size_t i = 0; i < cases; ++i) {
        corpus.push_back(verify::generateCase(base_seed + i));
        paths.push_back(::testing::TempDir() + "/stream_case_" +
                        std::to_string(i) + ".trace");
        writeV2(corpus[i].trace, paths[i]);
        System system(corpus[i].config);
        eager.push_back(fingerprint(system.run(corpus[i].trace)));
    }

    auto run_streamed = [&](unsigned threads) {
        setParallelThreads(threads);
        return parallelMap<std::string>(cases, [&](std::size_t i) {
            V2FileSource source(paths[i]);
            System system(corpus[i].config);
            return fingerprint(system.run(source));
        });
    };

    std::vector<std::string> one = run_streamed(1);
    std::vector<std::string> eight = run_streamed(8);

    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);

    for (std::size_t i = 0; i < cases; ++i) {
        EXPECT_EQ(one[i], eager[i]) << "seed " << base_seed + i;
        EXPECT_EQ(eight[i], eager[i]) << "seed " << base_seed + i;
        std::remove(paths[i].c_str());
    }
}

/**
 * The fused batch replays one trace decode across many machines;
 * every machine's result must be bit-identical to its own serial
 * run, whatever configs share the batch.
 */
TEST(Differential, FusedBatchMatchesSerialRuns)
{
    const std::size_t cases = 8;
    const std::uint64_t base_seed = 45001;
    std::vector<verify::FuzzCase> corpus;
    std::vector<SystemConfig> configs;
    for (std::size_t i = 0; i < cases; ++i) {
        corpus.push_back(verify::generateCase(base_seed + i));
        configs.push_back(corpus.back().config);
    }

    // Every trace against the full config batch: machines in a
    // batch need not have anything in common with the trace's
    // generating config.
    for (std::size_t t = 0; t < cases; ++t) {
        TraceRefSource source(corpus[t].trace);
        std::vector<SimResult> batch = simulateBatch(configs, source);
        ASSERT_EQ(batch.size(), configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            // The fuzzer draws coherent machines too; the serial
            // reference comes from the same factory as the batch's.
            SimResult expected =
                makeSimulator(configs[c])->run(corpus[t].trace);
            EXPECT_EQ(fingerprint(batch[c]), fingerprint(expected))
                << "trace seed " << base_seed + t << " config seed "
                << base_seed + c;
        }
    }
}

/**
 * A classic form of @p config with what the fuzzer never draws: a
 * victim cache on the D side and tagged prefetch on the I side (the
 * one L1 when unified).  A coherent config is a valid classic one
 * once its protocol is dropped.
 */
SystemConfig
withVictimsAndTaggedPrefetch(SystemConfig config)
{
    config.protocol = CoherenceProtocol::None;
    config.cores = 1;
    config.dcache.victimEntries = 2;
    (config.split ? config.icache : config.dcache).prefetchPolicy =
        PrefetchPolicy::Tagged;
    return config;
}

/**
 * A machine that has run must restart from its built state: a second
 * run on one machine equals a fresh machine's run, for both engines
 * (the coherent one once kept every core's L1 lines, its miss
 * classifiers and the shared L2 across runs).  A classic machine
 * resets its caches in place, so each seed adds a variant whose
 * reset must also clear victim slots and prefetch marks.
 */
TEST(Differential, ReusedMachineMatchesFresh)
{
    for (std::uint64_t seed = 47001; seed < 47021; ++seed) {
        verify::FuzzCase variant = verify::generateCase(seed);
        variant.config = withVictimsAndTaggedPrefetch(variant.config);
        ASSERT_FALSE(variant.config.coherent());
        for (const verify::FuzzCase &fuzz_case :
             {verify::generateCase(seed),
              verify::generateCoherentCase(seed), variant}) {
            std::unique_ptr<Simulator> reused =
                makeSimulator(fuzz_case.config);
            reused->run(fuzz_case.trace);
            SimResult again = reused->run(fuzz_case.trace);
            SimResult fresh =
                makeSimulator(fuzz_case.config)->run(fuzz_case.trace);
            std::vector<verify::FieldDiff> diffs =
                verify::diffResults(again, fresh);
            EXPECT_TRUE(diffs.empty())
                << "seed " << seed << " "
                << fuzz_case.config.describe() << "\n"
                << verify::formatDiffs(diffs);
        }
    }
}

/**
 * @return the first position at or after @p from where @p config's
 * L1s and TLB, fed @p refs from the start, answer the two references
 * before and the two after with plain hits: a cut there falls inside
 * a run of hit groups.  @p from when no such position follows.
 */
std::size_t
hitRunPosition(const SystemConfig &config, const std::vector<Ref> &refs,
               std::size_t from)
{
    const bool physical = config.addressing == AddressMode::Physical;
    CacheConfig ic = config.icache;
    CacheConfig dc = config.dcache;
    if (physical)
        ic.virtualTags = dc.virtualTags = false;
    Cache icache(ic);
    Cache dcache(dc);
    Tlb tlb(config.tlb);
    std::vector<bool> plain(refs.size());
    for (std::size_t p = 0; p < refs.size(); ++p) {
        const Ref &ref = refs[p];
        Addr addr = ref.addr;
        Pid pid = ref.pid;
        bool tlb_hit = true;
        if (physical) {
            Tlb::Translation t = tlb.translate(addr, pid);
            tlb_hit = t.hit;
            addr = t.paddr;
            pid = 0;
        }
        const bool store = ref.kind == RefKind::Store;
        Cache &cache =
            config.split && ref.kind == RefKind::IFetch ? icache : dcache;
        AccessOutcome outcome =
            store ? cache.write(addr, 1, pid) : cache.read(addr, 1, pid);
        plain[p] = tlb_hit && outcome.hit &&
                   !(store && dc.writePolicy == WritePolicy::WriteThrough);
    }
    for (std::size_t p = std::max<std::size_t>(from, 2); p + 2 < refs.size();
         ++p) {
        if (plain[p - 2] && plain[p - 1] && plain[p] && plain[p + 1])
            return p;
    }
    return from;
}

/**
 * Machines against the oracle over streams several spans long.  Fuzz
 * traces are a few hundred references, so no other oracle diff
 * crosses a span edge; here each of 40 oracle-supported fuzz
 * machines (early continuation forced on in half, physical
 * addressing in a fifth) runs its trace repeated past three spans,
 * with two warm segments whose edges cut runs of hit groups.  A lone
 * machine, a batch of the machine with its timing variants (one front
 * end, several back ends), and a lone machine reading the stream from
 * a CTTRACE2 file (which keeps the warm start, not the segments) must
 * each equal the oracle, at 1 and 4 threads.  This is what carries
 * busy horizons, stepping and measurement state across span edges.
 */
TEST(Differential, LongStreamsMatchOracle)
{
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);
    const std::string path =
        ::testing::TempDir() + "/long_stream_oracle.cttrace2";
    auto expect_oracle = [](const SimResult &got, const SimResult &want,
                            const std::string &context) {
        std::vector<verify::FieldDiff> diffs =
            verify::diffResults(got, want);
        EXPECT_TRUE(diffs.empty())
            << context << "\n" << verify::formatDiffs(diffs);
    };

    std::size_t cases = 0;
    for (std::uint64_t seed = 98001; cases < 40; ++seed) {
        SystemConfig config = verify::generateCase(seed).config;
        if (config.coherent() || !verify::oracleSupports(config))
            continue;
        const std::size_t i = cases++;
        config.cpu.earlyContinuation = i % 2 == 0;
        if (i % 5 == 0)
            config.addressing = AddressMode::Physical;

        const Trace &base = verify::generateCase(seed).trace;
        std::vector<Ref> refs;
        while (refs.size() <= 3 * refChunkSize)
            refs.insert(refs.end(), base.refs().begin(), base.refs().end());
        const Trace plain("long-" + std::to_string(seed), refs,
                          base.warmStart());
        Trace segmented = plain;
        std::size_t edges[4];
        std::size_t at = refChunkSize + refChunkSize / 5;
        for (std::size_t &edge : edges) {
            edge = hitRunPosition(config, refs, at);
            at = edge + refChunkSize / 3;
        }
        segmented.setWarmSegments(
            {{edges[0], edges[1]}, {edges[2], edges[3]}});
        writeV2(plain, path);

        std::vector<SystemConfig> batch{config};
        std::vector<SystemConfig> variants{config, config, config, config};
        variants[0].cycleNs = 2 * config.cycleNs;
        variants[1].memory.readLatencyNs += 120;
        variants[2].l1Buffer.depth += 2;
        variants[3].cpu.earlyContinuation = !config.cpu.earlyContinuation;
        if (config.addressing == AddressMode::Physical) {
            variants.push_back(config);
            variants.back().tlb.missPenaltyCycles += 7;
        }
        batch.insert(batch.end(), variants.begin(), variants.end());
        std::vector<SimResult> oracle;
        for (const SystemConfig &c : batch) {
            ASSERT_TRUE(frontEndKey(c) == frontEndKey(config));
            oracle.push_back(verify::oracleRun(c, segmented));
        }
        const SimResult oracle_plain = verify::oracleRun(config, plain);

        for (unsigned threads : {1u, 4u}) {
            setParallelThreads(threads);
            const std::string context = "seed " + std::to_string(seed) +
                                        " threads " +
                                        std::to_string(threads) + " " +
                                        config.describe();
            expect_oracle(makeSimulator(config)->run(segmented), oracle[0],
                          context + " lone");
            TraceRefSource source(segmented);
            std::vector<SimResult> got = simulateBatch(batch, source);
            ASSERT_EQ(got.size(), batch.size());
            for (std::size_t k = 0; k < batch.size(); ++k)
                expect_oracle(got[k], oracle[k],
                              context + " batch member " +
                                  std::to_string(k));
            V2FileSource file(path);
            expect_oracle(makeSimulator(config)->run(file), oracle_plain,
                          context + " CTTRACE2 file");
        }
    }
    std::remove(path.c_str());
    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);
}

/**
 * The batched sweep entry point must aggregate to the same doubles
 * at any thread count (the batch width depends on the pool size, so
 * this pins width-independence too).
 */
TEST(Differential, BatchedSweepBitIdenticalAcrossThreadCounts)
{
    const std::uint64_t base_seed = 46001;
    std::vector<SystemConfig> configs;
    std::vector<Trace> traces;
    for (std::size_t i = 0; i < 12; ++i)
        configs.push_back(
            verify::generateCase(base_seed + i).config);
    for (std::size_t t = 0; t < 3; ++t)
        traces.push_back(
            verify::generateCase(base_seed + 100 + t).trace);

    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    auto run_at = [&](unsigned threads) {
        setParallelThreads(threads);
        return runGeoMeanMany(configs, traces);
    };
    std::vector<AggregateMetrics> one = run_at(1);
    std::vector<AggregateMetrics> eight = run_at(8);

    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);

    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t c = 0; c < one.size(); ++c) {
        EXPECT_EQ(one[c].cyclesPerRef, eight[c].cyclesPerRef);
        EXPECT_EQ(one[c].execNsPerRef, eight[c].execNsPerRef);
        EXPECT_EQ(one[c].readMissRatio, eight[c].readMissRatio);
        EXPECT_EQ(one[c].ifetchMissRatio, eight[c].ifetchMissRatio);
        EXPECT_EQ(one[c].loadMissRatio, eight[c].loadMissRatio);
        EXPECT_EQ(one[c].writeMissRatio, eight[c].writeMissRatio);
        EXPECT_EQ(one[c].readTrafficRatio,
                  eight[c].readTrafficRatio);
        EXPECT_EQ(one[c].writeTrafficBlockRatio,
                  eight[c].writeTrafficBlockRatio);
        EXPECT_EQ(one[c].writeTrafficWordRatio,
                  eight[c].writeTrafficWordRatio);
    }
}

TEST(Differential, CycleConservation)
{
    for (std::uint64_t seed = 50001; seed < 50101; ++seed) {
        verify::FuzzCase fuzz_case = verify::generateCase(seed);
        if (fuzz_case.trace.warmStart() != 0)
            continue;
        SimResult result =
            verify::oracleRun(fuzz_case.config, fuzz_case.trace);
        // Every reference is measured and every group advances the
        // clock by at least one cycle.
        EXPECT_EQ(result.refs, fuzz_case.trace.size())
            << "seed " << seed;
        EXPECT_GE(result.cycles,
                  static_cast<Tick>(result.groups))
            << "seed " << seed;
        EXPECT_GE(result.stallReadCycles, 0) << "seed " << seed;
        EXPECT_GE(result.stallWriteCycles, 0) << "seed " << seed;
        EXPECT_GE(result.stallTlbCycles, 0) << "seed " << seed;
        // I and D service can overlap inside a couplet, so each
        // stall class alone is bounded by the wall clock it could
        // have occupied.
        EXPECT_LE(result.stallTlbCycles, 2 * result.cycles)
            << "seed " << seed;
    }
}

TEST(Differential, MissClassInclusion)
{
    for (std::uint64_t seed = 60001; seed < 60101; ++seed) {
        verify::FuzzCase fuzz_case = verify::generateCase(seed);
        SimResult result =
            verify::oracleRun(fuzz_case.config, fuzz_case.trace);
        std::vector<CacheStats> caches{result.icache, result.dcache};
        for (const CacheStats &stats : result.midLevels)
            caches.push_back(stats);
        for (const CacheStats &stats : caches) {
            EXPECT_LE(stats.readMisses, stats.readAccesses);
            EXPECT_LE(stats.writeMisses, stats.writeAccesses);
            EXPECT_LE(stats.subBlockMisses, stats.readMisses);
            EXPECT_LE(stats.dirtyBlocksReplaced,
                      stats.blocksReplaced);
        }
        std::vector<WriteBufferStats> buffers{result.l1Buffer};
        for (const WriteBufferStats &stats : result.midBuffers)
            buffers.push_back(stats);
        for (const WriteBufferStats &stats : buffers) {
            EXPECT_LE(stats.coalesced, stats.enqueued);
            // Entries still queued at the end of the run account
            // for retired falling short of enqueued; entries that
            // straddle the warm-start stats reset can push it the
            // other way, so only cold runs pin the inequality.
            if (fuzz_case.trace.warmStart() == 0) {
                EXPECT_LE(stats.retired,
                          stats.enqueued - stats.coalesced);
            }
        }
    }
}

/**
 * The LRU stack property: with full associativity and whole-block
 * fetches, a larger cache's contents always include a smaller
 * one's, so misses are monotone in capacity.
 */
TEST(Differential, MonotoneMissesUnderGrowingSize)
{
    for (std::uint64_t seed = 70001; seed < 70021; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        std::uint64_t prev_misses = ~0ull;
        for (std::uint64_t words : {64u, 128u, 256u, 512u, 1024u}) {
            SystemConfig config = SystemConfig::paperDefault();
            config.split = false;
            config.dcache.sizeWords = words;
            config.dcache.blockWords = 4;
            config.dcache.fetchWords = 0;
            config.dcache.assoc =
                static_cast<unsigned>(words / 4); // fully assoc
            config.dcache.replPolicy = ReplPolicy::LRU;
            config.dcache.allocPolicy = AllocPolicy::WriteAllocate;
            SimResult result =
                verify::oracleRun(config, trace);
            std::uint64_t misses = result.dcache.readMisses +
                                   result.dcache.writeMisses;
            EXPECT_LE(misses, prev_misses)
                << "seed " << seed << " size " << words;
            prev_misses = misses;
        }
    }
}

/**
 * Coherent mode vs. the reference oracle: 200 fuzzed multi-core
 * machines (random core counts, protocols, mapping policies and
 * sharing traces) must agree field for field.
 */
TEST(Differential, CoherentOracleAgrees)
{
    for (std::uint64_t seed = 55001; seed < 55201; ++seed) {
        verify::FuzzCase fuzz_case =
            verify::generateCoherentCase(seed);
        ASSERT_TRUE(fuzz_case.config.coherent()) << "seed " << seed;
        verify::CaseOutcome outcome = verify::checkCase(fuzz_case);
        EXPECT_FALSE(outcome.mismatch)
            << "seed " << seed << "\n"
            << verify::formatDiffs(outcome.diffs);
    }
}

/**
 * The determinism contract extends to multi-core machines: a
 * coherent run is a pure function of (config, trace), so worker
 * pools of different widths must produce bit-identical results —
 * including every coherence counter diffResults() covers.
 */
TEST(Differential, CoherentBitIdenticalAcrossThreadCounts)
{
    const std::size_t cases = 48;
    const std::uint64_t base_seed = 41001;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    auto run_batch = [&](unsigned threads) {
        setParallelThreads(threads);
        return parallelMap<std::string>(cases, [&](std::size_t i) {
            verify::FuzzCase fuzz_case =
                verify::generateCoherentCase(base_seed + i);
            CoherentSystem system(fuzz_case.config);
            return fingerprint(system.run(fuzz_case.trace));
        });
    };

    std::vector<std::string> one = run_batch(1);
    std::vector<std::string> eight = run_batch(8);

    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);

    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(one[i], eight[i]) << "seed " << base_seed + i;
}

/** The factory is the one place the engine is chosen. */
TEST(Differential, FactoryPicksEngineByCoherence)
{
    std::size_t coherent = 0;
    for (std::uint64_t seed = 42001; seed < 42041; ++seed) {
        SystemConfig config = verify::generateCase(seed).config;
        coherent += config.coherent();
        std::unique_ptr<Simulator> machine = makeSimulator(config);
        EXPECT_EQ(dynamic_cast<CoherentSystem *>(machine.get()) !=
                      nullptr,
                  config.coherent())
            << "seed " << seed;
        EXPECT_EQ(dynamic_cast<System *>(machine.get()) != nullptr,
                  !config.coherent())
            << "seed " << seed;
    }
    // The corpus exercises both engines.
    EXPECT_GT(coherent, 0u);
    EXPECT_LT(coherent, 40u);
}

/**
 * The one run loop serves the coherent engine too: a non-borrowing
 * source (a v2 file, delivered in trimmed fill() chunks) must give
 * the same coherent result as the resident trace's single span.
 */
TEST(Differential, CoherentStreamedMatchesEager)
{
    for (std::uint64_t seed = 43001; seed < 43007; ++seed) {
        verify::FuzzCase fuzz_case =
            verify::generateCoherentCase(seed);
        // Repeat the case's references so the stream spans several
        // fill() chunks.
        std::vector<Ref> refs;
        while (refs.size() < 3 * refChunkSize)
            refs.insert(refs.end(), fuzz_case.trace.refs().begin(),
                        fuzz_case.trace.refs().end());
        Trace trace(fuzz_case.trace.name(), std::move(refs),
                    fuzz_case.trace.warmStart());
        std::string path = ::testing::TempDir() + "/coherent_" +
                           std::to_string(seed) + ".trace";
        writeV2(trace, path);

        SimResult eager = makeSimulator(fuzz_case.config)->run(trace);
        V2FileSource source(path);
        SimResult streamed =
            makeSimulator(fuzz_case.config)->run(source);
        EXPECT_EQ(fingerprint(streamed), fingerprint(eager))
            << "seed " << seed;
        std::remove(path.c_str());
    }
}

/**
 * Structural invariants of the coherent timing model, on cold runs
 * where no counter was reset mid-stream: the bus can never be busy
 * longer than the run, every upgrade is a bus transaction, and the
 * miss taxonomy (now four classes) still decomposes the merged L1
 * misses exactly.  Upgrade and intervention cycles both happen
 * inside bus occupancy, so each is bounded by busBusyCycles alone
 * (they overlap; their sum is not a valid bound).
 */
TEST(Differential, CoherentCycleConservation)
{
    for (std::uint64_t seed = 57001; seed < 57101; ++seed) {
        verify::FuzzCase fuzz_case =
            verify::generateCoherentCase(seed);
        if (fuzz_case.trace.warmStart() != 0)
            continue;
        CoherentSystem system(fuzz_case.config);
        SimResult result = system.run(fuzz_case.trace);

        EXPECT_EQ(result.refs, fuzz_case.trace.size())
            << "seed " << seed;
        EXPECT_GE(result.cycles,
                  static_cast<Tick>(result.groups))
            << "seed " << seed;
        const CoherenceStats &coh = result.coherenceStats;
        EXPECT_LE(coh.busBusyCycles,
                  static_cast<std::uint64_t>(result.cycles))
            << "seed " << seed;
        EXPECT_LE(coh.upgrades, coh.busTransactions)
            << "seed " << seed;
        EXPECT_LE(coh.snoops, coh.busTransactions)
            << "seed " << seed;
        EXPECT_LE(coh.upgradeCycles, coh.busBusyCycles)
            << "seed " << seed;
        EXPECT_LE(coh.interventionCycles, coh.busBusyCycles)
            << "seed " << seed;

        std::uint64_t l1Misses = result.icache.readMisses +
                                 result.dcache.readMisses +
                                 result.dcache.writeMisses;
        EXPECT_EQ(result.missClasses.total(), l1Misses)
            << "seed " << seed;
        EXPECT_GE(result.stallReadCycles, 0) << "seed " << seed;
        EXPECT_GE(result.stallWriteCycles, 0) << "seed " << seed;
    }
}

TEST(Differential, ReproRoundTrip)
{
    verify::FuzzCase original = verify::generateCase(424242);
    std::string path =
        ::testing::TempDir() + "/roundtrip_repro.txt";
    verify::writeRepro(path, original, "round-trip test");
    verify::FuzzCase loaded = verify::loadRepro(path);

    EXPECT_EQ(loaded.seed, original.seed);
    EXPECT_EQ(loaded.trace.refs(), original.trace.refs());
    EXPECT_EQ(loaded.trace.warmStart(), original.trace.warmStart());

    // The loaded config must drive both simulators to the exact
    // run the original produced.
    System fast_original(original.config);
    System fast_loaded(loaded.config);
    SimResult a = fast_original.run(original.trace);
    SimResult b = fast_loaded.run(loaded.trace);
    EXPECT_TRUE(verify::diffResults(a, b).empty())
        << verify::formatDiffs(verify::diffResults(a, b));
    EXPECT_TRUE(
        verify::diffResults(
                   b, verify::oracleRun(loaded.config, loaded.trace))
            .empty());
    std::remove(path.c_str());
}

TEST(Differential, MinimizerKeepsPassingCaseIntact)
{
    verify::FuzzCase agreeing = verify::generateCase(777);
    ASSERT_FALSE(verify::checkCase(agreeing).mismatch);
    verify::FuzzCase shrunk = verify::minimizeCase(agreeing);
    // Nothing to shrink when there is no failure to preserve.
    EXPECT_EQ(shrunk.trace.refs().size(),
              agreeing.trace.refs().size());
}

} // namespace
} // namespace cachetime
