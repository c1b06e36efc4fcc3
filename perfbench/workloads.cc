/**
 * @file
 * The four benchmark workloads.  Each one stresses a different set
 * of layers (perfbench/README.md has the full layer-to-metric map):
 *
 *  - missratio-grid: the single-pass stack kernel (runMissRatioMany
 *    over an all-LRU size x associativity lattice);
 *  - exectime-grid: the fused timing lattice (runGeoMeanMany over the
 *    Figure 3-3 speed-size grid);
 *  - stream-sampled: CTTRACE2 decode, the pipelined feeder, content
 *    hashing and SMARTS sampling over one long file-backed workload;
 *  - coherent-sharing: CoherentSystem and its protocol state
 *    machines.
 *
 * Every workload draws its traces from the Table 1 generator; the
 * benchmark seed varies the reference streams but not the working-set
 * sizes (see seededSource()).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cache/coherence.hh"
#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/smarts.hh"
#include "core/stack_sim.hh"
#include "core/sweep.hh"
#include "perfbench.hh"
#include "trace/interleave.hh"
#include "trace/ref_source.hh"
#include "trace/trace_v2.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace perfbench
{

using namespace cachetime;

namespace
{

/** Trace scales, chosen so a run fits many queries (0.2 - 2 s each). */
constexpr double gridScale = 0.1;
constexpr double streamScale = 1.0;
constexpr double sharingScale = 0.2;

using SimResultPtr = std::shared_ptr<const SimResult>;

/**
 * The Table 1 generator (generate() in trace/workloads.cc) with the
 * benchmark seed split from the footprints.  Process footprints keep
 * the jitter drawn from the spec's own seed, so every benchmark seed
 * has the same working-set sizes - and so the same simulation cost
 * and memory - while the benchmark seed drives every process's
 * reference stream and the interleaving.
 */
std::unique_ptr<InterleaveSource>
seededSource(const WorkloadSpec &spec, std::uint64_t seed, double scale)
{
    Rng footprints(spec.seed * 0x9e3779b97f4a7c15ULL + 0xc0ffee);
    Rng streams(mix64(spec.seed ^ mix64(seed)));
    std::vector<ProcessModel> processes;
    for (unsigned p = 0; p < spec.processes; ++p) {
        ProcessProfile profile = spec.risc ? ProcessProfile::riscProfile()
                                           : ProcessProfile::vaxProfile();
        double f = spec.footprintScale *
                   std::exp(std::log(0.125) +
                            footprints.uniform() * std::log(32.0));
        profile.codeWords = std::max<std::uint64_t>(
            256, static_cast<std::uint64_t>(profile.codeWords * f));
        profile.dataWords = std::max<std::uint64_t>(
            256, static_cast<std::uint64_t>(profile.dataWords * f));
        profile.sharedFraction = spec.sharedFraction;
        profile.sharedWords = spec.sharedWords;
        if (spec.zeroingProcs > 0 &&
            p >= spec.processes - spec.zeroingProcs)
            profile.zeroingWords = profile.dataWords;
        processes.emplace_back(profile, static_cast<Pid>(p + 1),
                               streams.next());
    }
    InterleaveConfig cfg;
    cfg.lengthRefs = static_cast<std::size_t>(spec.lengthRefs * scale);
    cfg.meanSliceRefs = 20'000;
    cfg.seed = streams.next();
    cfg.prefixSampleRefs =
        static_cast<std::size_t>(spec.lengthRefs * scale / 4);
    cfg.warmStartRefs =
        static_cast<std::size_t>(spec.warmStartRefs * scale);
    return std::make_unique<InterleaveSource>(spec.name,
                                              std::move(processes), cfg);
}

/**
 * Generate @p specs on the pool and hash each trace in the same task,
 * so the identity hashes are paid in set-up, never in a query.
 */
std::vector<Trace>
generateHashed(const std::vector<WorkloadSpec> &specs, std::uint64_t seed,
               double scale, SpanLog *log)
{
    return parallelMap<Trace>(specs.size(), [&](std::size_t i) {
        Trace trace = timed(log, "trace.generate", [&] {
            return materialize(*seededSource(specs[i], seed, scale));
        });
        timed(log, "trace.content_hash",
              [&] { return traceIdentityHash(trace); });
        return trace;
    });
}

double
totalRefs(const std::vector<Trace> &traces)
{
    double refs = 0.0;
    for (const Trace &trace : traces)
        refs += static_cast<double>(trace.size());
    return refs;
}

/** L1 size axis of Figures 3-1 and 3-3: 2KB .. 2MB each, in words. */
std::vector<std::uint64_t>
sizeAxisWords()
{
    std::vector<std::uint64_t> sizes;
    for (unsigned k = 1; k <= 11; ++k)
        sizes.push_back((std::uint64_t{1} << k) * 1024 / 4);
    return sizes;
}

/** @return @p config as a coherent machine (MESI, @p cores cores). */
SystemConfig
coherentVariant(SystemConfig config, unsigned cores,
                CoherenceProtocol protocol = CoherenceProtocol::MESI)
{
    config.cores = cores;
    config.protocol = protocol;
    config.applyCoherenceDefaults();
    config.validate();
    return config;
}

/** The four miss ratios, aggregated exactly as runMissRatioMany does. */
std::vector<double>
missRatios(const std::vector<const SimResult *> &per_trace)
{
    std::vector<double> rmiss, imiss, lmiss, wmiss;
    for (const SimResult *r : per_trace) {
        rmiss.push_back(r->readMissRatio());
        imiss.push_back(r->ifetchMissRatio());
        lmiss.push_back(r->loadMissRatio());
        wmiss.push_back(r->dcache.writeMissRatio());
    }
    return {geoMeanFloored(std::move(rmiss)),
            geoMeanFloored(std::move(imiss)),
            geoMeanFloored(std::move(lmiss)),
            geoMeanFloored(std::move(wmiss))};
}

std::vector<double>
aggregateFields(const AggregateMetrics &m)
{
    return {m.cyclesPerRef,       m.execNsPerRef,
            m.readMissRatio,      m.ifetchMissRatio,
            m.loadMissRatio,      m.writeMissRatio,
            m.readTrafficRatio,   m.writeTrafficBlockRatio,
            m.writeTrafficWordRatio};
}

/** Digest of everything a sampled run reports. */
std::uint64_t
digestSmarts(const SmartsRunResult &run)
{
    std::vector<double> v{
        run.estimate.cpi.mean,
        run.estimate.cpi.halfWidth,
        run.estimate.readMissRatio.mean,
        run.estimate.readMissRatio.halfWidth,
        static_cast<double>(run.pilotCount),
        static_cast<double>(run.tunedUnits),
        static_cast<double>(run.selectedCount),
        static_cast<double>(run.simulatedRefs)};
    for (const SmartsUnitResult &unit : run.units) {
        v.push_back(static_cast<double>(unit.beginRef));
        v.push_back(static_cast<double>(unit.refs));
        v.push_back(static_cast<double>(unit.cycles));
    }
    return digestDoubles(v);
}

/** @return true when the digests match; else fill @p why. */
bool
sameDigest(std::uint64_t got, std::uint64_t want, std::string *why)
{
    if (got == want)
        return true;
    char buf[96];
    std::snprintf(buf, sizeof buf, "digest %016llx, reference %016llx",
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    *why = buf;
    return false;
}

// --- missratio-grid -------------------------------------------------

class MissRatioGrid : public Workload
{
  public:
    explicit MissRatioGrid(double scale) : scale_(gridScale * scale)
    {
        SystemConfig base = SystemConfig::paperDefault();
        base.icache.replPolicy = ReplPolicy::LRU;
        base.dcache.replPolicy = ReplPolicy::LRU;
        for (std::uint64_t words : sizeAxisWords()) {
            for (unsigned assoc : {1u, 2u, 4u, 8u}) {
                SystemConfig config = base;
                config.setL1SizeWordsEach(words);
                config.setL1Assoc(assoc);
                config.validate();
                // The workload exists to time the stack kernel: a
                // point the fused lattice would answer instead
                // changes what is measured.
                if (!stackEligible(config))
                    fatal("missratio-grid: %s is not stack-eligible",
                          config.describe().c_str());
                configs_.push_back(config);
            }
        }
    }

    std::string name() const override { return "missratio-grid"; }
    std::size_t points() const override { return configs_.size(); }

    double
    setup(std::uint64_t seed, SpanLog *log) override
    {
        traces_ = generateHashed(table1Workloads(), seed, scale_, log);
        return totalRefs(traces_);
    }

    void release() override { traces_ = {}; }

    QueryOutput
    query() override
    {
        std::vector<MissRatioMetrics> m =
            runMissRatioMany(configs_, traces_);
        ratios_.clear();
        for (const MissRatioMetrics &p : m)
            ratios_.push_back({p.readMissRatio, p.ifetchMissRatio,
                               p.loadMissRatio, p.writeMissRatio});
        return output();
    }

    QueryOutput
    tracedQuery(SpanLog &log, QueryWork &work) override
    {
        const std::size_t T = traces_.size();
        work.stackRefs = totalRefs(traces_);
        work.stackPoints = configs_.size();
        work.shardBits = stackShardBits(configs_);

        // runMissRatioMany's shape: one stack pass per trace, spread
        // over the pool; every config shares one issue shape.
        auto per_trace = parallelMap<std::vector<SimResult>>(
            T, [&](std::size_t t) {
                return log.time("core.stack_sweep", [&] {
                    TraceRefSource source(traces_[t]);
                    return runStackSweep(configs_, source);
                });
            });
        log.time("core.aggregate", [&] {
            ratios_.clear();
            for (std::size_t c = 0; c < configs_.size(); ++c) {
                std::vector<const SimResult *> slice;
                for (std::size_t t = 0; t < T; ++t)
                    slice.push_back(&per_trace[t][c]);
                ratios_.push_back(missRatios(slice));
            }
        });
        return output();
    }

    bool
    spotCheck(std::size_t index, std::string *why) override
    {
        auto results = parallelMap<SimResult>(
            traces_.size(), [&](std::size_t t) {
                return simulateOne(configs_[index], traces_[t]);
            });
        std::vector<const SimResult *> slice;
        for (const SimResult &r : results)
            slice.push_back(&r);
        return sameDigest(digestDoubles(ratios_[index]),
                          digestDoubles(missRatios(slice)), why);
    }

    LayerInputs
    layerInputs() override
    {
        const SystemConfig &mid = configs_[configs_.size() / 2];
        return {&traces_[0], mid, coherentVariant(mid, 2)};
    }

  private:
    QueryOutput
    output() const
    {
        QueryOutput out;
        for (const std::vector<double> &r : ratios_)
            out.digests.push_back(digestDoubles(r));
        return out;
    }

    double scale_;
    std::vector<SystemConfig> configs_;
    std::vector<Trace> traces_;
    std::vector<std::vector<double>> ratios_; ///< last query's output
};

// --- exectime-grid --------------------------------------------------

class ExecTimeGrid : public Workload
{
  public:
    explicit ExecTimeGrid(double scale) : scale_(gridScale * scale)
    {
        SystemConfig base = SystemConfig::paperDefault();
        for (std::uint64_t words : sizeAxisWords()) {
            SystemConfig config = base;
            config.setL1SizeWordsEach(words);
            // Figure 3-3's cycle-time axis, 20..80ns, at 20ns steps.
            for (double cycle : {20.0, 40.0, 60.0, 80.0}) {
                config.cycleNs = cycle;
                configs_.push_back(config);
            }
        }
    }

    std::string name() const override { return "exectime-grid"; }
    std::size_t points() const override { return configs_.size(); }

    double
    setup(std::uint64_t seed, SpanLog *log) override
    {
        traces_ = generateHashed(table1Workloads(), seed, scale_, log);
        return totalRefs(traces_);
    }

    void release() override { traces_ = {}; }

    QueryOutput
    query() override
    {
        metrics_ = runGeoMeanMany(configs_, traces_);
        return output();
    }

    QueryOutput
    tracedQuery(SpanLog &log, QueryWork &work) override
    {
        const std::size_t T = traces_.size();
        const std::size_t C = configs_.size();
        work.batchRefPoints = totalRefs(traces_) * static_cast<double>(C);
        work.fusedPoints = C;

        // runGeoMeanMany's task shape: config groups of `width`
        // fused per trace pass, all (group, trace) pairs on the pool.
        BatchOptions options;
        const std::size_t threads = std::max(parallelThreads(), 1u);
        const std::size_t width = std::min(
            {options.maxBatch,
             std::max<std::size_t>(1, C * T / (2 * threads)), C});
        const std::size_t groups = (C + width - 1) / width;
        auto batches = parallelMap<std::vector<SimResultPtr>>(
            groups * T, [&](std::size_t task) {
                std::size_t begin = task / T * width;
                std::size_t end = std::min(C, begin + width);
                std::vector<SystemConfig> part(
                    configs_.begin() + static_cast<std::ptrdiff_t>(begin),
                    configs_.begin() + static_cast<std::ptrdiff_t>(end));
                return log.time("core.batch", [&] {
                    TraceRefSource source(traces_[task % T]);
                    return simulateSourceCachedMany(part, source,
                                                    options);
                });
            });
        log.time("core.aggregate", [&] {
            metrics_.clear();
            for (std::size_t c = 0; c < C; ++c) {
                std::vector<SimResultPtr> slice;
                for (std::size_t t = 0; t < T; ++t)
                    slice.push_back(batches[c / width * T + t][c % width]);
                metrics_.push_back(aggregateResults(configs_[c], slice));
            }
        });
        return output();
    }

    bool
    spotCheck(std::size_t index, std::string *why) override
    {
        auto results = parallelMap<SimResultPtr>(
            traces_.size(), [&](std::size_t t) -> SimResultPtr {
                return std::make_shared<const SimResult>(
                    simulateOne(configs_[index], traces_[t]));
            });
        return sameDigest(
            digestDoubles(aggregateFields(metrics_[index])),
            digestDoubles(aggregateFields(
                aggregateResults(configs_[index], results))),
            why);
    }

    LayerInputs
    layerInputs() override
    {
        const SystemConfig &mid = configs_[configs_.size() / 2];
        return {&traces_[0], mid, coherentVariant(mid, 2)};
    }

  private:
    QueryOutput
    output() const
    {
        QueryOutput out;
        for (const AggregateMetrics &m : metrics_)
            out.digests.push_back(digestDoubles(aggregateFields(m)));
        return out;
    }

    double scale_;
    std::vector<SystemConfig> configs_;
    std::vector<Trace> traces_;
    std::vector<AggregateMetrics> metrics_; ///< last query's output
};

// --- stream-sampled -------------------------------------------------

class StreamSampled : public Workload
{
  public:
    StreamSampled(const std::string &workdir, double scale)
        : scale_(streamScale * scale), path_(workdir + "/mu6.cttrace2")
    {
        for (std::uint64_t words : {2048u, 8192u, 32768u}) {
            for (double cycle : {30.0, 60.0}) {
                SystemConfig config = SystemConfig::paperDefault();
                config.setL1SizeWordsEach(words);
                config.cycleNs = cycle;
                configs_.push_back(config);
            }
        }
    }

    ~StreamSampled() override { std::remove(path_.c_str()); }

    StreamSampled(const StreamSampled &) = delete;
    StreamSampled &operator=(const StreamSampled &) = delete;

    std::string name() const override { return "stream-sampled"; }
    bool usesFeeder() const override { return true; }
    std::size_t points() const override { return 2 * configs_.size(); }

    double
    setup(std::uint64_t seed, SpanLog *log) override
    {
        // Table 1's longest VAX multiprogramming mix, streamed straight
        // to a CTTRACE2 file without materializing it.
        auto source = seededSource(table1Workloads()[1], seed, scale_);
        V2Writer writer(path_, source->warmStart());
        std::vector<Ref> chunk(refChunkSize);
        while (std::size_t n = timed(log, "trace.generate", [&] {
                   return source->fill(chunk.data(), chunk.size());
               })) {
            for (std::size_t i = 0; i < n; ++i)
                writer.push(chunk[i]);
        }
        writer.close();
        trace_ = Trace();
        return static_cast<double>(writer.count());
    }

    void
    release() override
    {
        std::remove(path_.c_str());
        trace_ = Trace();
    }

    QueryOutput
    query() override
    {
        // A fresh source per query, as cachetime_sim --trace-file
        // opens one: the content hash is paid inside the query.
        V2FileSource source(path_);
        full_ = simulateSourceCachedMany(configs_, source);
        smarts_ = runSmartsMany(configs_, source, smartsConfig_);
        return output();
    }

    QueryOutput
    tracedQuery(SpanLog &log, QueryWork &work) override
    {
        V2FileSource source(path_);
        const double refs = static_cast<double>(source.size());
        work.batchRefPoints = refs * static_cast<double>(configs_.size());
        work.fusedPoints = configs_.size();
        work.smartsStreamRefs = refs;

        log.time("trace.content_hash", [&] { return source.contentHash(); });
        full_ = log.time("core.batch", [&] {
            return simulateSourceCachedMany(configs_, source);
        });

        // runSmartsMany, call by call: one materialization, then per
        // warm-key group a full pass whose live points the rest of
        // the group replays.
        Trace trace = log.time("trace.materialize",
                               [&] { return materialize(source); });
        smarts_.assign(configs_.size(), SmartsRunResult());
        std::vector<std::pair<SimKey, CheckpointFile>> groups;
        for (std::size_t i = 0; i < configs_.size(); ++i) {
            SimKey key = warmStateKey(configs_[i]);
            CheckpointFile *found = nullptr;
            for (auto &group : groups)
                if (group.first == key)
                    found = &group.second;
            if (found) {
                smarts_[i] = log.time("core.smarts.replay", [&] {
                    return runSmartsReplay(configs_[i], trace,
                                           smartsConfig_, *found);
                });
                work.smartsReplayRefs +=
                    static_cast<double>(smarts_[i].simulatedRefs);
                ++work.smartsReplays;
            } else {
                groups.emplace_back(key, CheckpointFile{});
                smarts_[i] = log.time("core.smarts.full_pass", [&] {
                    return runSmartsFullPass(configs_[i], trace,
                                             smartsConfig_,
                                             &groups.back().second);
                });
            }
        }
        return output();
    }

    bool
    spotCheck(std::size_t index, std::string *why) override
    {
        const Trace &trace = materialized();
        const std::size_t C = configs_.size();
        if (index < C)
            return sameResult(*full_[index],
                              simulateOne(configs_[index], trace), why);

        // A sampled point: the group leader's full pass through the
        // single-config entry point, the others replayed from it.
        const std::size_t k = index - C;
        std::size_t leader = 0;
        while (!(warmStateKey(configs_[leader]) == warmStateKey(configs_[k])))
            ++leader;
        SmartsRunResult reference;
        if (leader == k) {
            TraceRefSource source(trace);
            reference = runSmarts(configs_[k], source,
                                  SmartsOptions{smartsConfig_, ""});
        } else {
            CheckpointFile points;
            runSmartsFullPass(configs_[leader], trace, smartsConfig_,
                              &points);
            reference = runSmartsReplay(configs_[k], trace,
                                        smartsConfig_, points);
        }
        return sameDigest(digestSmarts(smarts_[k]),
                          digestSmarts(reference), why);
    }

    LayerInputs
    layerInputs() override
    {
        return {&materialized(), configs_[0], coherentVariant(configs_[0], 2)};
    }

  private:
    const Trace &
    materialized()
    {
        if (trace_.empty()) {
            V2FileSource source(path_);
            trace_ = materialize(source);
        }
        return trace_;
    }

    QueryOutput
    output() const
    {
        QueryOutput out;
        for (const SimResultPtr &r : full_)
            out.digests.push_back(digestResult(*r));
        for (const SmartsRunResult &run : smarts_)
            out.digests.push_back(digestSmarts(run));
        for (std::size_t i = 0; i < configs_.size(); ++i) {
            double truth = full_[i]->cyclesPerRef();
            out.sampleErrRel +=
                std::fabs(smarts_[i].estimate.cpi.mean - truth) / truth;
            out.cpiCiRel += smarts_[i].estimate.cpi.relativeError();
        }
        out.sampleErrRel /= static_cast<double>(configs_.size());
        out.cpiCiRel /= static_cast<double>(configs_.size());
        return out;
    }

    double scale_;
    std::string path_;
    std::vector<SystemConfig> configs_;
    SmartsConfig smartsConfig_;
    Trace trace_; ///< the file materialized, for checks and layers
    std::vector<SimResultPtr> full_;
    std::vector<SmartsRunResult> smarts_;
};

// --- coherent-sharing -----------------------------------------------

class CoherentSharing : public Workload
{
  public:
    explicit CoherentSharing(double scale) : scale_(sharingScale * scale)
    {
        for (CoherenceProtocol protocol :
             {CoherenceProtocol::VI, CoherenceProtocol::MSI,
              CoherenceProtocol::MESI}) {
            for (unsigned cores : {2u, 4u}) {
                configs_.push_back(coherentVariant(
                    SystemConfig::paperDefault(), cores, protocol));
                if (stackEligible(configs_.back()))
                    fatal("coherent-sharing: the stack kernel must "
                          "reject coherent points");
            }
        }
    }

    std::string name() const override { return "coherent-sharing"; }

    std::size_t
    points() const override
    {
        return sharing_.size() * configs_.size();
    }

    double
    setup(std::uint64_t seed, SpanLog *log) override
    {
        // fig_sharing's moderate and heavy sharing levels: eight
        // processes contending for one shared segment.
        std::vector<WorkloadSpec> specs;
        for (std::size_t i = 0; i < sharing_.size(); ++i) {
            WorkloadSpec spec;
            spec.name = i == 0 ? "share-moderate" : "share-heavy";
            spec.processes = 8;
            spec.lengthRefs = 1'200'000;
            spec.warmStartRefs = 300'000;
            spec.seed = 502 + i;
            spec.footprintScale = 0.8;
            spec.sharedFraction = sharing_[i];
            spec.sharedWords = 4 * 1024;
            specs.push_back(spec);
        }
        traces_ = generateHashed(specs, seed, scale_, log);
        return totalRefs(traces_);
    }

    void release() override { traces_ = {}; }

    QueryOutput query() override { return run(nullptr); }

    QueryOutput
    tracedQuery(SpanLog &log, QueryWork &work) override
    {
        work.batchRefPoints =
            totalRefs(traces_) * static_cast<double>(configs_.size());
        work.fusedPoints = points();
        return run(&log);
    }

    bool
    spotCheck(std::size_t index, std::string *why) override
    {
        const std::size_t C = configs_.size();
        return sameResult(*results_[index],
                          simulateOne(configs_[index % C],
                                      traces_[index / C]),
                          why);
    }

    LayerInputs
    layerInputs() override
    {
        return {&traces_.back(), SystemConfig::paperDefault(),
                configs_.back()};
    }

  private:
    /** One (trace, protocol) task per pool slot, both core counts fused. */
    QueryOutput
    run(SpanLog *log)
    {
        const std::size_t C = configs_.size();
        const std::size_t per_task = 2; // the {2, 4}-core pair
        const std::size_t tasks_per_trace = C / per_task;
        auto parts = parallelMap<std::vector<SimResultPtr>>(
            traces_.size() * tasks_per_trace, [&](std::size_t task) {
                std::size_t t = task / tasks_per_trace;
                std::size_t begin = task % tasks_per_trace * per_task;
                std::vector<SystemConfig> part(
                    configs_.begin() + static_cast<std::ptrdiff_t>(begin),
                    configs_.begin() +
                        static_cast<std::ptrdiff_t>(begin + per_task));
                return timed(log, "core.batch", [&] {
                    TraceRefSource source(traces_[t]);
                    return simulateSourceCachedMany(part, source);
                });
            });
        results_.clear();
        QueryOutput out;
        for (const std::vector<SimResultPtr> &part : parts) {
            for (const SimResultPtr &r : part) {
                results_.push_back(r);
                out.digests.push_back(digestResult(*r));
            }
        }
        return out;
    }

    double scale_;
    const std::vector<double> sharing_{0.15, 0.35};
    std::vector<SystemConfig> configs_;
    std::vector<Trace> traces_;
    std::vector<SimResultPtr> results_; ///< trace-major, config-minor
};

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"missratio-grid", "exectime-grid", "stream-sampled",
            "coherent-sharing"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const std::string &workdir,
             double scale)
{
    if (name == "missratio-grid")
        return std::make_unique<MissRatioGrid>(scale);
    if (name == "exectime-grid")
        return std::make_unique<ExecTimeGrid>(scale);
    if (name == "stream-sampled")
        return std::make_unique<StreamSampled>(workdir, scale);
    if (name == "coherent-sharing")
        return std::make_unique<CoherentSharing>(scale);
    return nullptr;
}

} // namespace perfbench
