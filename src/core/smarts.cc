#include "core/smarts.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "core/sim_cache.hh"
#include "sim/system.hh"
#include "stats/interval.hh"
#include "trace/ref_source.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace cachetime
{

void
SmartsConfig::validate() const
{
    if (unitRefs == 0)
        fatal("smarts: measurement unit must be at least 1 "
              "reference");
    if (warmupRefs == 0)
        fatal("smarts: detailed warm-up must be at least 1 "
              "reference");
    if (periodRefs < warmupRefs + unitRefs)
        fatal("smarts: period (%llu refs) is shorter than warm-up + "
              "unit (%llu refs); units would overlap",
              static_cast<unsigned long long>(periodRefs),
              static_cast<unsigned long long>(warmupRefs + unitRefs));
    if (pilotUnits < 2)
        fatal("smarts: the pilot needs at least 2 units to estimate "
              "variance");
    if (!(targetRelError > 0.0))
        fatal("smarts: target relative error must be positive");
    if (!(confidence > 0.0 && confidence < 1.0))
        fatal("smarts: confidence must lie in (0, 1)");
}

SmartsPlan
planSmarts(std::uint64_t stream_refs, std::uint64_t warm_start,
           const SmartsConfig &cfg)
{
    cfg.validate();
    SmartsPlan plan;
    plan.cfg = cfg;
    plan.streamRefs = stream_refs;
    plan.warmStart = warm_start;
    for (std::uint64_t cp = warm_start;
         cp + cfg.warmupRefs + cfg.unitRefs <= stream_refs;
         cp += cfg.periodRefs) {
        SmartsUnit unit;
        unit.cp = cp;
        unit.begin = cp + cfg.warmupRefs;
        unit.end = unit.begin + cfg.unitRefs;
        plan.units.push_back(unit);
    }
    if (plan.units.size() < 2)
        fatal("smarts: only %zu measurement unit(s) fit a %llu-ref "
              "stream (warm start %llu, period %llu); a sample needs "
              "at least 2",
              plan.units.size(),
              static_cast<unsigned long long>(stream_refs),
              static_cast<unsigned long long>(warm_start),
              static_cast<unsigned long long>(cfg.periodRefs));
    return plan;
}

const char *
smartsModeName(SmartsMode mode)
{
    switch (mode) {
      case SmartsMode::FullPass:
        return "full";
      case SmartsMode::ExactReplay:
        return "exact-replay";
      case SmartsMode::WarmReplay:
        return "warm-replay";
    }
    return "?";
}

double
SmartsRunResult::replayFraction() const
{
    return plan.streamRefs == 0
               ? 0.0
               : static_cast<double>(simulatedRefs) /
                     static_cast<double>(plan.streamRefs);
}

namespace
{

/**
 * A read-only view of a Trace with the sampling plan's measurement
 * layout substituted: warm start at the first unit, gaps between
 * units as warm segments.  Avoids copying the reference stream just
 * to change two pieces of metadata.
 */
class SampledView final : public RefSource
{
  public:
    SampledView(const Trace &trace, std::size_t warm_start,
                std::vector<WarmSegment> segments)
        : trace_(trace), warmStart_(warm_start),
          segments_(std::move(segments))
    {
    }

    const std::string &name() const override { return trace_.name(); }
    std::uint64_t size() const override { return trace_.size(); }
    std::size_t warmStart() const override { return warmStart_; }

    const std::vector<WarmSegment> &warmSegments() const override
    {
        return segments_;
    }

    void reset() override { pos_ = 0; }

    std::size_t
    fill(Ref *out, std::size_t max) override
    {
        const std::vector<Ref> &refs = trace_.refs();
        std::size_t n = std::min(max, refs.size() - pos_);
        std::copy_n(refs.data() + pos_, n, out);
        pos_ += n;
        return n;
    }

  private:
    const Trace &trace_;
    std::size_t warmStart_;
    std::vector<WarmSegment> segments_;
    std::size_t pos_ = 0;
};

/**
 * Pilot, tune, select, estimate - identical in every mode so an
 * exact replay reproduces the full pass bit for bit.  @p unit_at
 * yields unit @p k's measured result (memoized here, so a unit is
 * simulated at most once however the pilot and the selection
 * overlap).
 */
template <typename UnitFn>
void
selectAndEstimate(SmartsRunResult &out, std::size_t n_units,
                  const SmartsConfig &cfg, UnitFn &&unit_at)
{
    std::size_t pilot_n = std::min(cfg.pilotUnits, n_units);
    if (pilot_n < 2)
        pilot_n = 2;
    std::vector<std::optional<SmartsUnitResult>> cache(n_units);
    std::vector<double> pilot_cpis;
    for (std::size_t k = 0; k < pilot_n; ++k) {
        cache[k] = unit_at(k);
        pilot_cpis.push_back(cache[k]->cpi);
    }
    MeanCI pilot = meanConfidence(pilot_cpis, cfg.confidence);
    double cv = pilot.mean == 0.0
                    ? 0.0
                    : pilot.stddev / std::fabs(pilot.mean);
    std::size_t tuned =
        requiredUnits(cv, cfg.targetRelError, cfg.confidence);
    tuned = std::clamp(tuned, pilot_n, n_units);
    // A systematic subsample keeps the periodic structure: every
    // stride-th unit, giving at least `tuned` of them.
    std::size_t stride = std::max<std::size_t>(1, n_units / tuned);
    std::vector<double> cpis;
    std::vector<double> ratios;
    for (std::size_t idx = 0; idx < n_units; idx += stride) {
        if (!cache[idx])
            cache[idx] = unit_at(idx);
        out.units.push_back(*cache[idx]);
        cpis.push_back(cache[idx]->cpi);
        ratios.push_back(cache[idx]->readMissRatio);
    }
    out.pilotCount = pilot_n;
    out.pilotCv = cv;
    out.tunedUnits = tuned;
    out.selectedCount = cpis.size();
    out.estimate.cpi = meanConfidence(cpis, cfg.confidence);
    out.estimate.readMissRatio =
        meanConfidence(ratios, cfg.confidence);
}

/**
 * Assemble one unit's aggregation record from its measured
 * counters.  The full pass (interval-collector windows) and replay
 * (one SimResult per unit) both build units here, so the two
 * estimation paths can never aggregate differently.  A unit that
 * measured nothing means the plan and the engine disagree about the
 * measurement window: panic.
 */
SmartsUnitResult
makeUnitResult(std::size_t index, std::uint64_t begin,
               std::uint64_t end, std::uint64_t refs,
               std::uint64_t cycles, double cpi,
               double read_miss_ratio, const char *how)
{
    SmartsUnitResult u;
    u.index = index;
    u.beginRef = begin;
    u.endRef = end;
    u.refs = refs;
    u.cycles = cycles;
    u.cpi = cpi;
    u.readMissRatio = read_miss_ratio;
    if (u.refs == 0)
        panic("smarts: %s unit %zu measured no references", how,
              index);
    return u;
}

bool
fileExists(const std::string &path)
{
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return true;
    }
    return false;
}

/** Create @p dir if missing; existing directories are fine. */
void
ensureDir(const std::string &dir)
{
    if (mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST)
        return;
    fatal("smarts: cannot create checkpoint directory '%s': %s",
          dir.c_str(), std::strerror(errno));
}

} // namespace

SmartsRunResult
runSmartsFullPass(const SystemConfig &config, const Trace &trace,
                 const SmartsConfig &cfg,
                 CheckpointFile *checkpoint_out)
{
    if (config.coherent())
        fatal("runSmarts: sampling is not supported in coherent "
              "mode (run the full stream)");
    SmartsRunResult out;
    out.mode = SmartsMode::FullPass;
    out.plan = planSmarts(trace.size(), trace.warmStart(), cfg);
    const std::vector<SmartsUnit> &units = out.plan.units;
    const std::size_t n_units = units.size();

    std::vector<WarmSegment> gaps;
    for (std::size_t k = 1; k < n_units; ++k)
        gaps.push_back({static_cast<std::size_t>(units[k - 1].end),
                        static_cast<std::size_t>(units[k].begin)});
    SampledView view(trace, static_cast<std::size_t>(units[0].begin),
                     std::move(gaps));

    // Window boundaries at every unit edge: the unit's counter
    // deltas fall out of the same bit-exact interval machinery the
    // fixed-width series uses.
    std::vector<std::uint64_t> bounds;
    for (const SmartsUnit &unit : units) {
        bounds.push_back(unit.begin);
        bounds.push_back(unit.end);
    }
    IntervalCollector collector(std::move(bounds));

    System machine(config);
    const bool pair = config.split && config.cpu.pairIssue;
    machine.setIntervalCollector(&collector);
    machine.beginRun(view);

    const Ref *refs = trace.refs().data();
    const std::size_t total = trace.size();
    std::size_t pos = 0;
    std::vector<std::uint64_t> cp_actual(n_units);
    std::vector<std::string> blobs;
    for (std::size_t k = 0; k < n_units; ++k) {
        std::size_t cut = coupletSafeCut(
            refs, total, static_cast<std::size_t>(units[k].cp), pair);
        if (cut > pos) {
            machine.feedChunk(refs + pos, cut - pos);
            pos = cut;
        }
        cp_actual[k] = cut;
        if (checkpoint_out) {
            StateWriter w;
            machine.captureState(w);
            blobs.push_back(w.take());
        }
    }
    // Nothing after the last unit is measured or checkpointed, so
    // the pass stops there instead of draining the stream.
    std::size_t stop = coupletSafeCut(
        refs, total, static_cast<std::size_t>(units[n_units - 1].end),
        pair);
    if (stop > pos)
        machine.feedChunk(refs + pos, stop - pos);
    machine.endRun();
    machine.setIntervalCollector(nullptr);
    out.simulatedRefs = stop;

    const std::vector<IntervalRecord> &recs = collector.records();
    if (recs.size() != 2 * n_units)
        panic("smarts: expected %zu interval records, got %zu",
              2 * n_units, recs.size());
    std::vector<SmartsUnitResult> all(n_units);
    for (std::size_t k = 0; k < n_units; ++k) {
        const IntervalRecord &r = recs[2 * k + 1];
        all[k] = makeUnitResult(k, units[k].begin, r.endRef,
                                r.c.refs, r.c.cycles, r.cpi(),
                                r.readMissRatio(), "full-pass");
    }
    selectAndEstimate(out, n_units, cfg,
                      [&](std::size_t k) { return all[k]; });

    if (checkpoint_out) {
        CheckpointFile &cp = *checkpoint_out;
        cp.traceHash = traceIdentityHash(trace);
        cp.warmKey = warmStateKey(config);
        cp.exactKey = exactStateKey(config, cp.traceHash);
        cp.unitRefs = cfg.unitRefs;
        cp.warmupRefs = cfg.warmupRefs;
        cp.periodRefs = cfg.periodRefs;
        cp.streamRefs = trace.size();
        cp.units.resize(n_units);
        for (std::size_t k = 0; k < n_units; ++k) {
            cp.units[k].cpPos = cp_actual[k];
            cp.units[k].beginPos = units[k].begin;
            cp.units[k].endPos = all[k].endRef;
            cp.units[k].state = std::move(blobs[k]);
        }
    }
    return out;
}

SmartsRunResult
runSmartsReplay(const SystemConfig &config, const Trace &trace,
               const SmartsConfig &cfg,
               const CheckpointFile &checkpoint)
{
    std::uint64_t hash = traceIdentityHash(trace);
    if (checkpoint.traceHash != hash)
        fatal("smarts: checkpoint was taken over a different trace "
              "(hash %016llx, this trace %016llx)",
              static_cast<unsigned long long>(checkpoint.traceHash),
              static_cast<unsigned long long>(hash));
    if (checkpoint.streamRefs != trace.size())
        fatal("smarts: checkpoint stream length %llu does not match "
              "the trace (%zu refs)",
              static_cast<unsigned long long>(checkpoint.streamRefs),
              trace.size());
    const bool exact =
        checkpoint.exactKey == exactStateKey(config, hash);
    if (!exact && !(checkpoint.warmKey == warmStateKey(config)))
        fatal("smarts: checkpoint L1/TLB organization does not match "
              "this config (warm-key mismatch)");

    SmartsRunResult out;
    out.mode =
        exact ? SmartsMode::ExactReplay : SmartsMode::WarmReplay;
    // The unit layout is the checkpoint's, not the caller's: replay
    // can only measure where live points exist.
    SmartsConfig plan_cfg = cfg;
    plan_cfg.unitRefs = checkpoint.unitRefs;
    plan_cfg.warmupRefs = checkpoint.warmupRefs;
    plan_cfg.periodRefs = checkpoint.periodRefs;
    out.plan = planSmarts(trace.size(), trace.warmStart(), plan_cfg);
    const std::size_t n_units = out.plan.units.size();
    if (n_units != checkpoint.units.size())
        fatal("smarts: checkpoint has %zu units where the plan "
              "expects %zu (inconsistent checkpoint)",
              checkpoint.units.size(), n_units);
    for (std::size_t k = 0; k < n_units; ++k) {
        if (checkpoint.units[k].beginPos != out.plan.units[k].begin)
            fatal("smarts: checkpoint unit %zu begins at %llu, plan "
                  "says %llu (inconsistent checkpoint)",
                  k,
                  static_cast<unsigned long long>(
                      checkpoint.units[k].beginPos),
                  static_cast<unsigned long long>(
                      out.plan.units[k].begin));
    }

    System machine(config);
    const Ref *refs = trace.refs().data();
    std::uint64_t simulated = 0;
    auto unit_at = [&](std::size_t k) {
        const CheckpointUnit &cu = checkpoint.units[k];
        std::vector<Ref> slice(refs + cu.cpPos, refs + cu.endPos);
        Trace sub(trace.name() + "#u" + std::to_string(k),
                  std::move(slice),
                  static_cast<std::size_t>(cu.beginPos - cu.cpPos));
        TraceRefSource sub_source(sub);
        machine.beginRun(sub_source);
        StateReader r(cu.state.data(), cu.state.size(),
                      "checkpoint unit " + std::to_string(k));
        if (exact)
            machine.restoreState(r);
        else
            machine.restoreWarmState(r);
        machine.feedChunk(sub.refs().data(), sub.refs().size());
        SimResult sr = machine.endRun();
        simulated += cu.endPos - cu.cpPos;
        return makeUnitResult(k, cu.beginPos, cu.endPos, sr.refs,
                              static_cast<std::uint64_t>(sr.cycles),
                              sr.cyclesPerRef(), sr.readMissRatio(),
                              "replayed");
    };
    selectAndEstimate(out, n_units, cfg, unit_at);
    out.simulatedRefs = simulated;
    return out;
}

SmartsRunResult
runSmarts(const SystemConfig &config, RefSource &source,
          const SmartsOptions &options)
{
    options.cfg.validate();
    if (config.coherent())
        fatal("runSmarts: sampling is not supported in coherent "
              "mode (run the full stream)");
    Trace trace = materialize(source);
    if (options.checkpointDir.empty())
        return runSmartsFullPass(config, trace, options.cfg,
                                 nullptr);
    ensureDir(options.checkpointDir);
    std::uint64_t hash = traceIdentityHash(trace);
    std::string path =
        options.checkpointDir + "/" +
        checkpointFileName(hash, warmStateKey(config));
    if (fileExists(path)) {
        CheckpointFile cp = loadCheckpoint(path);
        return runSmartsReplay(config, trace, options.cfg, cp);
    }
    CheckpointFile cp;
    SmartsRunResult out =
        runSmartsFullPass(config, trace, options.cfg, &cp);
    writeCheckpoint(cp, path);
    return out;
}

std::vector<SmartsRunResult>
runSmartsMany(const std::vector<SystemConfig> &configs,
              RefSource &source, const SmartsConfig &cfg)
{
    Trace trace = materialize(source);
    std::vector<SmartsRunResult> out(configs.size());
    // Live points hand off in memory: the first config of each
    // warm-key group pays the full pass, the rest replay its units.
    std::vector<std::pair<SimKey, CheckpointFile>> groups;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SimKey wk = warmStateKey(configs[i]);
        CheckpointFile *found = nullptr;
        for (auto &group : groups)
            if (group.first == wk) {
                found = &group.second;
                break;
            }
        if (found) {
            out[i] =
                runSmartsReplay(configs[i], trace, cfg, *found);
        } else {
            groups.emplace_back(wk, CheckpointFile{});
            out[i] = runSmartsFullPass(configs[i], trace, cfg,
                                       &groups.back().second);
        }
    }
    return out;
}

} // namespace cachetime
