#include "core/smarts.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "core/sim_cache.hh"
#include "sim/system.hh"
#include "stats/interval.hh"
#include "stats/trace_event.hh"
#include "trace/ref_source.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
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

/** Each unit's result; a replay leaves the units it skips empty. */
using UnitResults = std::vector<std::optional<SmartsUnitResult>>;

/**
 * The measurement layout a sampled machine is armed with: the name,
 * length, warm start and warm segments beginRun() reads, and no
 * references - the pass feeds those itself, span by span.
 */
class MeasureLayout final : public RefSource
{
  public:
    MeasureLayout(std::string name, std::uint64_t size,
                  std::size_t warm_start,
                  std::vector<WarmSegment> segments = {})
        : name_(std::move(name)), size_(size), warmStart_(warm_start),
          segments_(std::move(segments))
    {
    }

    const std::string &name() const override { return name_; }
    std::uint64_t size() const override { return size_; }
    std::size_t warmStart() const override { return warmStart_; }

    const std::vector<WarmSegment> &warmSegments() const override
    {
        return segments_;
    }

    void reset() override {}
    std::size_t fill(Ref *, std::size_t) override { return 0; }

  private:
    std::string name_;
    std::uint64_t size_;
    std::size_t warmStart_;
    std::vector<WarmSegment> segments_;
};

/**
 * The pilot-and-stride rule that picks the units an estimate uses:
 * the pilot units, whose CPIs fix the sample size, then every
 * stride-th unit from unit 0.  The estimator reads its sample
 * through it and a replay asks it which unit to restore next, so
 * the units simulated and the units estimated from cannot disagree.
 */
class SampleRule
{
  public:
    SampleRule(std::size_t n_units, const SmartsConfig &cfg)
        : units_(n_units), cfg_(cfg),
          pilot_(std::max<std::size_t>(
              2, std::min(cfg.pilotUnits, n_units)))
    {
    }

    /** @return the number of pilot units (0 .. pilot - 1). */
    std::size_t pilot() const { return pilot_; }

    /** Fix the sample size and stride from the pilot's CPIs. */
    void
    tune(const UnitResults &results)
    {
        std::vector<double> pilot_cpis;
        for (std::size_t k = 0; k < pilot_; ++k)
            pilot_cpis.push_back(results[k]->cpi);
        MeanCI pilot = meanConfidence(pilot_cpis, cfg_.confidence);
        cv_ = pilot.mean == 0.0 ? 0.0
                                : pilot.stddev / std::fabs(pilot.mean);
        tuned_ = std::clamp(
            requiredUnits(cv_, cfg_.targetRelError, cfg_.confidence),
            pilot_, units_);
        // A systematic subsample keeps the periodic structure: every
        // stride-th unit, giving at least `tuned` of them.
        stride_ = std::max<std::size_t>(1, units_ / tuned_);
    }

    /**
     * @return the first unit after @p k the sample needs, or the
     * unit count when none is left.  Past the pilot the rule must
     * be tuned.
     */
    std::size_t
    after(std::size_t k) const
    {
        if (k + 1 < pilot_)
            return k + 1;
        return std::min(units_, (k / stride_ + 1) * stride_);
    }

    /** Select the sample from @p results and estimate from it. */
    void
    estimate(SmartsRunResult &out, const UnitResults &results) const
    {
        std::vector<double> cpis;
        std::vector<double> ratios;
        for (std::size_t idx = 0; idx < units_; idx += stride_) {
            const SmartsUnitResult &unit = *results[idx];
            out.units.push_back(unit);
            cpis.push_back(unit.cpi);
            ratios.push_back(unit.readMissRatio);
        }
        out.pilotCount = pilot_;
        out.pilotCv = cv_;
        out.tunedUnits = tuned_;
        out.selectedCount = cpis.size();
        out.estimate.cpi = meanConfidence(cpis, cfg_.confidence);
        out.estimate.readMissRatio =
            meanConfidence(ratios, cfg_.confidence);
    }

  private:
    std::size_t units_;
    SmartsConfig cfg_;
    std::size_t pilot_;
    double cv_ = 0.0;
    std::size_t tuned_ = 0;
    std::size_t stride_ = 0;
};

/**
 * Assemble one unit's aggregation record from its measured
 * counters.  The full run (interval-collector windows) and replay
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

/** @return @p config, after fatal()ing on a coherent one. */
const SystemConfig &
classicOnly(const SystemConfig &config)
{
    if (config.coherent())
        fatal("runSmarts: sampling is not supported in coherent "
              "mode (run the full stream)");
    return config;
}

/** @return the interval boundaries at every unit edge of @p plan. */
std::vector<std::uint64_t>
unitEdges(const SmartsPlan &plan)
{
    std::vector<std::uint64_t> bounds;
    for (const SmartsUnit &unit : plan.units) {
        bounds.push_back(unit.begin);
        bounds.push_back(unit.end);
    }
    return bounds;
}

/**
 * A full run on the pass: it measures every unit through interval
 * windows at the unit edges, cuts the stream at each unit's
 * checkpoint, where the group may take a live point, and stops
 * after the last unit.  Both cuts go through coupletSafeCut() with
 * the run's own pairing.
 */
class FullRun
{
  public:
    FullRun(const SystemConfig &config, const RefSource &source,
            const SmartsConfig &cfg, bool keep)
        : config_(config), machine_(classicOnly(config)),
          plan_(planSmarts(source.size(), source.warmStart(), cfg)),
          collector_(unitEdges(plan_)),
          pair_(config.split && config.cpu.pairIssue), keep_(keep),
          points_(plan_.units.size())
    {
        // Measurement starts at the first unit and the gaps between
        // units are warm segments, so one run counts exactly the
        // units; the window boundaries at every unit edge give each
        // unit's counter deltas.
        const std::vector<SmartsUnit> &units = plan_.units;
        std::vector<WarmSegment> gaps;
        for (std::size_t k = 1; k < units.size(); ++k)
            gaps.push_back(
                {static_cast<std::size_t>(units[k - 1].end),
                 static_cast<std::size_t>(units[k].begin)});
        for (std::size_t k = 0; k < units.size(); ++k)
            points_[k].beginPos = units[k].begin;
        machine_.setIntervalCollector(&collector_);
        machine_.beginRun(MeasureLayout(
            source.name(), source.size(),
            static_cast<std::size_t>(units[0].begin), std::move(gaps)));
    }

    const SystemConfig &config() const { return config_; }
    const SmartsPlan &plan() const { return plan_; }
    bool keeps() const { return keep_; }
    bool done() const { return done_; }

    /**
     * Positions of the units so far: cpPos of every unit cut, endPos
     * of the first known() units, and the kept live points.
     */
    const std::vector<CheckpointUnit> &points() const { return points_; }

    /** @return how many leading units have a known endPos. */
    std::size_t known() const { return known_; }

    /**
     * Feed span [s, e) up to unit @p k's checkpoint cut when the cut
     * lies in it.  @return the cut, or nothing when it lies beyond.
     */
    std::optional<std::uint64_t>
    toCut(std::size_t k, const Ref *span, std::uint64_t s,
          std::uint64_t e)
    {
        std::uint64_t cp = plan_.units[k].cp;
        if (cp > e)
            return std::nullopt;
        std::uint64_t cut =
            s + coupletSafeCut(span, e - s, cp - s, pair_);
        feed(span, s, cut);
        points_[k].cpPos = cut;
        return cut;
    }

    /**
     * Feed the rest of span [s, e).  Nothing after the last unit is
     * measured or checkpointed, so the run ends at the stop cut
     * there instead of draining the stream.
     */
    void
    toEnd(const Ref *span, std::uint64_t s, std::uint64_t e)
    {
        if (done_)
            return;
        std::uint64_t stop = plan_.units.back().end;
        if (stop > e) {
            feed(span, s, e);
            return;
        }
        stop = s + coupletSafeCut(span, e - s, stop - s, pair_);
        feed(span, s, stop);
        machine_.endRun();
        machine_.setIntervalCollector(nullptr);
        stop_ = stop;
        done_ = true;
    }

    /**
     * @return the machine's live point at the current cut, in the
     * one buffer the run reuses for every capture; it holds until
     * the next capture.
     */
    const std::string &
    capture()
    {
        writer_.clear();
        machine_.captureState(writer_);
        return writer_.buffer();
    }

    /** Keep a copy of @p state as unit @p k's live point. */
    void keep(std::size_t k, const std::string &state)
    {
        points_[k].state = state;
    }

    /**
     * @return the run's result.  With @p file, also hand over the
     * kept live points, under a header naming a stream that hashes
     * to @p trace_hash.
     */
    SmartsRunResult
    finish(CheckpointFile *file, std::uint64_t trace_hash)
    {
        const std::vector<SmartsUnit> &units = plan_.units;
        const std::size_t n_units = units.size();
        const std::vector<IntervalRecord> &recs = collector_.records();
        if (recs.size() != 2 * n_units)
            panic("smarts: expected %zu interval records, got %zu",
                  2 * n_units, recs.size());
        UnitResults all(n_units);
        for (std::size_t k = 0; k < n_units; ++k) {
            const IntervalRecord &r = recs[2 * k + 1];
            all[k] = makeUnitResult(k, units[k].begin, r.endRef,
                                    r.c.refs, r.c.cycles, r.cpi(),
                                    r.readMissRatio(), "full-pass");
        }
        SmartsRunResult out;
        out.mode = SmartsMode::FullPass;
        out.plan = plan_;
        out.simulatedRefs = stop_;
        SampleRule rule(n_units, plan_.cfg);
        rule.tune(all);
        rule.estimate(out, all);

        if (file) {
            file->traceHash = trace_hash;
            file->warmKey = warmStateKey(config_);
            file->exactKey = exactStateKey(config_, trace_hash);
            file->unitRefs = plan_.cfg.unitRefs;
            file->warmupRefs = plan_.cfg.warmupRefs;
            file->periodRefs = plan_.cfg.periodRefs;
            file->streamRefs = plan_.streamRefs;
            file->units = std::move(points_);
        }
        return out;
    }

  private:
    /** Feed the run from where it stands to @p to, in span [s, ..). */
    void
    feed(const Ref *span, std::uint64_t s, std::uint64_t to)
    {
        if (to > pos_) {
            machine_.feedChunk(span + (pos_ - s),
                               static_cast<std::size_t>(to - pos_));
            pos_ = to;
        }
        // A unit's closing window record gives its endPos.
        const std::vector<IntervalRecord> &recs = collector_.records();
        for (; known_ < points_.size() && 2 * known_ + 1 < recs.size();
             ++known_)
            points_[known_].endPos = recs[2 * known_ + 1].endRef;
    }

    const SystemConfig &config_;
    System machine_;
    SmartsPlan plan_;
    IntervalCollector collector_;
    StateWriter writer_; ///< the capture buffer, reused per point
    bool pair_;
    bool keep_;
    std::vector<CheckpointUnit> points_;
    std::size_t known_ = 0;
    std::uint64_t pos_ = 0;  ///< stream position fed so far
    std::uint64_t stop_ = 0; ///< the stop cut, once done
    bool done_ = false;
};

/**
 * A replay on the pass: it restores each unit the sample needs from
 * the unit's live point at cpPos and measures [cpPos, endPos) as
 * the stream goes by.
 */
class ReplayRun
{
  public:
    ReplayRun(const SystemConfig &config, SmartsMode mode,
              SmartsPlan plan, std::string name)
        : machine_(classicOnly(config)), name_(std::move(name)),
          rule_(plan.units.size(), plan.cfg),
          results_(plan.units.size())
    {
        out_.mode = mode;
        out_.plan = std::move(plan);
    }

    /** @return whether a unit is restored and not yet measured. */
    bool armed() const { return armed_; }

    /**
     * @return the unit being measured when armed(), else the next
     * unit whose live point the run waits for (the unit count once
     * it needs none).
     */
    std::size_t unit() const { return next_; }

    bool done() const { return !armed_ && next_ == results_.size(); }

    /** Restore the awaited unit from @p state, taken at @p cp_pos. */
    void
    restore(std::uint64_t cp_pos, const std::string &state)
    {
        const SmartsUnit &unit = out_.plan.units[next_];
        machine_.beginRun(MeasureLayout(
            name_ + "#u" + std::to_string(next_), unit.end - cp_pos,
            static_cast<std::size_t>(unit.begin - cp_pos)));
        StateReader r(state.data(), state.size(),
                      "checkpoint unit " + std::to_string(next_));
        if (out_.mode == SmartsMode::ExactReplay)
            machine_.restoreState(r);
        else
            machine_.restoreWarmState(r);
        cpPos_ = cp_pos;
        armed_ = true;
    }

    /** Continue the armed unit with @p n references. */
    void
    feed(const Ref *refs, std::uint64_t n)
    {
        if (n != 0)
            machine_.feedChunk(refs, static_cast<std::size_t>(n));
    }

    /** Close the armed unit at @p end_pos and pick the next one. */
    void
    endUnit(std::uint64_t end_pos)
    {
        SimResult sr = machine_.endRun();
        results_[next_] = makeUnitResult(
            next_, out_.plan.units[next_].begin, end_pos, sr.refs,
            static_cast<std::uint64_t>(sr.cycles), sr.cyclesPerRef(),
            sr.readMissRatio(), "replayed");
        out_.simulatedRefs += end_pos - cpPos_;
        armed_ = false;
        if (next_ + 1 == rule_.pilot())
            rule_.tune(results_);
        next_ = rule_.after(next_);
    }

    SmartsRunResult
    finish()
    {
        rule_.estimate(out_, results_);
        return std::move(out_);
    }

  private:
    System machine_;
    std::string name_;
    SmartsRunResult out_;
    SampleRule rule_;
    UnitResults results_;
    std::size_t next_ = 0;
    bool armed_ = false;
    std::uint64_t cpPos_ = 0;
};

/**
 * One warm-key group on the pass: the source of its live points - a
 * full run that captures them as the stream goes by, or a loaded
 * checkpoint file - and the replays they serve.  Each piece of a
 * span goes to the full run before the replays, so the full run's
 * closing window record has fixed a unit's endPos before any replay
 * is fed past it.  A replay is fed only pieces that end at a span
 * boundary or at its unit's end, so it pairs as a one-chunk replay
 * of the unit would, whatever its pairing.  A feed touches nothing
 * outside the group, neither the source nor another group, so
 * runPass() feeds the groups of a span concurrently.
 */
class Group
{
  public:
    /** Live points from @p lead, whose result goes to slot @p slot. */
    Group(std::unique_ptr<FullRun> lead, std::size_t slot)
        : lead_(std::move(lead)), leadSlot_(slot)
    {
    }

    /** Live points from a loaded checkpoint file. */
    explicit Group(const CheckpointFile &file) : file_(&file) {}

    FullRun *lead() const { return lead_.get(); }

    /** @return how many runs the group holds: full run and replays. */
    std::size_t
    runs() const
    {
        return (lead_ ? 1 : 0) + replays_.size();
    }

    /** Add a replay whose result is slot @p slot. */
    void
    addReplay(std::size_t slot, const SystemConfig &config,
              SmartsMode mode, const SmartsPlan &plan,
              const std::string &name)
    {
        replays_.push_back({slot, std::make_unique<ReplayRun>(
                                      config, mode, plan, name)});
    }

    bool
    done() const
    {
        if (lead_ && !lead_->done())
            return false;
        return std::all_of(replays_.begin(), replays_.end(),
                           [](const Member &m) { return m.run->done(); });
    }

    /** Run the group over span [s, e) of the stream. */
    void
    feed(const Ref *span, std::uint64_t s, std::uint64_t e)
    {
        while (point_ < units().size()) {
            std::uint64_t at;
            if (lead_) {
                std::optional<std::uint64_t> cut =
                    lead_->toCut(point_, span, s, e);
                if (!cut)
                    break;
                at = *cut;
            } else {
                at = file_->units[point_].cpPos;
                if (at > e)
                    break;
            }
            catchUp(span, s, at);
            serve(point_, at);
            ++point_;
        }
        if (lead_)
            lead_->toEnd(span, s, e);
        catchUp(span, s, e);
    }

    /** Store every run's result in its slot of @p out. */
    void
    collect(std::vector<SmartsRunResult> &out)
    {
        if (lead_)
            out[leadSlot_] = lead_->finish(nullptr, 0);
        for (Member &m : replays_)
            out[m.slot] = m.run->finish();
    }

  private:
    struct Member
    {
        std::size_t slot;
        std::unique_ptr<ReplayRun> run;
    };

    const std::vector<CheckpointUnit> &
    units() const
    {
        return lead_ ? lead_->points() : file_->units;
    }

    /**
     * Feed the replays from where they stand to @p to in span
     * [s, ..), closing every unit that ends by then.  Units do not
     * overlap, so at a live point every replay's unit has ended.
     */
    void
    catchUp(const Ref *span, std::uint64_t s, std::uint64_t to)
    {
        const std::vector<CheckpointUnit> &points = units();
        const std::size_t known =
            lead_ ? lead_->known() : points.size();
        for (Member &m : replays_) {
            ReplayRun &run = *m.run;
            if (!run.armed())
                continue;
            const std::size_t k = run.unit();
            const bool ends = k < known && points[k].endPos <= to;
            const std::uint64_t stop = ends ? points[k].endPos : to;
            if (stop < at_)
                panic("smarts: a replay ran past unit %zu's end", k);
            run.feed(span + (at_ - s), stop - at_);
            if (ends)
                run.endUnit(stop);
        }
        at_ = to;
    }

    /**
     * Unit @p k's live point is due at @p at: restore every replay
     * waiting for it.  A full run captures the point only when a
     * replay waits or the caller keeps live points, into the buffer
     * it reuses, and a kept point is a copy.
     */
    void
    serve(std::size_t k, std::uint64_t at)
    {
        bool wanted = false;
        for (const Member &m : replays_) {
            if (m.run->armed() || m.run->unit() < k)
                panic("smarts: a replay is not ready for unit %zu's "
                      "live point", k);
            wanted = wanted || m.run->unit() == k;
        }
        auto restore = [&](const std::string &state) {
            for (Member &m : replays_)
                if (m.run->unit() == k)
                    m.run->restore(at, state);
        };
        if (!lead_) {
            restore(file_->units[k].state);
            return;
        }
        if (!wanted && !lead_->keeps())
            return;
        const std::string &state = lead_->capture();
        restore(state);
        if (lead_->keeps())
            lead_->keep(k, state);
    }

    std::unique_ptr<FullRun> lead_;
    std::size_t leadSlot_ = 0;
    const CheckpointFile *file_ = nullptr;
    std::vector<Member> replays_;
    std::size_t point_ = 0; ///< next unit whose live point is due
    std::uint64_t at_ = 0;  ///< where the replays stand in the stream
};

/**
 * Run @p groups over one forward pass of @p source, pulled through
 * PipelinedFeeder on this thread, and stop once every run is done.
 * Groups share no state, so each span goes to them through one
 * parallelFor: each group sees the spans in stream order and keeps
 * its results in its own runs, whatever the thread count.
 */
void
runPass(RefSource &source, std::vector<Group> &groups)
{
    std::size_t runs = 0;
    for (const Group &group : groups)
        runs += group.runs();
    trace_event::Span pass(trace_event::Cat::Sweep,
                           "smarts pass groups=" +
                               std::to_string(groups.size()) +
                               " runs=" + std::to_string(runs) +
                               " trace=" + source.name());
    PipelinedFeeder feeder(source);
    std::uint64_t at = 0;
    auto pending = [&] {
        return std::any_of(groups.begin(), groups.end(),
                           [](const Group &g) { return !g.done(); });
    };
    while (pending()) {
        ChunkFeeder::Span span = feeder.next();
        if (!span)
            fatal("smarts: stream '%s' ended after %llu of its %llu "
                  "references",
                  source.name().c_str(),
                  static_cast<unsigned long long>(at),
                  static_cast<unsigned long long>(source.size()));
        parallelFor(groups.size(), [&](std::size_t g) {
            groups[g].feed(span.data, at, at + span.size);
        });
        at += span.size;
    }
}

/** The full run of @p config, keeping its live points in @p keep. */
SmartsRunResult
fullPass(const SystemConfig &config, RefSource &source,
         const SmartsConfig &cfg, CheckpointFile *keep)
{
    std::uint64_t hash = keep ? source.contentHash() : 0;
    std::vector<Group> groups;
    groups.emplace_back(
        std::make_unique<FullRun>(config, source, cfg, keep != nullptr),
        0);
    runPass(source, groups);
    return groups[0].lead()->finish(keep, hash);
}

/** Replay @p config from the live points in @p checkpoint. */
SmartsRunResult
replay(const SystemConfig &config, RefSource &source,
       const SmartsConfig &cfg, const CheckpointFile &checkpoint)
{
    std::uint64_t hash = source.contentHash();
    if (checkpoint.traceHash != hash)
        fatal("smarts: checkpoint was taken over a different trace "
              "(hash %016llx, this trace %016llx)",
              static_cast<unsigned long long>(checkpoint.traceHash),
              static_cast<unsigned long long>(hash));
    if (checkpoint.streamRefs != source.size())
        fatal("smarts: checkpoint stream length %llu does not match "
              "the trace (%llu refs)",
              static_cast<unsigned long long>(checkpoint.streamRefs),
              static_cast<unsigned long long>(source.size()));
    const bool exact =
        checkpoint.exactKey == exactStateKey(config, hash);
    if (!exact && !(checkpoint.warmKey == warmStateKey(config)))
        fatal("smarts: checkpoint L1/TLB organization does not match "
              "this config (warm-key mismatch)");

    // The unit layout is the checkpoint's, not the caller's: replay
    // can only measure where live points exist.
    SmartsConfig plan_cfg = cfg;
    plan_cfg.unitRefs = checkpoint.unitRefs;
    plan_cfg.warmupRefs = checkpoint.warmupRefs;
    plan_cfg.periodRefs = checkpoint.periodRefs;
    SmartsPlan plan =
        planSmarts(source.size(), source.warmStart(), plan_cfg);
    const std::size_t n_units = plan.units.size();
    if (n_units != checkpoint.units.size())
        fatal("smarts: checkpoint has %zu units where the plan "
              "expects %zu (inconsistent checkpoint)",
              checkpoint.units.size(), n_units);
    for (std::size_t k = 0; k < n_units; ++k) {
        const CheckpointUnit &cu = checkpoint.units[k];
        if (cu.beginPos != plan.units[k].begin)
            fatal("smarts: checkpoint unit %zu begins at %llu, plan "
                  "says %llu (inconsistent checkpoint)",
                  k, static_cast<unsigned long long>(cu.beginPos),
                  static_cast<unsigned long long>(
                      plan.units[k].begin));
        // The pass replays units in stream order, one at a time.
        if (k > 0 && checkpoint.units[k - 1].endPos > cu.cpPos)
            fatal("smarts: checkpoint unit %zu ends at %llu, after "
                  "unit %zu's live point at %llu (inconsistent "
                  "checkpoint)",
                  k - 1,
                  static_cast<unsigned long long>(
                      checkpoint.units[k - 1].endPos),
                  k, static_cast<unsigned long long>(cu.cpPos));
    }

    std::vector<Group> groups;
    groups.emplace_back(checkpoint);
    groups[0].addReplay(0, config,
                        exact ? SmartsMode::ExactReplay
                              : SmartsMode::WarmReplay,
                        plan, source.name());
    runPass(source, groups);
    std::vector<SmartsRunResult> out(1);
    groups[0].collect(out);
    return std::move(out[0]);
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
    TraceRefSource source(trace);
    return fullPass(config, source, cfg, checkpoint_out);
}

SmartsRunResult
runSmartsReplay(const SystemConfig &config, const Trace &trace,
                const SmartsConfig &cfg,
                const CheckpointFile &checkpoint)
{
    TraceRefSource source(trace);
    return replay(config, source, cfg, checkpoint);
}

SmartsRunResult
runSmarts(const SystemConfig &config, RefSource &source,
          const SmartsOptions &options)
{
    const SmartsConfig &cfg = options.cfg;
    cfg.validate();
    classicOnly(config);
    if (options.checkpointDir.empty())
        return fullPass(config, source, cfg, nullptr);
    ensureDir(options.checkpointDir);
    std::string path =
        options.checkpointDir + "/" +
        checkpointFileName(source.contentHash(), warmStateKey(config),
                           cfg.unitRefs, cfg.warmupRefs,
                           cfg.periodRefs);
    if (fileExists(path))
        return replay(config, source, cfg, loadCheckpoint(path));
    CheckpointFile cp;
    SmartsRunResult out = fullPass(config, source, cfg, &cp);
    writeCheckpoint(cp, path);
    return out;
}

std::vector<SmartsRunResult>
runSmartsMany(const std::vector<SystemConfig> &configs,
              RefSource &source, const SmartsConfig &cfg)
{
    // The first config of each warm-key group runs the full run; the
    // rest of the group replays its units on the same pass, each
    // restoring from the live point the full run has just taken.
    // Both exact keys of a comparison hash one stream, so any fixed
    // trace hash decides it; the source is never hashed here.
    std::vector<Group> groups;
    std::vector<SimKey> keys;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SimKey wk = warmStateKey(configs[i]);
        auto found = std::find(keys.begin(), keys.end(), wk);
        if (found == keys.end()) {
            keys.push_back(wk);
            groups.emplace_back(
                std::make_unique<FullRun>(configs[i], source, cfg, false),
                i);
            continue;
        }
        Group &group = groups[found - keys.begin()];
        const FullRun &lead = *group.lead();
        bool exact = exactStateKey(configs[i], 0) ==
                     exactStateKey(lead.config(), 0);
        group.addReplay(i, configs[i],
                        exact ? SmartsMode::ExactReplay
                              : SmartsMode::WarmReplay,
                        lead.plan(), source.name());
    }
    runPass(source, groups);
    std::vector<SmartsRunResult> out(configs.size());
    for (Group &group : groups)
        group.collect(out);
    return out;
}

} // namespace cachetime
