/**
 * @file
 * Extension: SMARTS-style sampling error on the Figure 3-1 grid.
 *
 * The old version of this bench measured the bias of ad-hoc
 * periodic time windows; the systematic sampling engine (core/
 * smarts.hh) replaces that shortcut with estimates carrying Student-t
 * confidence intervals.  This bench quantifies the tradeoff on the
 * paper's own Figure 3-1 size axis:
 *
 *  - per size point, config A (the 40ns baseline) runs the sampled
 *    full pass, capturing live-points checkpoints in memory, and
 *    config B (80ns, same L1 organization, so the warm key matches)
 *    replays only the sampled units from them;
 *  - every estimate is compared against the full-run truth.  Truths
 *    are pinned once per (trace hash, config key) - and the
 *    timing-independent miss-ratio truth once per (trace hash, warm
 *    key), shared across the cycle-time sweep - instead of
 *    re-simulating the baseline at every row;
 *  - reported: CI coverage of the truth, mean |relative error|,
 *    mean relative CI half-width, and the replay fraction of the
 *    checkpointed config-B runs.
 *
 * Invoked as `ext_sampling [--json [PATH]]` (or `--json=PATH`;
 * PATH defaults to BENCH_sampling.json); the JSON report asserts
 * that checkpointed replays re-simulate under 10% of the stream
 * (exit code 2 when they do not).  CACHETIME_BENCH_SCALE resizes
 * the traces.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <utility>

#include "bench/common.hh"
#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/smarts.hh"
#include "trace/ref_source.hh"

using namespace cachetime;
using namespace cachetime::bench;

namespace
{

/** Sampling parameters scaled to the stream so every trace yields a
 * usable plan and replays stay well under the 10% budget. */
SmartsConfig
tunedSampling(std::uint64_t stream_refs)
{
    SmartsConfig cfg;
    cfg.unitRefs = 100;
    cfg.warmupRefs = 300;
    std::uint64_t floor_period =
        10 * (cfg.unitRefs + cfg.warmupRefs);
    cfg.periodRefs = std::max(floor_period, stream_refs / 24);
    cfg.pilotUnits = 6;
    return cfg;
}

/** One (size point, trace, config) estimate vs. pinned truth. */
struct Sample
{
    SmartsMode mode;
    double replayFraction;
    bool cpiCovered, missCovered;
    double cpiRelErr, missRelErr;
    double cpiRelHalf; ///< CI half-width / truth
};

struct Accumulator
{
    std::vector<Sample> samples;

    double
    coverage() const
    {
        if (samples.empty())
            return 0.0;
        std::size_t in = 0;
        for (const Sample &s : samples)
            in += s.cpiCovered + s.missCovered;
        return static_cast<double>(in) /
               static_cast<double>(2 * samples.size());
    }

    double
    mean(double Sample::*field) const
    {
        double sum = 0.0;
        for (const Sample &s : samples)
            sum += s.*field;
        return samples.empty()
                   ? 0.0
                   : sum / static_cast<double>(samples.size());
    }

    double
    maxReplay() const
    {
        double m = 0.0;
        for (const Sample &s : samples)
            m = std::max(m, s.replayFraction);
        return m;
    }
};

using TruthKey = std::pair<std::uint64_t, std::uint64_t>;

TruthKey
key(const SimKey &k, std::uint64_t trace_hash)
{
    return {k.lo ^ trace_hash, k.hi};
}

} // namespace

int
main(int argc, char **argv)
{
    const JsonFlag json =
        jsonFlag(argc, argv, "ext_sampling", "BENCH_sampling.json");

    auto traces = standardTraces(0.10);
    auto sizes = sizeAxisWordsEach();

    // Pinned full-run truths: CPI per exact (config, trace) key,
    // the timing-independent miss ratio per (warm key, trace hash)
    // so the 80ns config reuses the 40ns config's full run.
    std::map<TruthKey, double> cpi_truth;
    std::map<TruthKey, double> miss_truth;
    std::uint64_t truth_runs = 0, truth_hits = 0;

    auto truths = [&](const SystemConfig &config,
                      const Trace &trace) {
        std::uint64_t hash = traceIdentityHash(trace);
        TruthKey exact = key(simKey(config, hash), hash);
        TruthKey warm = key(warmStateKey(config), hash);
        auto hit = cpi_truth.find(exact);
        if (hit != cpi_truth.end()) {
            ++truth_hits;
            return std::pair<double, double>{hit->second,
                                             miss_truth[warm]};
        }
        auto miss_hit = miss_truth.find(warm);
        ++truth_runs;
        SimResult r = simulateOne(config, trace);
        cpi_truth[exact] = r.cyclesPerRef();
        if (miss_hit == miss_truth.end())
            miss_truth[warm] = r.readMissRatio();
        else
            ++truth_hits; // timing-only revisit: miss truth reused
        return std::pair<double, double>{cpi_truth[exact],
                                         miss_truth[warm]};
    };

    Accumulator full_pass, replay;
    for (std::uint64_t words_each : sizes) {
        SystemConfig a = SystemConfig::paperDefault();
        a.setL1SizeWordsEach(words_each);
        SystemConfig b = a;
        b.cycleNs = 80.0;
        for (const Trace &trace : traces) {
            TraceRefSource source(trace);
            std::vector<SmartsRunResult> runs = runSmartsMany(
                {a, b}, source, tunedSampling(trace.size()));
            const SystemConfig *configs[] = {&a, &b};
            for (std::size_t c = 0; c < runs.size(); ++c) {
                const SmartsRunResult &run = runs[c];
                auto [cpi_true, miss_true] =
                    truths(*configs[c], trace);
                Sample s;
                s.mode = run.mode;
                s.replayFraction = run.replayFraction();
                s.cpiCovered =
                    run.estimate.cpi.contains(cpi_true);
                s.missCovered =
                    run.estimate.readMissRatio.contains(miss_true);
                s.cpiRelErr =
                    std::abs(run.estimate.cpi.mean - cpi_true) /
                    cpi_true;
                s.missRelErr =
                    miss_true > 0.0
                        ? std::abs(run.estimate.readMissRatio.mean -
                                   miss_true) /
                              miss_true
                        : 0.0;
                s.cpiRelHalf =
                    run.estimate.cpi.halfWidth / cpi_true;
                (run.mode == SmartsMode::FullPass ? full_pass
                                                  : replay)
                    .samples.push_back(s);
            }
        }
    }

    TablePrinter table({"runs", "n", "CI coverage", "|cpi err|",
                        "ci half/cpi", "replay frac"});
    auto row = [&](const char *name, const Accumulator &acc) {
        table.addRow(
            {name, std::to_string(acc.samples.size()),
             TablePrinter::fmt(acc.coverage(), 3),
             TablePrinter::fmt(acc.mean(&Sample::cpiRelErr), 4),
             TablePrinter::fmt(acc.mean(&Sample::cpiRelHalf), 4),
             TablePrinter::fmt(acc.mean(&Sample::replayFraction),
                               4)});
    };
    row("full pass (40ns)", full_pass);
    row("ckpt replay (80ns)", replay);
    emit(table, "Extension: SMARTS sampling vs full-run truth "
                "(Fig 3-1 size axis)");
    std::cout << "truth runs: " << truth_runs
              << ", pinned reuses: " << truth_hits << '\n';

    bool replay_ok = replay.maxReplay() < 0.10;
    if (json.given) {
        std::ofstream out(json.path);
        if (!out) {
            warn("ext_sampling: cannot open %s for writing",
                 json.path.c_str());
            return 1;
        }
        out << "{\n"
            << "  \"bench\": \"ext_sampling\",\n"
            << "  \"grid\": \"fig3 L1 size axis, 40ns full pass + "
               "80ns checkpoint replay\",\n"
            << "  \"size_points\": " << sizes.size() << ",\n"
            << "  \"traces\": " << traces.size() << ",\n"
            << "  \"truth_runs\": " << truth_runs << ",\n"
            << "  \"truth_reuses\": " << truth_hits << ",\n"
            << "  \"full_pass\": {\"n\": " << full_pass.samples.size()
            << ", \"ci_coverage\": " << full_pass.coverage()
            << ", \"mean_abs_rel_err_cpi\": "
            << full_pass.mean(&Sample::cpiRelErr)
            << ", \"mean_rel_ci_half_cpi\": "
            << full_pass.mean(&Sample::cpiRelHalf) << "},\n"
            << "  \"replay\": {\"n\": " << replay.samples.size()
            << ", \"ci_coverage\": " << replay.coverage()
            << ", \"mean_abs_rel_err_cpi\": "
            << replay.mean(&Sample::cpiRelErr)
            << ", \"mean_replay_fraction\": "
            << replay.mean(&Sample::replayFraction)
            << ", \"max_replay_fraction\": " << replay.maxReplay()
            << "},\n"
            << "  \"replay_under_10pct\": "
            << (replay_ok ? "true" : "false") << "\n}\n";
    }
    if (!replay_ok) {
        warn("ext_sampling: checkpointed replay re-simulated %.1f%% "
             "of the stream (budget 10%%)",
             100.0 * replay.maxReplay());
        return 2;
    }
    return 0;
}
