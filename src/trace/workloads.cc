#include "trace/workloads.hh"

#include <cstdlib>
#include <cmath>
#include <limits>

#include "trace/interleave.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/parse.hh"
#include "util/rng.hh"

namespace cachetime
{

std::vector<WorkloadSpec>
table1Workloads()
{
    // Process counts, lengths and footprint scales follow Table 1:
    // the VAX traces touch 25K-50K unique words in total, the R2000
    // traces 240K-450K (their init prefix counts every address
    // touched before the window).
    std::vector<WorkloadSpec> specs;
    specs.push_back({"mu3", 7, 1'439'000, 450'000, false, 0, 101, 0.9});
    specs.push_back({"mu6", 11, 1'543'000, 450'000, false, 0, 102, 1.0});
    specs.push_back({"mu10", 14, 1'094'000, 450'000, false, 0, 103, 0.8});
    specs.push_back({"savec", 6, 1'162'000, 450'000, false, 0, 104, 0.7});
    specs.push_back({"rd1n3", 3, 1'489'000, 0, true, 0, 105, 1.3});
    specs.push_back({"rd2n4", 4, 1'314'000, 0, true, 0, 106, 0.9});
    specs.push_back({"rd1n5", 5, 1'314'000, 0, true, 1, 107, 0.8});
    specs.push_back({"rd2n7", 7, 1'678'000, 0, true, 1, 108, 0.9});
    return specs;
}

std::vector<ProcessModel>
workloadProcesses(const WorkloadSpec &spec)
{
    Rng seeder(spec.seed * 0x9e3779b97f4a7c15ULL + 0xc0ffee);
    std::vector<ProcessModel> processes;
    processes.reserve(spec.processes);
    for (unsigned p = 0; p < spec.processes; ++p) {
        ProcessProfile profile = spec.risc
            ? ProcessProfile::riscProfile()
            : ProcessProfile::vaxProfile();
        // Diversify footprints across the process mix (compilers,
        // editors, searchers... differ widely in working-set size):
        // log-uniform over 0.125x .. 4x, so the "working set fits"
        // transition spreads across the whole size axis instead of
        // clustering at one cache size.
        double jitter = std::exp(std::log(0.125) +
                                 seeder.uniform() * std::log(32.0));
        double f = spec.footprintScale * jitter;
        profile.codeWords =
            static_cast<std::uint64_t>(profile.codeWords * f);
        profile.dataWords =
            static_cast<std::uint64_t>(profile.dataWords * f);
        if (profile.codeWords < 256)
            profile.codeWords = 256;
        if (profile.dataWords < 256)
            profile.dataWords = 256;
        // The shared segment is common to all processes, so its size
        // is not jittered with the private footprints.
        profile.sharedFraction = spec.sharedFraction;
        profile.sharedWords = spec.sharedWords;
        if (spec.zeroingProcs > 0 &&
            p >= spec.processes - spec.zeroingProcs) {
            // grep/egrep-style start-up: zero the data space first.
            profile.zeroingWords = profile.dataWords;
        }
        processes.emplace_back(profile, static_cast<Pid>(p + 1),
                               seeder.next());
    }
    return processes;
}

std::unique_ptr<InterleaveSource>
makeWorkloadSource(const WorkloadSpec &spec, double scale)
{
    if (!(scale > 0.0) || !std::isfinite(scale))
        fatal("workloads: scale must be positive and finite, got %g",
              scale);
    if (spec.processes == 0)
        fatal("workloads: '%s' has zero processes", spec.name.c_str());

    // Each count below converts a scaled double to an integer; a
    // value of 2^63 or more would convert to garbage.
    auto count = [&](double refs) {
        if (!(refs < 0x1p63))
            fatal("workloads: scale %g gives '%s' %g references, "
                  "more than 2^63",
                  scale, spec.name.c_str(), refs);
        return static_cast<std::size_t>(refs);
    };
    InterleaveConfig cfg;
    cfg.lengthRefs = count(spec.lengthRefs * scale);
    // The context-switch interval is a property of the workload, not
    // of the trace length, so it is not scaled down.
    cfg.meanSliceRefs = 20'000;
    cfg.seed = spec.seed ^ 0xabcdef12345ULL;
    // Every workload gets the warm-start prefix: the footprint in
    // recency order (the R2000 traces' device, which also stands in
    // for the VAX traces' long pre-boundary history).  The prefix
    // length itself becomes the warm boundary, extended by the
    // paper's scaled 450K-reference boundary for the VAX traces.
    cfg.prefixSampleRefs = count(spec.lengthRefs * scale / 4);
    cfg.warmStartRefs = count(spec.warmStartRefs * scale);
    return std::make_unique<InterleaveSource>(
        spec.name, workloadProcesses(spec), cfg);
}

Trace
generate(const WorkloadSpec &spec, double scale)
{
    auto source = makeWorkloadSource(spec, scale);
    return materialize(*source);
}

std::vector<Trace>
generateTable1(double scale)
{
    // Each workload derives every RNG stream from its own seed, so
    // the traces are identical whichever order (or thread) builds
    // them; slot i of the result is always workload i of Table 1.
    std::vector<WorkloadSpec> specs = table1Workloads();
    inform("generating %zu Table 1 workloads (scale %.2f) on %u "
           "thread(s)...",
           specs.size(), scale, parallelThreads());
    return parallelMap<Trace>(specs.size(), [&](std::size_t i) {
        return generate(specs[i], scale);
    });
}

double
benchScale(double fallback)
{
    const char *env = std::getenv("CACHETIME_SCALE");
    return env ? parseNumber<double>(env, "CACHETIME_SCALE",
                                     std::numeric_limits<double>::min())
               : fallback;
}

} // namespace cachetime
