/**
 * @file
 * cachetime_verify: the differential verification harness CLI.
 *
 * Runs the property fuzzer (random machines + random traces,
 * fast path vs. reference oracle, exact counter agreement) or
 * replays a repro file dumped by a previous failure.
 *
 * Usage:
 *   cachetime_verify [options]
 *     --fuzz N        run N consecutive seeds (default 1000)
 *     --fuzz-io N     fuzz the trace loaders with N random
 *                     truncated/corrupt files instead; loaders must
 *                     accept or fatal() cleanly, never crash
 *     --seed S        first seed (default 1)
 *     --repro FILE    replay one repro file and print the diff
 *     --case SEED     run one generated case verbosely
 *     --repro-dir DIR where failure repros are written (default .)
 *     --progress-out SPEC stream NDJSON progress records per case to
 *                     SPEC: "-" = stderr, "fd:N" = inherited fd,
 *                     otherwise a file path
 *     --no-minimize   dump the raw failing case without shrinking
 *     --load-one FILE (internal) drain one trace file and exit;
 *                     the I/O fuzzer re-execs itself with this
 *
 * Counts are decimal digits only; anything else is fatal.  Exit
 * status is 0 when every case agreed, 1 on any mismatch.
 */

#include <cstdio>
#include <string>

#include "stats/progress.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "verify/diff.hh"
#include "verify/fuzz.hh"
#include "verify/io_fuzz.hh"

using namespace cachetime;

namespace
{

/** Run one case and report; @return true when the sims agreed. */
bool
reportCase(const verify::FuzzCase &fuzz_case, const char *what)
{
    verify::CaseOutcome outcome = verify::checkCase(fuzz_case);
    if (!outcome.mismatch) {
        std::printf("%s: ok (%zu refs, %lld cycles, %s)\n", what,
                    fuzz_case.trace.size(),
                    static_cast<long long>(outcome.fast.cycles),
                    outcome.fast.configSummary.c_str());
        return true;
    }
    std::printf("%s: MISMATCH (%zu refs, %s)\n%s", what,
                fuzz_case.trace.size(),
                outcome.fast.configSummary.c_str(),
                verify::formatDiffs(outcome.diffs).c_str());
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    verify::FuzzOptions options;
    options.cases = 1000;
    std::string repro_path;
    std::string load_one_path;
    bool single_case = false;
    bool io_fuzz = false;
    std::uint64_t io_cases = 0;
    std::uint64_t single_seed = 0;
    std::string progress_spec;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("cachetime_verify: %s needs a value",
                      arg.c_str());
            return argv[++i];
        };
        auto count = [&] {
            const std::string what = "cachetime_verify: " + arg;
            return parseNumber<std::uint64_t>(value(), what.c_str());
        };
        if (arg == "--fuzz")
            options.cases = count();
        else if (arg == "--fuzz-io") {
            io_fuzz = true;
            io_cases = count();
        } else if (arg == "--load-one")
            load_one_path = value();
        else if (arg == "--seed")
            options.seed = count();
        else if (arg == "--repro")
            repro_path = value();
        else if (arg == "--case") {
            single_case = true;
            single_seed = count();
        } else if (arg == "--repro-dir")
            options.reproDir = value();
        else if (arg == "--progress-out")
            progress_spec = value();
        else if (arg == "--no-minimize")
            options.minimize = false;
        else
            fatal("cachetime_verify: unknown option '%s'",
                  arg.c_str());
    }

    if (!load_one_path.empty()) {
        verify::drainTraceFile(load_one_path);
        return 0;
    }
    ProgressMeter meter;
    if (!progress_spec.empty()) {
        if (!meter.openSpec(progress_spec))
            fatal("cachetime_verify: cannot open progress sink "
                  "'%s'", progress_spec.c_str());
        meter.setTool("cachetime_verify");
        meter.setLabel(io_fuzz ? "io-fuzz" : "fuzz");
        options.progress = &meter;
    }
    if (io_fuzz) {
        verify::IoFuzzOptions io_options;
        io_options.seed = options.seed;
        io_options.cases = io_cases ? io_cases : 500;
        io_options.workDir = options.reproDir;
        io_options.progress = options.progress;
        verify::IoFuzzReport report = verify::runIoFuzz(io_options);
        if (report.failures == 0) {
            std::printf("io fuzz: %llu cases, all clean (%llu "
                        "accepted, %llu rejected)\n",
                        static_cast<unsigned long long>(
                            report.casesRun),
                        static_cast<unsigned long long>(
                            report.accepted),
                        static_cast<unsigned long long>(
                            report.rejected));
            return 0;
        }
        std::printf("io fuzz: LOADER FAILURE at seed %llu after "
                    "%llu cases\ninput kept at %s\n",
                    static_cast<unsigned long long>(
                        report.firstBadSeed),
                    static_cast<unsigned long long>(report.casesRun),
                    report.reproPath.c_str());
        return 1;
    }
    if (!repro_path.empty()) {
        verify::FuzzCase fuzz_case = verify::loadRepro(repro_path);
        return reportCase(fuzz_case, repro_path.c_str()) ? 0 : 1;
    }
    if (single_case) {
        verify::FuzzCase fuzz_case =
            verify::generateCase(single_seed);
        std::string label = "seed " + std::to_string(single_seed);
        return reportCase(fuzz_case, label.c_str()) ? 0 : 1;
    }

    verify::FuzzReport report = verify::runFuzz(options);
    if (report.mismatches == 0) {
        std::printf("fuzz: %llu cases, all agreed (seeds %llu..%llu)\n",
                    static_cast<unsigned long long>(report.casesRun),
                    static_cast<unsigned long long>(options.seed),
                    static_cast<unsigned long long>(
                        options.seed + options.cases - 1));
        return 0;
    }
    std::printf("fuzz: MISMATCH at seed %llu after %llu cases\n%s",
                static_cast<unsigned long long>(report.firstBadSeed),
                static_cast<unsigned long long>(report.casesRun),
                report.firstDiff.c_str());
    std::printf("repro written to %s\n", report.reproPath.c_str());
    return 1;
}
