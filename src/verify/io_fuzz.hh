/**
 * @file
 * Robustness fuzzing of the trace I/O layer.
 *
 * Each case writes a small random file in one of the four on-disk
 * formats (text, din and CTTRACE2 traces, or a live-points
 * checkpoint), then mutilates the bytes - truncation, bit flips,
 * garbage splices, or nothing at all - and loads the result in a
 * forked child: checkpoints through loadCheckpoint(), traces
 * through loadFile(), which drains openRefSource()'s stream to the
 * end.  The loaders must either accept the file (exit 0) or
 * reject it with fatal() (exit 1); any signal, sanitizer abort or
 * other exit status is a loader bug and the offending file is kept
 * as a repro.
 */

#ifndef CACHETIME_VERIFY_IO_FUZZ_HH
#define CACHETIME_VERIFY_IO_FUZZ_HH

#include <cstdint>
#include <string>

namespace cachetime
{

class ProgressMeter;

namespace verify
{

/** I/O fuzzing campaign parameters. */
struct IoFuzzOptions
{
    std::uint64_t seed = 1;     ///< seed of the first case
    std::uint64_t cases = 500;  ///< number of consecutive seeds
    std::string workDir = ".";  ///< scratch + repro directory
    /** One progress phase of `cases` cases, or nullptr for none. */
    ProgressMeter *progress = nullptr;
};

/** Campaign result; `failures == 0` means the loaders held up. */
struct IoFuzzReport
{
    std::uint64_t casesRun = 0;
    std::uint64_t accepted = 0;   ///< loaded successfully
    std::uint64_t rejected = 0;   ///< cleanly refused via fatal()
    std::uint64_t failures = 0;   ///< crashes / aborts / bad exits
    std::uint64_t firstBadSeed = 0;
    std::string reproPath;        ///< input file kept for the first failure
};

/**
 * Run @p options.cases consecutive seeds.  Stops at the first
 * failure, keeping the input file; intermediate files from clean
 * cases are deleted.  Reports one update per case to
 * @p options.progress, if any, and finishes its phase.
 */
IoFuzzReport runIoFuzz(const IoFuzzOptions &options);

/**
 * Load @p path exactly as one fuzz child does: a checkpoint through
 * loadCheckpoint(), a trace through loadFile(), which streams
 * openRefSource() to exhaustion.  The fuzzer re-execs the harness
 * binary with `--load-one FILE` to run this in a fresh process.
 */
void drainTraceFile(const std::string &path);

} // namespace verify
} // namespace cachetime

#endif // CACHETIME_VERIFY_IO_FUZZ_HH
