#include "verify/io_fuzz.hh"

#include <sys/types.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

#include "sim/checkpoint.hh"
#include "stats/progress.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cachetime
{
namespace verify
{

namespace
{

/** Draw a small, well-formed trace for one case. */
Trace
randomTrace(Rng &rng)
{
    std::size_t n = 1 + rng.below(200);
    std::vector<Ref> refs;
    refs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Ref r;
        r.addr = rng.below(1u << 20);
        r.kind = static_cast<RefKind>(rng.below(3));
        r.pid = static_cast<Pid>(rng.below(4));
        refs.push_back(r);
    }
    std::size_t warm = rng.chance(0.5) ? 0 : rng.below(n);
    return Trace("iofuzz", std::move(refs), warm);
}

/** A structurally valid checkpoint with random plan and blobs. */
void
writeCheckpointCase(const std::string &path, Rng &rng)
{
    CheckpointFile cp;
    cp.traceHash = rng.next();
    cp.warmKey = {rng.next(), rng.next()};
    cp.exactKey = {rng.next(), rng.next()};
    cp.unitRefs = 1 + rng.below(500);
    cp.warmupRefs = 1 + rng.below(1000);
    cp.streamRefs = 10'000 + rng.below(100'000);
    cp.periodRefs = cp.unitRefs + cp.warmupRefs + rng.below(2000);
    std::uint64_t n_units = 1 + rng.below(6);
    std::uint64_t pos = rng.below(1000);
    for (std::uint64_t i = 0; i < n_units; ++i) {
        CheckpointUnit unit;
        unit.cpPos = pos;
        unit.beginPos = unit.cpPos + cp.warmupRefs;
        unit.endPos = unit.beginPos + cp.unitRefs;
        if (unit.endPos > cp.streamRefs)
            break;
        unit.state.resize(rng.below(300));
        for (char &c : unit.state)
            c = static_cast<char>(rng.below(256));
        cp.units.push_back(std::move(unit));
        pos += cp.periodRefs;
    }
    writeCheckpoint(cp, path);
}

/**
 * The four disk formats a case draws from (text, Dinero, CTTRACE2, a
 * checkpoint), by the suffix that selects each one's writer and
 * reader.
 */
constexpr const char *caseSuffixes[] = {".txt", ".din", ".v2", ".ckpt"};
constexpr unsigned checkpointCase = 3;

/** Read the whole file at @p path. */
std::string
slurpBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Corrupt the byte image of one case: truncate, flip bytes, splice
 * random garbage, or leave it intact (the loaders must keep
 * accepting clean files too).
 */
void
mutateFile(const std::string &path, Rng &rng)
{
    std::string bytes = slurpBytes(path);
    switch (rng.below(4)) {
    case 0:
        break; // intact
    case 1:
        bytes.resize(rng.below(bytes.size() + 1));
        break;
    case 2: {
        std::uint64_t flips = 1 + rng.below(8);
        for (std::uint64_t i = 0; i < flips && !bytes.empty(); ++i)
            bytes[rng.below(bytes.size())] =
                static_cast<char>(rng.below(256));
        break;
    }
    default: {
        std::size_t at = rng.below(bytes.size() + 1);
        std::size_t len = 1 + rng.below(64);
        std::string junk(len, '\0');
        for (char &c : junk)
            c = static_cast<char>(rng.below(256));
        bytes.insert(at, junk);
        break;
    }
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Child outcome classification. */
enum class ChildResult { Accepted, Rejected, Failed };

ChildResult
loadInChild(const std::string &path)
{
    pid_t child = fork();
    if (child < 0)
        fatal("io_fuzz: fork failed");
    if (child == 0) {
        // Errors are expected by the hundreds; keep them off the
        // terminal.  Failures are reproduced by re-loading the kept
        // file directly.
        int devnull = open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            dup2(devnull, 1);
            dup2(devnull, 2);
            close(devnull);
        }
        // Re-exec so sanitizer runtimes re-read their options:
        // abort_on_error makes an ASAN finding die by signal, which
        // the parent can tell apart from fatal()'s exit(1).
        const char *old = getenv("ASAN_OPTIONS");
        std::string opts = old ? std::string(old) + ":" : "";
        opts += "abort_on_error=1";
        setenv("ASAN_OPTIONS", opts.c_str(), 1);
        execl("/proc/self/exe", "cachetime_verify", "--load-one",
              path.c_str(), static_cast<char *>(nullptr));
        // No /proc (or a non-reexecable host binary): drain in
        // process.  Classification still works, minus the ASAN
        // exit-code disambiguation.
        drainTraceFile(path);
        std::exit(0);
    }
    int status = 0;
    if (waitpid(child, &status, 0) != child)
        fatal("io_fuzz: waitpid failed");
    if (WIFEXITED(status)) {
        if (WEXITSTATUS(status) == 0)
            return ChildResult::Accepted;
        if (WEXITSTATUS(status) == 1)
            return ChildResult::Rejected;
        return ChildResult::Failed; // unexpected exit code
    }
    return ChildResult::Failed; // signalled: crash or abort
}

} // namespace

void
drainTraceFile(const std::string &path)
{
    // Checkpoint files share the fuzz harness with the trace
    // formats: sniff the magic and route to the checkpoint loader,
    // which must likewise accept or die with a clean fatal().
    std::string head = slurpBytes(path);
    if (looksLikeCheckpoint(head.data(), head.size())) {
        CheckpointFile cp = loadCheckpoint(path);
        (void)cp;
        return;
    }
    Trace trace = loadFile(path);
    (void)trace;
}

IoFuzzReport
runIoFuzz(const IoFuzzOptions &options)
{
    IoFuzzReport report;
    ProgressMeter *meter = options.progress;
    if (meter)
        meter->setTotal(options.cases, "cases");
    for (std::uint64_t i = 0; i < options.cases; ++i) {
        std::uint64_t seed = options.seed + i;
        Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x1005);
        Trace trace = randomTrace(rng);
        auto format =
            static_cast<unsigned>(rng.below(std::size(caseSuffixes)));
        std::string path = options.workDir + "/io_fuzz_" +
                           std::to_string(seed) + caseSuffixes[format];
        if (format == checkpointCase)
            writeCheckpointCase(path, rng);
        else
            saveFile(trace, path);
        mutateFile(path, rng);

        ChildResult result = loadInChild(path);
        ++report.casesRun;
        if (meter)
            meter->update(report.casesRun);
        if (result == ChildResult::Failed) {
            ++report.failures;
            report.firstBadSeed = seed;
            report.reproPath = path;
            break; // keep the file as the repro
        }
        if (result == ChildResult::Accepted)
            ++report.accepted;
        else
            ++report.rejected;
        std::remove(path.c_str());
    }
    if (meter)
        meter->finish();
    return report;
}

} // namespace verify
} // namespace cachetime
