/**
 * @file
 * Property-based differential fuzzing of the simulator.
 *
 * Each case is a (SystemConfig, Trace) pair drawn deterministically
 * from a single 64-bit seed: a random machine from the paper's
 * design space (split/unified L1s, write policies, sub-block
 * fetching, every write-buffer knob, banked memory, optional L2 and
 * TLB) and a short synthetic reference stream with enough locality
 * to hit and enough spread to miss.  Both simulators run the case
 * and must agree on every counter (see verify/diff.hh).
 *
 * On a mismatch the harness shrinks the case - ddmin over the
 * trace, then a fixpoint of config simplifications - and writes a
 * standalone repro file (config key=values + text trace + seed)
 * that `cachetime_verify --repro FILE` replays directly.  The
 * config lines are configKeyValues() and are read back by
 * applyKeyValues(): the key=value format lives in
 * sim/system_config.hh, and this file knows none of its keys.
 */

#ifndef CACHETIME_VERIFY_FUZZ_HH
#define CACHETIME_VERIFY_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system_config.hh"
#include "trace/trace.hh"
#include "verify/diff.hh"

namespace cachetime
{

class ProgressMeter;

namespace verify
{

/** One generated (or loaded) differential test case. */
struct FuzzCase
{
    SystemConfig config;
    Trace trace;
    std::uint64_t seed = 0; ///< generating seed, 0 for loaded cases
};

/** Draw the case for @p seed (pure function of the seed). */
FuzzCase generateCase(std::uint64_t seed);

/**
 * Like generateCase() but always a coherent multi-core machine over
 * a sharing-heavy trace (the coherent oracle-agreement tests want
 * every seed exercising the protocol, not the ~25% the mixed
 * generator yields).
 */
FuzzCase generateCoherentCase(std::uint64_t seed);

/** What running one case through both simulators produced. */
struct CaseOutcome
{
    bool mismatch = false;
    std::vector<FieldDiff> diffs;
    SimResult fast;
    SimResult oracle;
};

/** Run @p fuzz_case on the fast path and the oracle and compare. */
CaseOutcome checkCase(const FuzzCase &fuzz_case);

/**
 * Shrink a mismatching case: remove trace chunks (ddmin), zero the
 * warm start, then simplify the config toward the baseline machine,
 * keeping every step that still mismatches.  @return the smallest
 * case found (the input itself if nothing could be removed).
 */
FuzzCase minimizeCase(const FuzzCase &fuzz_case);

/**
 * Serialize @p fuzz_case as a standalone repro file: a `%config`
 * section of configKeyValues() lines followed by a `%trace` section
 * in the text trace format.  Requires the config to use the hasL2
 * sugar (the generator always does); fatal on deeper midLevels.
 */
void writeRepro(const std::string &path, const FuzzCase &fuzz_case,
                const std::string &note);

/** Parse a file written by writeRepro(). */
FuzzCase loadRepro(const std::string &path);

/** Fuzzing campaign parameters. */
struct FuzzOptions
{
    std::uint64_t seed = 1;      ///< seed of the first case
    std::uint64_t cases = 1000;  ///< number of consecutive seeds
    std::string reproDir = ".";  ///< where repro files are written
    bool minimize = true;        ///< shrink before writing the repro
    /** One progress phase of `cases` cases, or nullptr for none. */
    ProgressMeter *progress = nullptr;
};

/** Campaign result; `mismatches == 0` means the property held. */
struct FuzzReport
{
    std::uint64_t casesRun = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t firstBadSeed = 0;
    std::string reproPath; ///< file written for the first failure
    std::string firstDiff; ///< formatted diff of the first failure
};

/**
 * Run @p options.cases consecutive seeds; on the first mismatch,
 * minimize, dump a repro and stop (one shrunk failure is worth more
 * than a count of unshrunk ones).  Reports one update per case to
 * @p options.progress, if any, and finishes its phase.
 */
FuzzReport runFuzz(const FuzzOptions &options);

} // namespace verify
} // namespace cachetime

#endif // CACHETIME_VERIFY_FUZZ_HH
