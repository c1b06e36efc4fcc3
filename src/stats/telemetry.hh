/**
 * @file
 * Run telemetry: the one stage span and the run manifest it feeds.
 *
 * Every bench and tool run can leave a JSON *run manifest* next to
 * its output: what was run (tool, config hash, trace identities),
 * the stage table (each stage's wall time, how often it ran and the
 * counts it attached), how well the worker pool was used, and how
 * the SimCache behaved.  The manifest makes a run auditable after
 * the fact - the paper's argument lives and dies on which counters
 * were measured and under what machine description, so the
 * measurement conditions are recorded in the same directory as the
 * numbers.
 *
 * Span is the one instrumentation type every timed stage opens: a
 * tool's phases, a bench's trace generation, a grid query
 * ("simulate"), a fused batch ("batch"), a stack pass ("stack") and
 * a SMARTS pass ("smarts-pass").  Closing a span adds its wall time,
 * a count of one and the counts it attached to the process-wide
 * stage table (two clock reads and one lock in all), and, only
 * while a trace-event session is open (trace_event.hh), emits one
 * complete event on the calling thread's stage track, so a thread's
 * spans nest in Perfetto as they nested in the code.  A span builds
 * no string unless a session is open.  Only stage-granular code
 * opens one: nothing per reference or per span of a stream.
 *
 * CACHETIME_MANIFEST=<path> makes any bench using bench/common.hh
 * write its manifest to <path> at exit; tools/cachetime_sim writes
 * one explicitly via --stats-json.
 */

#ifndef CACHETIME_STATS_TELEMETRY_HH
#define CACHETIME_STATS_TELEMETRY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace cachetime
{

struct SystemConfig;

namespace telemetry
{

/** Accumulated totals of one named stage. */
struct StageRecord
{
    std::string name;
    double seconds = 0.0;
    std::uint64_t count = 0; ///< spans closed
    /** Attached counts, summed over the spans, in first-seen order. */
    std::vector<std::pair<std::string, std::uint64_t>> counts;
};

/**
 * Scoped stage span: construction reads the process clock,
 * destruction reads it again and records the span (see the file
 * comment).  Nested and concurrent spans are fine; their totals
 * simply accumulate.
 */
class Span
{
  public:
    /** Open a span of @p stage, a string with static storage. */
    explicit Span(const char *stage);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /**
     * Attach @p value under @p key (a string with static storage):
     * summed into the stage's table entry, and an arg of the trace
     * event.  A span holds at most four keys.
     */
    void count(const char *key, std::uint64_t value);

    /** Name what the span ran over (a trace) in its trace event. */
    void label(const std::string &text);

  private:
    const char *stage_;
    double start_;
    bool traced_; ///< a session was open at construction
    std::size_t used_ = 0;
    std::array<std::pair<const char *, std::uint64_t>, 4> counts_{};
    std::string label_; ///< kept only when traced_
};

/** @return every stage's record, in first-seen order. */
std::vector<StageRecord> stages();

/** Drop all stage records (tests). */
void resetStages();

/**
 * @return wall seconds on the process clock, which starts at static
 * init.  Spans, trace-event timestamps, progress records and
 * interval windows all read this one clock.
 */
double processWallSeconds();

/** @return the 32-hex-digit canonical hash of @p config. */
std::string configHash(const SystemConfig &config);

/** Everything a manifest records beyond the ambient counters. */
struct RunManifest
{
    std::string tool;           ///< e.g. "cachetime_sim"
    std::string configHash;     ///< from configHash(); may be empty
    std::string configSummary;  ///< SystemConfig::describe()
    std::vector<std::string> traces; ///< trace names, run order
    unsigned traceFlags = 0;    ///< trace_debug flag word in effect

    /**
     * Extra top-level entries: key -> pre-serialized JSON value
     * (caller guarantees validity).  Lets tools attach per-trace
     * stats registries without telemetry knowing their shape.
     */
    std::vector<std::pair<std::string, std::string>> extra;
};

/**
 * Write the manifest as one JSON object: the RunManifest fields plus
 * the ambient stage table (as "phases"), pool utilization and
 * SimCache counters sampled now.
 */
void writeManifest(std::ostream &os, const RunManifest &manifest);

/** writeManifest() to @p path; @return false on I/O failure. */
bool writeManifestFile(const std::string &path,
                       const RunManifest &manifest);

/**
 * If CACHETIME_MANIFEST is set, arrange for a manifest named
 * @p tool to be written there at normal process exit (idempotent).
 */
void enableManifestAtExit(const std::string &tool);

} // namespace telemetry
} // namespace cachetime

#endif // CACHETIME_STATS_TELEMETRY_HH
