/**
 * @file
 * Live progress telemetry: throttled NDJSON progress records.
 *
 * A long trace run or fuzz campaign is opaque while it runs;
 * ProgressMeter streams one JSON object per line to a file or
 * inherited fd so another process (a wrapper script today, the
 * future cachetime_serve daemon tomorrow) can follow along:
 *
 *   {"event":"progress","tool":"cachetime_sim","label":"mu3",
 *    "unit":"refs","done":131072,"total":350434,"percent":37.4,
 *    "elapsed_s":0.21,"rate_per_s":6.2e8,"eta_s":0.35,
 *    "pool_threads":8,"pool_worker_share":0.84}
 *
 * The final record carries "event":"done".  Emission is throttled
 * (default: at most one record per 200ms, plus the first and last),
 * so update() can be called per chunk without flooding the sink.
 * Thread-safe: concurrent bump()/update() serialize on a mutex
 * whose hold time is one clock read on the throttled path.
 *
 * A meter is a sink that only a tool's top-level loop drives - one
 * phase per trace (cachetime_sim) or per campaign (the fuzz
 * campaigns take it in their options) - so nested work never resets
 * the phase its caller armed.  Stage timing is telemetry::Span's job.
 */

#ifndef CACHETIME_STATS_PROGRESS_HH
#define CACHETIME_STATS_PROGRESS_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace cachetime
{

/** Throttled NDJSON progress reporter over a FILE sink. */
class ProgressMeter
{
  public:
    ProgressMeter() = default;
    ~ProgressMeter();

    ProgressMeter(const ProgressMeter &) = delete;
    ProgressMeter &operator=(const ProgressMeter &) = delete;

    /**
     * Open the sink named by @p spec: "-" for stderr, "fd:N" for an
     * inherited file descriptor, anything else a path (truncated).
     * An N that is not a decimal count is fatal.
     * @return false when the spec cannot be opened.
     */
    bool openSpec(const std::string &spec);

    /** Use @p stream (not closed on destruction). */
    void openStream(std::FILE *stream);

    /** @return true once a sink is open. */
    bool active() const { return out_ != nullptr; }

    void setTool(std::string tool);

    /** Name the current work item (trace name, batch id...). */
    void setLabel(std::string label);

    /** Arm a new phase of @p total units; resets done and rate. */
    void setTotal(std::uint64_t total, std::string unit);

    /** Minimum seconds between records (0 = every call emits). */
    void setThrottleSeconds(double seconds);

    /** Progress stands at @p done units; emits when unthrottled. */
    void update(std::uint64_t done);

    /** Advance by @p delta units; emits when unthrottled. */
    void bump(std::uint64_t delta);

    /** Force-emit a final "done" record for the current phase. */
    void finish();

  private:
    void emitLocked(const char *event);

    std::FILE *out_ = nullptr;
    bool owned_ = false;

    std::mutex mutex_;
    std::string tool_;
    std::string label_;
    std::string unit_ = "items";
    std::uint64_t done_ = 0;
    std::uint64_t total_ = 0;
    double throttle_ = 0.2;
    double phaseStart_ = 0.0; ///< wall seconds at setTotal()
    double lastEmit_ = -1.0;  ///< wall seconds of the last record
    bool emitted_ = false;    ///< any record for this phase yet
};

} // namespace cachetime

#endif // CACHETIME_STATS_PROGRESS_HH
