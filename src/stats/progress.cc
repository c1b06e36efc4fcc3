#include "stats/progress.hh"

#include <cstdlib>
#include <limits>
#include <unistd.h>

#include "stats/stats.hh"
#include "stats/telemetry.hh"
#include "util/parallel.hh"
#include "util/parse.hh"

namespace cachetime
{

namespace
{

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

ProgressMeter::~ProgressMeter()
{
    if (out_ && owned_)
        std::fclose(out_);
}

bool
ProgressMeter::openSpec(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (spec == "-") {
        out_ = stderr;
        owned_ = false;
        return true;
    }
    if (spec.rfind("fd:", 0) == 0) {
        const int fd = static_cast<int>(parseNumber<unsigned>(
            spec.substr(3), "progress: fd:N",
            0, std::numeric_limits<int>::max()));
        std::FILE *f = fdopen(dup(fd), "w");
        if (!f)
            return false;
        out_ = f;
        owned_ = true;
        return true;
    }
    std::FILE *f = std::fopen(spec.c_str(), "w");
    if (!f)
        return false;
    out_ = f;
    owned_ = true;
    return true;
}

void
ProgressMeter::openStream(std::FILE *stream)
{
    std::lock_guard<std::mutex> lock(mutex_);
    out_ = stream;
    owned_ = false;
}

void
ProgressMeter::setTool(std::string tool)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tool_ = std::move(tool);
}

void
ProgressMeter::setLabel(std::string label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    label_ = std::move(label);
}

void
ProgressMeter::setTotal(std::uint64_t total, std::string unit)
{
    std::lock_guard<std::mutex> lock(mutex_);
    total_ = total;
    unit_ = std::move(unit);
    done_ = 0;
    phaseStart_ = telemetry::processWallSeconds();
    lastEmit_ = -1.0;
    emitted_ = false;
}

void
ProgressMeter::setThrottleSeconds(double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    throttle_ = seconds;
}

void
ProgressMeter::update(std::uint64_t done)
{
    if (!out_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = done;
    double now = telemetry::processWallSeconds();
    if (emitted_ && lastEmit_ >= 0.0 &&
        now - lastEmit_ < throttle_ && done_ != total_)
        return;
    emitLocked("progress");
}

void
ProgressMeter::bump(std::uint64_t delta)
{
    if (!out_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    done_ += delta;
    double now = telemetry::processWallSeconds();
    if (emitted_ && lastEmit_ >= 0.0 && now - lastEmit_ < throttle_)
        return;
    emitLocked("progress");
}

void
ProgressMeter::finish()
{
    if (!out_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (total_ != 0)
        done_ = total_ > done_ ? total_ : done_;
    emitLocked("done");
}

void
ProgressMeter::emitLocked(const char *event)
{
    double now = telemetry::processWallSeconds();
    double elapsed = now - phaseStart_;
    double rate = elapsed > 0.0
                      ? static_cast<double>(done_) / elapsed
                      : 0.0;
    double eta = (rate > 0.0 && total_ > done_)
                     ? static_cast<double>(total_ - done_) / rate
                     : 0.0;
    double percent =
        total_ != 0 ? 100.0 * static_cast<double>(done_) /
                          static_cast<double>(total_)
                    : 0.0;
    PoolStats pool = poolStats();

    std::string line;
    line.reserve(256);
    line += "{\"event\":\"";
    line += event;
    line += "\",\"tool\":\"";
    line += stats::jsonEscape(tool_);
    line += "\",\"label\":\"";
    line += stats::jsonEscape(label_);
    line += "\",\"unit\":\"";
    line += stats::jsonEscape(unit_);
    line += "\",\"done\":";
    line += std::to_string(done_);
    line += ",\"total\":";
    line += std::to_string(total_);
    line += ",\"percent\":";
    line += jsonNumber(percent);
    line += ",\"elapsed_s\":";
    line += jsonNumber(elapsed);
    line += ",\"rate_per_s\":";
    line += jsonNumber(rate);
    line += ",\"eta_s\":";
    line += jsonNumber(eta);
    line += ",\"pool_threads\":";
    line += std::to_string(pool.threads);
    line += ",\"pool_worker_share\":";
    line += jsonNumber(pool.workerShare());
    line += "}\n";
    // One fwrite per record: lines never interleave across threads
    // sharing the sink.
    std::fwrite(line.data(), 1, line.size(), out_);
    std::fflush(out_);
    lastEmit_ = now;
    emitted_ = true;
}

} // namespace cachetime
