#include "stats/trace_event.hh"

#include <fstream>
#include <mutex>
#include <vector>

#include "stats/stats.hh"
#include "stats/telemetry.hh"

namespace cachetime
{
namespace trace_event
{

namespace detail
{
std::atomic<bool> sessionOpen{false};
}

namespace
{

/** One buffered event; ph is implied by dur/instant flags. */
struct Event
{
    std::uint64_t ts = 0;  ///< microseconds on the process clock
    std::uint64_t dur = 0; ///< complete events only
    std::uint32_t tid = 0;
    Cat cat = Cat::Stage;
    bool instant = false;
    std::string name;
    std::string args; ///< serialized JSON object, or empty
};

/** thread_name metadata for one (category, thread) pair. */
struct ThreadMeta
{
    std::uint32_t tid = 0;
    Cat cat = Cat::Stage;
    std::string name;
};

std::mutex mutex; ///< guards everything below
std::vector<Event> events;
std::vector<ThreadMeta> threadMetas;
std::string sessionPath;
std::uint64_t sessionEpoch = 0; ///< bumped by beginSession
std::uint32_t openerTid = 0;    ///< the thread named "main"

std::atomic<std::uint32_t> nextTid{0};

/** Per-thread identity: stable tid plus a display name. */
struct ThreadState
{
    std::uint32_t tid = ~0u;
    std::string name;
    std::uint64_t epochSeen = 0; ///< session the name was sent to
    unsigned announced = 0;      ///< bitmask of categories announced
};

thread_local ThreadState threadState;

std::uint32_t
myTid()
{
    if (threadState.tid == ~0u)
        threadState.tid =
            nextTid.fetch_add(1, std::memory_order_relaxed);
    return threadState.tid;
}

/**
 * Queue the thread_name metadata for (@p cat, this thread) once per
 * session.  Caller holds `mutex`.
 */
void
announceLocked(Cat cat)
{
    if (threadState.epochSeen != sessionEpoch) {
        threadState.epochSeen = sessionEpoch;
        threadState.announced = 0;
    }
    unsigned bit = 1u << static_cast<unsigned>(cat);
    if (threadState.announced & bit)
        return;
    threadState.announced |= bit;
    std::string name = threadState.name.empty()
                           ? (threadState.tid == openerTid
                                  ? std::string("main")
                                  : "thread-" +
                                        std::to_string(threadState.tid))
                           : threadState.name;
    threadMetas.push_back({threadState.tid, cat, std::move(name)});
}

const char *
catName(Cat cat)
{
    switch (cat) {
      case Cat::Stage: return "stages";
      case Cat::Pool: return "pool";
      case Cat::SimCacheT: return "simcache";
    }
    return "other";
}

void
writeEvent(std::ostream &os, const Event &e)
{
    os << "{\"name\":\"" << stats::jsonEscape(e.name) << "\",\"cat\":\""
       << catName(e.cat) << "\",\"ph\":\"" << (e.instant ? 'i' : 'X')
       << "\",\"ts\":" << e.ts;
    if (!e.instant)
        os << ",\"dur\":" << e.dur;
    else
        os << ",\"s\":\"t\""; // thread-scoped instant
    if (!e.args.empty())
        os << ",\"args\":" << e.args;
    os << ",\"pid\":" << static_cast<unsigned>(e.cat)
       << ",\"tid\":" << e.tid << '}';
}

} // namespace

std::uint64_t
nowMicros()
{
    return static_cast<std::uint64_t>(telemetry::processWallSeconds() *
                                      1e6);
}

bool
beginSession(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (detail::sessionOpen.load(std::memory_order_relaxed))
        return false;
    events.clear();
    threadMetas.clear();
    sessionPath = path;
    ++sessionEpoch;
    openerTid = myTid();
    detail::sessionOpen.store(true, std::memory_order_relaxed);
    return true;
}

bool
endSession()
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!detail::sessionOpen.load(std::memory_order_relaxed))
        return false;
    detail::sessionOpen.store(false, std::memory_order_relaxed);

    std::ofstream out(sessionPath);
    if (!out) {
        events.clear();
        threadMetas.clear();
        return false;
    }
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ",\n";
        first = false;
    };
    // Every category an event used becomes a named trace process.
    unsigned cats = 0;
    for (const Event &e : events)
        cats |= 1u << static_cast<unsigned>(e.cat);
    for (Cat cat : {Cat::Stage, Cat::Pool, Cat::SimCacheT}) {
        if (!(cats & (1u << static_cast<unsigned>(cat))))
            continue;
        sep();
        out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
            << static_cast<unsigned>(cat)
            << ",\"tid\":0,\"args\":{\"name\":\"" << catName(cat)
            << "\"}}";
    }
    for (const ThreadMeta &meta : threadMetas) {
        sep();
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
            << static_cast<unsigned>(meta.cat)
            << ",\"tid\":" << meta.tid << ",\"args\":{\"name\":\""
            << stats::jsonEscape(meta.name) << "\"}}";
    }
    for (const Event &e : events) {
        sep();
        writeEvent(out, e);
    }
    out << "]}\n";
    events.clear();
    threadMetas.clear();
    return out.good();
}

void
emitComplete(Cat cat, const std::string &name, std::uint64_t ts_us,
             std::uint64_t dur_us, const std::string &args)
{
    if (!enabled())
        return;
    std::uint32_t tid = myTid();
    std::lock_guard<std::mutex> lock(mutex);
    if (!detail::sessionOpen.load(std::memory_order_relaxed))
        return;
    announceLocked(cat);
    events.push_back({ts_us, dur_us, tid, cat, false, name, args});
}

void
emitInstant(Cat cat, const char *name)
{
    if (!enabled())
        return;
    std::uint64_t ts = nowMicros();
    std::uint32_t tid = myTid();
    std::lock_guard<std::mutex> lock(mutex);
    if (!detail::sessionOpen.load(std::memory_order_relaxed))
        return;
    announceLocked(cat);
    events.push_back({ts, 0, tid, cat, true, name, {}});
}

void
setThreadName(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    myTid();
    threadState.name = name;
    // Re-announce under the new name on next emission.
    threadState.announced = 0;
    threadState.epochSeen = sessionEpoch;
}

} // namespace trace_event
} // namespace cachetime
