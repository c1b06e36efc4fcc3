/**
 * @file
 * Tests for the trace-event exporter: session lifecycle, Chrome
 * Trace Event Format shape, category/track metadata, and the hooks
 * in telemetry::Span and the thread pool.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "json_check.hh"
#include "stats/telemetry.hh"
#include "stats/trace_event.hh"
#include "util/parallel.hh"

using namespace cachetime;

namespace
{

/** End the session at @p path and parse the file it wrote. */
json_check::JsonValue
endAndParse(const std::string &path)
{
    EXPECT_TRUE(trace_event::endSession());
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    json_check::JsonValue doc;
    std::string error;
    EXPECT_TRUE(json_check::parseJson(ss.str(), &doc, &error))
        << error;
    return doc;
}

/** Collect args.name of every @p meta_name metadata event in @p cat. */
std::set<std::string>
metaNames(const json_check::JsonValue &doc, int pid,
          const std::string &meta_name)
{
    std::set<std::string> names;
    for (const json_check::JsonValue &e :
         doc.find("traceEvents")->items) {
        if (e.find("ph")->text == "M" &&
            e.find("name")->text == meta_name &&
            e.find("pid")->number == pid)
            names.insert(e.path("args.name")->text);
    }
    return names;
}

} // namespace

TEST(TraceEvent, DisabledHooksAreNoOps)
{
    ASSERT_FALSE(trace_event::enabled());
    // Every hook must be callable with no session; these would
    // crash or leak state into the next session otherwise.
    trace_event::emitComplete(trace_event::Cat::Stage, "x", 0, 1);
    trace_event::emitInstant(trace_event::Cat::SimCacheT, "hit");
    { telemetry::Span span("scope"); }
    EXPECT_FALSE(trace_event::endSession());
}

/**
 * A disabled hook is one relaxed load and nothing else: it must not
 * hand its thread a track id.  The early thread below only calls
 * hooks while no session is open, so its first id is drawn at its
 * first enabled event - after the late thread's - and the session's
 * opener is "main" whatever ids other threads drew first.
 */
TEST(TraceEvent, DisabledHooksTakeNoTrackId)
{
    ASSERT_FALSE(trace_event::enabled());
    std::promise<void> probed;
    std::promise<void> opened;
    std::thread early([&] {
        trace_event::emitInstant(trace_event::Cat::SimCacheT, "miss");
        trace_event::emitComplete(trace_event::Cat::Stage, "x", 0, 1);
        { telemetry::Span span("scope"); }
        probed.set_value();
        opened.get_future().wait();
        trace_event::emitInstant(trace_event::Cat::SimCacheT, "early");
    });
    probed.get_future().wait();

    std::string path = testing::TempDir() + "trace_track_ids.json";
    const bool began = trace_event::beginSession(path);
    std::thread late([] {
        trace_event::emitInstant(trace_event::Cat::SimCacheT, "late");
    });
    late.join();
    opened.set_value();
    early.join();
    trace_event::emitInstant(trace_event::Cat::SimCacheT, "opener");
    ASSERT_TRUE(began);
    json_check::JsonValue doc = endAndParse(path);

    std::map<std::string, double> tid;
    for (const json_check::JsonValue &e :
         doc.find("traceEvents")->items) {
        if (e.find("ph")->text == "i")
            tid[e.find("name")->text] = e.find("tid")->number;
    }
    ASSERT_EQ(tid.size(), 3u);
    EXPECT_LT(tid["late"], tid["early"]);

    std::string opener_name;
    for (const json_check::JsonValue &e :
         doc.find("traceEvents")->items) {
        if (e.find("ph")->text == "M" &&
            e.find("name")->text == "thread_name" &&
            e.find("tid")->number == tid["opener"])
            opener_name = e.path("args.name")->text;
    }
    EXPECT_EQ(opener_name, "main");
}

TEST(TraceEvent, SessionCollectsSpansInstantsAndMetadata)
{
    std::string path = testing::TempDir() + "trace_session.json";
    ASSERT_TRUE(trace_event::beginSession(path));
    EXPECT_TRUE(trace_event::enabled());
    // A second session cannot open while this one runs.
    EXPECT_FALSE(trace_event::beginSession(path + ".other"));

    std::uint64_t t0 = trace_event::nowMicros();
    trace_event::emitComplete(trace_event::Cat::Stage, "batch", t0, 42);
    trace_event::emitInstant(trace_event::Cat::SimCacheT, "miss");
    {
        telemetry::Span span("unit-stage");
        span.label("mu3");
        span.count("machines", 3);
    }

    json_check::JsonValue doc = endAndParse(path);
    EXPECT_FALSE(trace_event::enabled());

    ASSERT_NE(doc.find("traceEvents"), nullptr);
    ASSERT_TRUE(doc.find("traceEvents")->isArray());
    EXPECT_EQ(doc.find("displayTimeUnit")->text, "ms");

    bool saw_span = false, saw_instant = false, saw_stage = false;
    for (const json_check::JsonValue &e :
         doc.find("traceEvents")->items) {
        const std::string &ph = e.find("ph")->text;
        if (ph == "X" && e.find("name")->text == "batch") {
            saw_span = true;
            EXPECT_EQ(e.find("pid")->number,
                      static_cast<double>(trace_event::Cat::Stage));
            EXPECT_EQ(e.find("dur")->number, 42.0);
            EXPECT_EQ(e.find("args"), nullptr);
        }
        if (ph == "i" && e.find("name")->text == "miss") {
            saw_instant = true;
            EXPECT_EQ(e.find("s")->text, "t");
        }
        if (ph == "X" && e.find("name")->text == "unit-stage") {
            saw_stage = true;
            EXPECT_EQ(e.find("pid")->number,
                      static_cast<double>(trace_event::Cat::Stage));
            ASSERT_NE(e.path("args.label"), nullptr);
            EXPECT_EQ(e.path("args.label")->text, "mu3");
            ASSERT_NE(e.path("args.machines"), nullptr);
            EXPECT_EQ(e.path("args.machines")->number, 3.0);
        }
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_stage);

    // Each used category carries its process_name, and the emitting
    // thread is named on its track; every stage shares one process.
    EXPECT_EQ(metaNames(doc, 1, "process_name"),
              (std::set<std::string>{"stages"}));
    EXPECT_EQ(metaNames(doc, 4, "process_name"),
              (std::set<std::string>{"simcache"}));
    EXPECT_TRUE(metaNames(doc, 3, "process_name").empty());
    EXPECT_FALSE(metaNames(doc, 1, "thread_name").empty());
}

TEST(TraceEvent, PoolWorkersGetNamedTracks)
{
    unsigned previous = parallelThreads();
    setParallelThreads(4);
    std::string path = testing::TempDir() + "trace_pool.json";
    ASSERT_TRUE(trace_event::beginSession(path));
    // Slow iterations so the workers reliably win chunks even on a
    // single-core host (the submitting thread sleeps between pulls).
    parallelFor(64, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    json_check::JsonValue doc = endAndParse(path);
    setParallelThreads(previous);

    std::size_t chunks = 0;
    for (const json_check::JsonValue &e :
         doc.find("traceEvents")->items) {
        if (e.find("ph")->text == "X" &&
            e.find("pid")->number ==
                static_cast<double>(trace_event::Cat::Pool))
            ++chunks;
    }
    EXPECT_GT(chunks, 0u);
    std::set<std::string> threads = metaNames(doc, 2, "thread_name");
    EXPECT_FALSE(threads.empty());
    bool worker_named = false;
    for (const std::string &name : threads)
        worker_named |= name.rfind("pool-worker-", 0) == 0;
    EXPECT_TRUE(worker_named);
}

TEST(TraceEvent, SessionsReopenCleanly)
{
    std::string path1 = testing::TempDir() + "trace_a.json";
    std::string path2 = testing::TempDir() + "trace_b.json";
    ASSERT_TRUE(trace_event::beginSession(path1));
    trace_event::emitInstant(trace_event::Cat::SimCacheT, "hit");
    json_check::JsonValue first = endAndParse(path1);

    // A fresh session starts empty and re-announces thread names.
    ASSERT_TRUE(trace_event::beginSession(path2));
    trace_event::emitInstant(trace_event::Cat::SimCacheT, "miss");
    json_check::JsonValue second = endAndParse(path2);

    auto instants = [](const json_check::JsonValue &doc) {
        std::set<std::string> names;
        for (const json_check::JsonValue &e :
             doc.find("traceEvents")->items)
            if (e.find("ph")->text == "i")
                names.insert(e.find("name")->text);
        return names;
    };
    EXPECT_EQ(instants(first), (std::set<std::string>{"hit"}));
    EXPECT_EQ(instants(second), (std::set<std::string>{"miss"}));
    EXPECT_EQ(metaNames(second, 4, "process_name"),
              (std::set<std::string>{"simcache"}));
}
