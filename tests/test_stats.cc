/**
 * @file
 * Tests for the stats registry (src/stats/stats.hh) and run
 * telemetry (src/stats/telemetry.hh).  Suites start with "Stats" so
 * `ctest -R Stats` runs exactly the observability smoke set.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/sim_cache.hh"
#include "json_check.hh"
#include "sim/system.hh"
#include "stats/stats.hh"
#include "stats/telemetry.hh"
#include "trace/workloads.hh"
#include "util/histogram.hh"
#include "util/parallel.hh"

using namespace cachetime;

namespace
{

/** A short deterministic workload for end-to-end registry tests. */
Trace
smallTrace(std::size_t refs)
{
    WorkloadSpec spec;
    spec.name = "stats_test";
    spec.lengthRefs = refs;
    spec.seed = 99;
    return generate(spec);
}

/** Pull "\"key\":value-ish" out of single-line JSON, crudely. */
bool
jsonHasKey(const std::string &json, const std::string &key)
{
    return json.find('"' + key + '"') != std::string::npos;
}

} // namespace

TEST(StatsRegistry, RegistersAndReadsLiveCounters)
{
    stats::Registry registry;
    std::uint64_t hits = 0;
    registry.addScalar("sys.cache.hits", "hit count",
                       [&] { return hits; });
    registry.addFormula("sys.cache.hitRate", "hits per access",
                        [&] { return hits / 10.0; });

    // The registry stores accessors: a dump reflects the *current*
    // counter value, not the value at registration time.
    hits = 7;
    const stats::Stat *stat = registry.find("sys.cache.hits");
    ASSERT_NE(stat, nullptr);
    EXPECT_EQ(stat->kind, stats::Kind::Scalar);
    EXPECT_DOUBLE_EQ(stat->value(), 7.0);
    EXPECT_DOUBLE_EQ(registry.find("sys.cache.hitRate")->value(), 0.7);
    EXPECT_EQ(registry.find("sys.cache.misses"), nullptr);
    EXPECT_EQ(registry.size(), 2u);
}

TEST(StatsRegistryDeathTest, DuplicateNamePanics)
{
    stats::Registry registry;
    registry.addScalar("a.b", "first", [] { return 1ull; });
    EXPECT_DEATH(
        registry.addScalar("a.b", "again", [] { return 2ull; }),
        "duplicate");
}

TEST(StatsRegistryDeathTest, InvalidNamePanics)
{
    stats::Registry registry;
    EXPECT_DEATH(
        registry.addScalar("bad name!", "spaces", [] { return 0ull; }),
        "name");
}

TEST(StatsRegistryDeathTest, LeafGroupCollisionPanics)
{
    stats::Registry registry;
    registry.addScalar("sys.l1", "leaf", [] { return 0ull; });
    // "sys.l1" is already a leaf; making it a group is a wiring bug.
    EXPECT_DEATH(
        registry.addScalar("sys.l1.hits", "child", [] { return 0ull; }),
        "l1");
}

TEST(StatsDump, JsonNestsAlongDottedNames)
{
    stats::Registry registry;
    registry.addScalar("sys.l1d.hits", "", [] { return 3ull; });
    registry.addScalar("sys.l1d.misses", "", [] { return 1ull; });
    registry.addValue("sys.cycleNs", "", [] { return 40.0; });

    std::ostringstream ss;
    registry.dumpJson(ss);
    const std::string json = ss.str();
    EXPECT_TRUE(jsonHasKey(json, "sys"));
    EXPECT_TRUE(jsonHasKey(json, "l1d"));
    EXPECT_TRUE(jsonHasKey(json, "hits"));
    EXPECT_NE(json.find("\"hits\":3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"cycleNs\":40"), std::string::npos) << json;
    // Valid nesting: braces balance and the object is non-trivial.
    long depth = 0;
    for (char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(StatsDump, CsvIsFlatAndComplete)
{
    stats::Registry registry;
    registry.addScalar("a.x", "", [] { return 5ull; });
    Histogram hist(4, 10);
    hist.sample(15);
    registry.addHistogram("a.h", "dist", &hist);

    std::ostringstream ss;
    registry.dumpCsv(ss);
    std::string csv = ss.str();
    EXPECT_NE(csv.find("stat,value"), std::string::npos);
    EXPECT_NE(csv.find("a.x,5"), std::string::npos);
    EXPECT_NE(csv.find("a.h.count,1"), std::string::npos);
    EXPECT_NE(csv.find("a.h.mean,15"), std::string::npos);
}

TEST(StatsDump, TextListsEveryStat)
{
    stats::Registry registry;
    registry.addScalar("m.reads", "read ops", [] { return 2ull; });
    registry.addFormula("m.ratio", "derived", [] { return 0.5; });
    std::ostringstream ss;
    registry.dumpText(ss);
    EXPECT_NE(ss.str().find("m.reads"), std::string::npos);
    EXPECT_NE(ss.str().find("read ops"), std::string::npos);
    EXPECT_NE(ss.str().find("m.ratio"), std::string::npos);
}

TEST(StatsSimResult, RegStatsCoversTheSystemTree)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.hasL2 = true;
    Trace trace = smallTrace(2000);
    SimResult r = System(config).run(trace);

    stats::Registry registry;
    r.regStats(registry);

    // Top-line, per-level, buffer, and memory stats all present.
    ASSERT_NE(registry.find("system.refs"), nullptr);
    EXPECT_DOUBLE_EQ(registry.find("system.refs")->value(),
                     static_cast<double>(r.refs));
    EXPECT_NE(registry.find("system.l1d.readMisses"), nullptr);
    EXPECT_NE(registry.find("system.l1i.readAccesses"), nullptr);
    EXPECT_NE(registry.find("system.l1wbuf.enqueued"), nullptr);
    EXPECT_NE(registry.find("system.l2.readAccesses"), nullptr);
    EXPECT_NE(registry.find("system.mem.reads"), nullptr);
    const stats::Stat *ratio =
        registry.find("system.readMissRatio");
    ASSERT_NE(ratio, nullptr);
    EXPECT_DOUBLE_EQ(ratio->value(), r.readMissRatio());

    // The registry is a *view*: it must agree with the struct.
    EXPECT_DOUBLE_EQ(
        registry.find("system.l1d.readMisses")->value(),
        static_cast<double>(r.dcache.readMisses));

    // JSON round trip: the dump carries the same miss count.
    std::ostringstream ss;
    registry.dumpJson(ss);
    char expect[64];
    std::snprintf(expect, sizeof(expect), "\"readMisses\":%llu",
                  static_cast<unsigned long long>(r.dcache.readMisses));
    EXPECT_NE(ss.str().find(expect), std::string::npos);
}

TEST(StatsSimResult, L2AccessorsTrackMidLevels)
{
    SystemConfig config = SystemConfig::paperDefault();
    Trace trace = smallTrace(500);

    SimResult no_l2 = System(config).run(trace);
    EXPECT_FALSE(no_l2.hasL2());
    EXPECT_EQ(no_l2.l2().readAccesses, 0u);
    EXPECT_EQ(no_l2.l2Buffer().enqueued, 0u);

    config.hasL2 = true;
    SimResult with_l2 = System(config).run(trace);
    ASSERT_TRUE(with_l2.hasL2());
    EXPECT_EQ(&with_l2.l2(), &with_l2.midLevels.front());
    EXPECT_EQ(&with_l2.l2Buffer(), &with_l2.midBuffers.front());
}

TEST(StatsTelemetry, SpanAccumulates)
{
    telemetry::resetStages();
    {
        telemetry::Span span("unit-test-stage");
        span.count("items", 3);
    }
    {
        telemetry::Span span("unit-test-stage");
        span.count("items", 4);
        span.count("other", 1);
    }
    bool found = false;
    for (const telemetry::StageRecord &stage : telemetry::stages()) {
        if (stage.name == "unit-test-stage") {
            found = true;
            EXPECT_EQ(stage.count, 2u);
            EXPECT_GE(stage.seconds, 0.0);
            using Counts =
                std::vector<std::pair<std::string, std::uint64_t>>;
            EXPECT_EQ(stage.counts, (Counts{{"items", 7}, {"other", 1}}));
        }
    }
    EXPECT_TRUE(found);
    telemetry::resetStages();
    EXPECT_TRUE(telemetry::stages().empty());
}

TEST(StatsTelemetry, ConfigHashIsStableAndSensitive)
{
    SystemConfig a = SystemConfig::paperDefault();
    SystemConfig b = SystemConfig::paperDefault();
    EXPECT_EQ(telemetry::configHash(a), telemetry::configHash(b));
    EXPECT_EQ(telemetry::configHash(a).size(), 32u);
    b.cycleNs += 1.0;
    EXPECT_NE(telemetry::configHash(a), telemetry::configHash(b));
}

TEST(StatsTelemetry, ManifestFileIsWellFormed)
{
    telemetry::RunManifest manifest;
    manifest.tool = "unit-test";
    manifest.configHash = telemetry::configHash(
        SystemConfig::paperDefault());
    manifest.configSummary = "tiny \"quoted\" summary";
    manifest.traces.push_back("t1");
    manifest.traces.push_back("t2");
    manifest.extra.emplace_back("custom", "{\"k\":1}");

    std::string path = testing::TempDir() + "manifest.json";
    ASSERT_TRUE(telemetry::writeManifestFile(path, manifest));

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string json = ss.str();
    EXPECT_TRUE(jsonHasKey(json, "tool"));
    EXPECT_NE(json.find("\"unit-test\""), std::string::npos);
    EXPECT_TRUE(jsonHasKey(json, "config"));
    EXPECT_TRUE(jsonHasKey(json, "hash"));
    EXPECT_TRUE(jsonHasKey(json, "phases"));
    EXPECT_TRUE(jsonHasKey(json, "pool"));
    EXPECT_TRUE(jsonHasKey(json, "sim_cache"));
    EXPECT_TRUE(jsonHasKey(json, "wall_seconds"));
    EXPECT_TRUE(jsonHasKey(json, "custom"));
    // The quote in the summary must have been escaped.
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(JsonCheck, AcceptsValidAndRejectsMalformed)
{
    json_check::JsonValue v;
    EXPECT_TRUE(json_check::parseJson(
        " {\"a\":[1,2.5e-3,true,null,\"x\\n\"],\"b\":{}} ", &v));
    EXPECT_DOUBLE_EQ(v.path("a")->items[1].number, 2.5e-3);
    // A substring check cannot catch any of these; the parser must.
    EXPECT_FALSE(json_check::parseJson("{\"a\":1", &v));
    EXPECT_FALSE(json_check::parseJson("{\"a\":1}}", &v));
    EXPECT_FALSE(json_check::parseJson("[1,2,", &v));
    EXPECT_FALSE(json_check::parseJson("{\"a\" 1}", &v));
    EXPECT_FALSE(json_check::parseJson("{\"a\":01x}", &v));
}

TEST(StatsTelemetry, ManifestParsesEndToEnd)
{
    // A manifest carrying a real per-trace stats registry, written
    // through the production writer and then actually parsed - the
    // balanced-brace and typed-field check substring matching can't
    // give.
    Trace trace = smallTrace(4000);
    SimResult r = System(SystemConfig::paperDefault()).run(trace);
    stats::Registry registry;
    r.regStats(registry);

    telemetry::RunManifest manifest;
    manifest.tool = "unit-test";
    manifest.configHash =
        telemetry::configHash(SystemConfig::paperDefault());
    manifest.configSummary = "end \"to\" end";
    manifest.traces.push_back(r.traceName);
    std::stringstream registry_json;
    registry.dumpJson(registry_json);
    manifest.extra.emplace_back("trace_stats", registry_json.str());

    std::string path = testing::TempDir() + "manifest_e2e.json";
    ASSERT_TRUE(telemetry::writeManifestFile(path, manifest));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());

    json_check::JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_check::parseJson(ss.str(), &doc, &error))
        << error;
    ASSERT_TRUE(doc.isObject());

    // Required keys, with their types and values.
    ASSERT_NE(doc.find("tool"), nullptr);
    EXPECT_EQ(doc.find("tool")->text, "unit-test");
    ASSERT_NE(doc.find("trace_flags"), nullptr);
    EXPECT_TRUE(doc.find("trace_flags")->isString());
    ASSERT_NE(doc.find("wall_seconds"), nullptr);
    EXPECT_TRUE(doc.find("wall_seconds")->isNumber());
    EXPECT_GT(doc.find("wall_seconds")->number, 0.0);
    ASSERT_NE(doc.find("phases"), nullptr);
    EXPECT_TRUE(doc.find("phases")->isObject());
    ASSERT_NE(doc.path("config.hash"), nullptr);
    EXPECT_EQ(doc.path("config.hash")->text.size(), 32u);
    ASSERT_TRUE(doc.find("traces") && doc.find("traces")->isArray());
    ASSERT_EQ(doc.find("traces")->items.size(), 1u);
    EXPECT_EQ(doc.find("traces")->items[0].text, r.traceName);

    for (const char *key :
         {"pool.threads", "pool.dispatches", "pool.tasks",
          "pool.worker_share", "sim_cache.hits",
          "sim_cache.misses", "sim_cache.entries"}) {
        const json_check::JsonValue *v = doc.path(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_TRUE(v->isNumber()) << key;
    }
    ASSERT_NE(doc.path("sim_cache.enabled"), nullptr);
    EXPECT_TRUE(doc.path("sim_cache.enabled")->isBool());
    EXPECT_GE(doc.path("pool.worker_share")->number, 0.0);
    EXPECT_LE(doc.path("pool.worker_share")->number, 1.0);

    // The embedded registry survived the round trip as real JSON.
    const json_check::JsonValue *refs =
        doc.path("trace_stats.system.refs");
    ASSERT_NE(refs, nullptr);
    EXPECT_DOUBLE_EQ(refs->number, static_cast<double>(r.refs));
    const json_check::JsonValue *p95 =
        doc.path("trace_stats.system.missPenaltyCycles.p95");
    ASSERT_NE(p95, nullptr);
    EXPECT_TRUE(p95->isNumber());
}

/**
 * The at-exit manifest is written after main returns, so everything
 * it samples must still be alive then - even in a process that first
 * touches the SimCache after arming the hook, as every bench does.
 * The fresh process a threadsafe death test re-executes is exactly
 * that process.
 */
TEST(StatsTelemetryDeathTest, AtExitManifestSeesLiveSimCache)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::string path = testing::TempDir() + "exit_manifest.json";
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            setenv("CACHETIME_MANIFEST", path.c_str(), 1);
            telemetry::enableManifestAtExit("exit-test");
            SimCache::global().setEnabled(true);
            SimCache::global().insert(
                SimKey{1, 2}, std::make_shared<const SimResult>());
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    json_check::JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_check::parseJson(ss.str(), &doc, &error)) << error;
    ASSERT_NE(doc.path("sim_cache.entries"), nullptr);
    EXPECT_EQ(doc.path("sim_cache.entries")->number, 1.0);
}

TEST(StatsTelemetry, PoolCountersAdvance)
{
    PoolStats before = poolStats();
    parallelFor(64, [](std::size_t) {});
    PoolStats after = poolStats();
    EXPECT_GE(after.tasks, before.tasks + 64);
    EXPECT_GE(after.dispatches + after.serialRuns,
              before.dispatches + before.serialRuns + 1);
    EXPECT_GE(after.workerShare(), 0.0);
    EXPECT_LE(after.workerShare(), 1.0);
}
