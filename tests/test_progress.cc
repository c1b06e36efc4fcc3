/**
 * @file
 * Tests for the NDJSON progress meter: record shape, throttling
 * and sink specs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "json_check.hh"
#include "stats/progress.hh"

using namespace cachetime;

namespace
{

/** Parse every NDJSON line of @p path; fails the test on bad JSON. */
std::vector<json_check::JsonValue>
readRecords(const std::string &path)
{
    std::vector<json_check::JsonValue> records;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        json_check::JsonValue value;
        std::string error;
        EXPECT_TRUE(json_check::parseJson(line, &value, &error))
            << error << " in: " << line;
        records.push_back(std::move(value));
    }
    return records;
}

} // namespace

TEST(Progress, RecordsAreWellFormedNdjson)
{
    std::string path = testing::TempDir() + "progress_test.ndjson";
    {
        ProgressMeter meter;
        ASSERT_TRUE(meter.openSpec(path));
        EXPECT_TRUE(meter.active());
        meter.setTool("unit-test");
        meter.setLabel("phase \"one\"");
        meter.setThrottleSeconds(0.0);
        meter.setTotal(10, "refs");
        meter.update(3);
        meter.bump(4);
        meter.finish();
    }
    std::vector<json_check::JsonValue> records = readRecords(path);
    std::remove(path.c_str());

    ASSERT_EQ(records.size(), 3u);
    for (const json_check::JsonValue &r : records) {
        for (const char *key :
             {"event", "tool", "label", "unit", "done", "total",
              "percent", "elapsed_s", "rate_per_s", "eta_s",
              "pool_threads", "pool_worker_share"})
            ASSERT_NE(r.find(key), nullptr) << key;
        EXPECT_EQ(r.find("tool")->text, "unit-test");
        EXPECT_EQ(r.find("label")->text, "phase \"one\"");
        EXPECT_EQ(r.find("unit")->text, "refs");
        EXPECT_EQ(r.find("total")->number, 10.0);
    }
    EXPECT_EQ(records[0].find("event")->text, "progress");
    EXPECT_EQ(records[0].find("done")->number, 3.0);
    EXPECT_EQ(records[1].find("done")->number, 7.0);
    // finish() pads to the total and flags the record.
    EXPECT_EQ(records[2].find("event")->text, "done");
    EXPECT_EQ(records[2].find("done")->number, 10.0);
    EXPECT_EQ(records[2].find("percent")->number, 100.0);
}

TEST(Progress, ThrottleSuppressesIntermediateRecords)
{
    std::string path = testing::TempDir() + "progress_throttle.ndjson";
    {
        ProgressMeter meter;
        ASSERT_TRUE(meter.openSpec(path));
        meter.setThrottleSeconds(3600.0); // nothing mid-phase emits
        meter.setTotal(1000, "items");
        for (int i = 1; i <= 999; ++i)
            meter.update(static_cast<std::uint64_t>(i));
        meter.finish();
    }
    std::vector<json_check::JsonValue> records = readRecords(path);
    std::remove(path.c_str());
    // First record (unthrottled) + final "done"; update(done==total)
    // would also pass the throttle, but the loop stops at 999.
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records.front().find("done")->number, 1.0);
    EXPECT_EQ(records.back().find("event")->text, "done");
}

TEST(Progress, InactiveMeterIsSafe)
{
    ProgressMeter meter;
    EXPECT_FALSE(meter.active());
    meter.setTotal(5, "x");
    meter.update(1);
    meter.bump(1);
    meter.finish(); // all no-ops without a sink
    EXPECT_FALSE(meter.openSpec("/nonexistent-dir-xyz/file.ndjson"));
}

TEST(Progress, FdSpecWritesThroughInheritedDescriptor)
{
    std::string path = testing::TempDir() + "progress_fd.ndjson";
    std::FILE *backing = std::fopen(path.c_str(), "w");
    ASSERT_NE(backing, nullptr);
    {
        ProgressMeter meter;
        ASSERT_TRUE(
            meter.openSpec("fd:" + std::to_string(fileno(backing))));
        meter.setThrottleSeconds(0.0);
        meter.setTotal(1, "step");
        meter.finish();
    }
    std::fclose(backing);
    std::vector<json_check::JsonValue> records = readRecords(path);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].find("event")->text, "done");
}
