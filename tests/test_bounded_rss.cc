/**
 * @file
 * Peak memory of runs over long streams.  The suite is its own
 * executable and each test its own process, so the peak resident set
 * (ru_maxrss) is the test's alone: a SMARTS sweep over a CTTRACE2
 * file must hold neither a copy of the trace nor every unit's live
 * point, and a run over a text file must not hold the trace either.
 * Sanitizer shadow memory inflates RSS, so the sanitizer jobs leave
 * this suite (label rss) out.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/smarts.hh"
#include "sim/simulator.hh"
#include "trace/interleave.hh"
#include "trace/trace_io.hh"
#include "trace/trace_v2.hh"
#include "trace/workloads.hh"

namespace cachetime
{
namespace
{

/** @return this process's peak resident set so far, in bytes. */
std::uint64_t
peakRssBytes()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

TEST(BoundedRss, SampledSweepOverV2File)
{
    // mu6 at scale 4 is about 6M references, 100 MB as a Trace; it
    // goes straight from the generator to disk, never held whole.
    const std::string path = (std::filesystem::temp_directory_path() /
                              "bounded_rss_mu6.v2")
                                 .string();
    std::uint64_t refs = 0;
    {
        auto generator = makeWorkloadSource(table1Workloads()[1], 4.0);
        V2Writer writer(path, generator->warmStart());
        std::vector<Ref> chunk(refChunkSize);
        while (std::size_t n =
                   generator->fill(chunk.data(), chunk.size()))
            for (std::size_t i = 0; i < n; ++i)
                writer.push(chunk[i]);
        writer.close();
        refs = writer.count();
    }
    const std::uint64_t resident_bytes = refs * sizeof(Ref);

    // Two configs share a warm key, so one replays the other's live
    // points; the third leads a group of its own.
    SystemConfig base = SystemConfig::paperDefault();
    SystemConfig slower = base;
    slower.cycleNs = base.cycleNs * 2;
    SystemConfig bigger = base;
    bigger.setL1SizeWordsEach(32768);
    std::vector<SmartsRunResult> runs;
    {
        V2FileSource source(path);
        runs = runSmartsMany({base, slower, bigger}, source,
                             SmartsConfig{});
    }
    std::remove(path.c_str());

    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].mode, SmartsMode::FullPass);
    EXPECT_EQ(runs[1].mode, SmartsMode::WarmReplay);
    EXPECT_EQ(runs[2].mode, SmartsMode::FullPass);
    const std::uint64_t peak = peakRssBytes();
    EXPECT_LT(peak, resident_bytes / 2)
        << "peak RSS " << (peak >> 20) << " MB for a "
        << (resident_bytes >> 20) << " MB trace";
}

TEST(BoundedRss, TextTraceStreams)
{
    // The same ~6M mu6 references, written line by line as a text
    // trace; neither the writer nor the run may hold them whole.
    const std::string path = (std::filesystem::temp_directory_path() /
                              "bounded_rss_mu6.txt")
                                 .string();
    std::uint64_t refs = 0;
    {
        auto generator = makeWorkloadSource(table1Workloads()[1], 4.0);
        std::ofstream out(path);
        out << "#warmstart " << generator->warmStart() << '\n';
        std::vector<Ref> chunk(refChunkSize);
        while (std::size_t n =
                   generator->fill(chunk.data(), chunk.size())) {
            for (std::size_t i = 0; i < n; ++i)
                out << refKindName(chunk[i].kind) << ' ' << std::hex
                    << chunk[i].addr << std::dec << ' ' << chunk[i].pid
                    << '\n';
            refs += n;
        }
        ASSERT_TRUE(out.good());
    }
    const std::uint64_t resident_bytes = refs * sizeof(Ref);

    SimResult result;
    {
        auto source = openRefSource(path);
        ASSERT_EQ(source->size(), refs);
        result = makeSimulator(SystemConfig::paperDefault())->run(*source);
    }
    std::remove(path.c_str());

    EXPECT_GT(result.refs, 0u);
    const std::uint64_t peak = peakRssBytes();
    EXPECT_LT(peak, resident_bytes / 2)
        << "peak RSS " << (peak >> 20) << " MB for a "
        << (resident_bytes >> 20) << " MB trace";
}

} // namespace
} // namespace cachetime
