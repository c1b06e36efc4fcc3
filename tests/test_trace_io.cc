/**
 * @file
 * Round-trip tests for trace serialization, the pinned line language
 * of the text and Dinero readers, rejection tests for malformed input
 * (every loader must fatal() cleanly, never crash), and the format-v2
 * file round trip.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "trace/ref_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_v2.hh"

namespace cachetime
{
namespace
{

Trace
sampleTrace()
{
    return Trace("sample",
                 {
                     {0x1000, RefKind::IFetch, 1},
                     {0x2000, RefKind::Load, 1},
                     {0x2001, RefKind::Store, 2},
                     {0xdeadbeef, RefKind::Load, 3},
                 },
                 2);
}

TEST(TraceIo, TextRoundTrip)
{
    Trace original = sampleTrace();
    std::stringstream buffer;
    writeText(original, buffer);
    Trace copy = readText(buffer, "sample");
    ASSERT_EQ(copy.size(), original.size());
    EXPECT_EQ(copy.warmStart(), original.warmStart());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(copy.refs()[i], original.refs()[i]);
}

TEST(TraceIo, TextSkipsCommentsAndBlanks)
{
    std::stringstream buffer;
    buffer << "# a comment\n\nL 10 1\n# another\nS ff 2\n";
    Trace trace = readText(buffer);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.refs()[0].addr, 0x10u);
    EXPECT_EQ(trace.refs()[0].kind, RefKind::Load);
    EXPECT_EQ(trace.refs()[1].addr, 0xffu);
    EXPECT_EQ(trace.refs()[1].pid, 2u);
}

TEST(TraceIo, TextWarmStartDirective)
{
    std::stringstream buffer;
    buffer << "#warmstart 1\nL 1 0\nL 2 0\n";
    Trace trace = readText(buffer);
    EXPECT_EQ(trace.warmStart(), 1u);
}

TEST(TraceIo, FileRoundTripBothFormats)
{
    // saveFile() picks the writer by suffix: text for ".txt",
    // CTTRACE2 for anything else.
    Trace original = sampleTrace();
    for (const char *suffix : {".txt", ".trace"}) {
        std::string path =
            std::string("/tmp/cachetime_io_test") + suffix;
        saveFile(original, path);
        Trace copy = loadFile(path);
        ASSERT_EQ(copy.size(), original.size());
        EXPECT_EQ(copy.warmStart(), original.warmStart());
        for (std::size_t i = 0; i < original.size(); ++i)
            EXPECT_EQ(copy.refs()[i], original.refs()[i]);
        std::remove(path.c_str());
    }
}

TEST(TraceIo, DineroRoundTrip)
{
    // Pids are dropped by the format, so compare against pid 0.
    Trace original("d",
                   {
                       {0x400, RefKind::IFetch, 0},
                       {0x800, RefKind::Load, 0},
                       {0x801, RefKind::Store, 0},
                   });
    std::stringstream buffer;
    writeDinero(original, buffer);
    Trace copy = readDinero(buffer, "d");
    ASSERT_EQ(copy.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(copy.refs()[i], original.refs()[i]);
}

TEST(TraceIo, DineroMultiPidWarnsAndDropsPids)
{
    // The din format is uniprocess: writing a multi-pid trace warns
    // (once) and drops the pid column, so the round trip folds
    // everything onto pid 0 but keeps every address and kind.
    Trace original = sampleTrace();
    std::stringstream buffer;
    writeDinero(original, buffer);
    Trace copy = readDinero(buffer, "sample");
    ASSERT_EQ(copy.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(copy.refs()[i].addr, original.refs()[i].addr);
        EXPECT_EQ(copy.refs()[i].kind, original.refs()[i].kind);
        EXPECT_EQ(copy.refs()[i].pid, 0u);
    }
}

TEST(TraceIoDeath, DineroStrictModeRejectsMultiPidTrace)
{
    EXPECT_EXIT(
        {
            std::stringstream buffer;
            writeDinero(sampleTrace(), buffer, true);
        },
        ::testing::ExitedWithCode(1), "more than one pid");
}

TEST(TraceIo, DineroSinglePidTraceWritesQuietly)
{
    // One distinct pid — even a nonzero one — is representable, so
    // strict mode accepts it.
    Trace original("d",
                   {
                       {0x400, RefKind::IFetch, 7},
                       {0x800, RefKind::Load, 7},
                   });
    std::stringstream buffer;
    writeDinero(original, buffer, true);
    Trace copy = readDinero(buffer, "d");
    ASSERT_EQ(copy.size(), 2u);
    EXPECT_EQ(copy.refs()[1].addr, 0x800u);
}

TEST(TraceIo, TextAcceptsLargestPid)
{
    std::stringstream buffer;
    buffer << "L 10 65535\n";
    Trace trace = readText(buffer);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.refs()[0].pid, 0xffffu);
}

TEST(TraceIoDeath, TextRejectsPidBeyond16Bits)
{
    EXPECT_EXIT(
        {
            std::stringstream buffer;
            buffer << "L 10 65536\n";
            readText(buffer);
        },
        ::testing::ExitedWithCode(1), "16-bit pid limit");
}

TEST(TraceIo, DineroParsesClassicFormat)
{
    std::stringstream buffer;
    // Byte addresses; label 0 read, 1 write, 2 ifetch; label 3
    // (escape) ignored.
    buffer << "2 1000\n0 2000\n1 2004\n3 0\n";
    Trace trace = readDinero(buffer);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.refs()[0].kind, RefKind::IFetch);
    EXPECT_EQ(trace.refs()[0].addr, 0x1000u / 4);
    EXPECT_EQ(trace.refs()[1].kind, RefKind::Load);
    EXPECT_EQ(trace.refs()[2].kind, RefKind::Store);
    EXPECT_EQ(trace.refs()[2].addr, 0x2004u / 4);
}

TEST(TraceIo, DineroByFileExtension)
{
    Trace original("d", {{0x10, RefKind::Load, 0}});
    saveFile(original, "/tmp/cachetime_t.din");
    Trace copy = loadFile("/tmp/cachetime_t.din");
    ASSERT_EQ(copy.size(), 1u);
    EXPECT_EQ(copy.refs()[0].addr, 0x10u);
    std::remove("/tmp/cachetime_t.din");
}

TEST(TraceIo, LoadFileDerivesName)
{
    Trace original = sampleTrace();
    saveFile(original, "/tmp/myworkload.trace");
    Trace copy = loadFile("/tmp/myworkload.trace");
    EXPECT_EQ(copy.name(), "myworkload");
    std::remove("/tmp/myworkload.trace");
}

TEST(TraceIo, TextPidColumnIsOptional)
{
    std::stringstream buffer;
    buffer << "L 10\nS ff 2\nI 20\n";
    Trace trace = readText(buffer);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.refs()[0].pid, 0u);
    EXPECT_EQ(trace.refs()[1].pid, 2u);
    EXPECT_EQ(trace.refs()[2].pid, 0u);
}

TEST(TraceIo, TextLineLanguageIsPinned)
{
    // What the text reader makes of single lines, quirks included, so
    // a change to the reader cannot move the accepted language.
    const std::vector<std::pair<std::string, Ref>> accepted = {
        {"L 0x10 1", {0x10, RefKind::Load, 1}},   // 0x prefix
        {"load 20 1", {0x20, RefKind::Load, 1}},  // first char is kind
        {"I 30 2\r", {0x30, RefKind::IFetch, 2}}, // CRLF line ending
        {"\tS 40", {0x40, RefKind::Store, 0}},    // pid defaults to 0
        {"L 10 +7", {0x10, RefKind::Load, 7}},
        {"S 1f 3 trailing junk", {0x1f, RefKind::Store, 3}},
        {"L 10 0x5", {0x10, RefKind::Load, 0}},   // pid reads "0"
    };
    for (const auto &[line, want] : accepted) {
        std::stringstream buffer(line + "\n");
        Trace trace = readText(buffer);
        ASSERT_EQ(trace.size(), 1u) << line;
        EXPECT_EQ(trace.refs()[0], want) << line;
    }
    for (const char *line : {"L 10 -1", "L 10 65536", "L zz 1",
                             "L 10000000000000000 1", "X 10 1", "L"}) {
        EXPECT_EXIT(
            {
                std::stringstream buffer(std::string(line) + "\n");
                readText(buffer);
            },
            ::testing::ExitedWithCode(1), "trace_io")
            << line;
    }
}

TEST(TraceIo, DineroLineLanguageIsPinned)
{
    // The Dinero counterpart: byte addresses become word addresses,
    // every pid is 0, and comments and other labels are skipped.
    const std::vector<std::pair<std::string, Ref>> accepted = {
        {"0 0x40", {0x10, RefKind::Load, 0}}, // 0x prefix
        {"1 80\r", {0x20, RefKind::Store, 0}}, // CRLF line ending
        {"2 103", {0x40, RefKind::IFetch, 0}}, // byte offset dropped
    };
    for (const auto &[line, want] : accepted) {
        std::stringstream buffer(line + "\n");
        Trace trace = readDinero(buffer);
        ASSERT_EQ(trace.size(), 1u) << line;
        EXPECT_EQ(trace.refs()[0], want) << line;
    }
    for (const char *line : {"# comment", "#warmstart 1", "3 0"}) {
        std::stringstream buffer(std::string(line) + "\n");
        Trace trace = readDinero(buffer);
        EXPECT_EQ(trace.size(), 0u) << line;
        EXPECT_EQ(trace.warmStart(), 0u) << line;
    }
    for (const char *line : {"0 zz", "x 10", "0"}) {
        EXPECT_EXIT(
            {
                std::stringstream buffer(std::string(line) + "\n");
                readDinero(buffer);
            },
            ::testing::ExitedWithCode(1), "malformed din line")
            << line;
    }
}

TEST(TraceIoDeath, TextRejectsMalformedPid)
{
    EXPECT_EXIT(
        {
            std::stringstream buffer;
            buffer << "L 10 bogus\n";
            readText(buffer);
        },
        ::testing::ExitedWithCode(1), "malformed pid");
}

TEST(TraceIoDeath, TextRejectsWarmStartBeyondEnd)
{
    EXPECT_EXIT(
        {
            std::stringstream buffer;
            buffer << "#warmstart 5\nL 1 0\nL 2 0\n";
            readText(buffer);
        },
        ::testing::ExitedWithCode(1), "warmstart 5 beyond");
}

TEST(TraceIoDeath, BinaryRejectsHugeCountWithoutAllocating)
{
    // A corrupt CTTRACE2 count field must surface as a header
    // mismatch, not an attempt to reserve count * sizeof(Ref) bytes.
    std::string path = "/tmp/cachetime_io_test_v2huge.trace";
    writeV2(sampleTrace(), path);
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(16); // count field
        const char ones[8] = {'\xff', '\xff', '\xff', '\xff',
                              '\xff', '\xff', '\xff', '\xff'};
        f.write(ones, sizeof(ones));
    }
    EXPECT_EXIT(loadFile(path), ::testing::ExitedWithCode(1),
                "does not match the header count");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, RetiredV1IsRejectedByName)
{
    // CTTRACE1's header and one record: magic, count, warm start,
    // then addr u64, pid u16, kind u8.
    std::string path = "/tmp/cachetime_io_test_v1.trace";
    {
        std::ofstream out(path, std::ios::binary);
        std::string bytes = "CTTRACE1";
        bytes += std::string("\x01\0\0\0\0\0\0\0", 8);
        bytes += std::string(8, '\0');
        bytes += std::string(11, '\0');
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EXIT(loadFile(path), ::testing::ExitedWithCode(1),
                "CTTRACE1 trace, a retired format");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, DirectoryIsRejected)
{
    // A directory opens as a stream but every read fails; it must
    // not run as an empty trace.
    const std::string dir =
        std::filesystem::temp_directory_path().string();
    EXPECT_EXIT(openRefSource(dir), ::testing::ExitedWithCode(1),
                "cannot read");
}

TEST(TraceIoDeath, TextFileShrunkBetweenPassesIsRejected)
{
    // The first pass counts four references; the file then loses
    // lines before the second pass parses them.
    std::string path = "/tmp/cachetime_io_test_shrink.txt";
    saveFile(sampleTrace(), path);
    EXPECT_EXIT(
        {
            auto source = openRefSource(path);
            std::ofstream(path, std::ios::trunc) << "L 10 1\n";
            materialize(*source);
        },
        ::testing::ExitedWithCode(1), "ended after 1 of its 4");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, TextRejectsUnseekableStream)
{
    // The line reader rewinds for its second pass.
    struct OneWay : std::stringbuf
    {
        using std::stringbuf::stringbuf;
        pos_type
        seekoff(off_type, std::ios_base::seekdir,
                std::ios_base::openmode) override
        {
            return pos_type(off_type(-1));
        }
    };
    EXPECT_EXIT(
        {
            OneWay buf("L 10 1\n");
            std::istream in(&buf);
            readText(in);
        },
        ::testing::ExitedWithCode(1), "cannot be rewound");
}

TEST(TraceIo, V2RoundTrip)
{
    Trace original = sampleTrace();
    std::string path = "/tmp/cachetime_io_test_v2.trace";
    writeV2(original, path);
    V2FileSource source(path);
    Trace copy = materialize(source);
    ASSERT_EQ(copy.size(), original.size());
    EXPECT_EQ(copy.warmStart(), original.warmStart());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(copy.refs()[i], original.refs()[i]);
    // loadFile() must recognize the magic without being told.
    Trace sniffed = loadFile(path);
    EXPECT_EQ(sniffed.refs(), original.refs());
    EXPECT_EQ(sniffed.warmStart(), original.warmStart());
    std::remove(path.c_str());
}

TEST(TraceIo, V2WriterStreamsIncrementally)
{
    Trace original = sampleTrace();
    std::string path = "/tmp/cachetime_io_test_v2w.trace";
    {
        V2Writer writer(path, original.warmStart());
        for (const Ref &ref : original.refs())
            writer.push(ref);
        EXPECT_EQ(writer.count(), original.size());
    } // destructor closes and patches the header
    Trace copy = loadFile(path);
    EXPECT_EQ(copy.refs(), original.refs());
    EXPECT_EQ(copy.warmStart(), original.warmStart());
    std::remove(path.c_str());
}

TEST(TraceIoDeath, V2RejectsTruncation)
{
    std::string path = "/tmp/cachetime_io_test_v2t.trace";
    writeV2(sampleTrace(), path);
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    in.close();
    std::string bytes = ss.str();
    bytes.resize(bytes.size() - 3);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    EXPECT_EXIT(loadFile(path), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(V2FileSource source(path),
                ::testing::ExitedWithCode(1), "");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, V2RejectsWarmStartBeyondCount)
{
    std::string path = "/tmp/cachetime_io_test_v2w2.trace";
    writeV2(sampleTrace(), path);
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(24); // warm-start field
        char big[8] = {'\x77', 0, 0, 0, 0, 0, 0, 0};
        f.write(big, sizeof(big));
    }
    EXPECT_EXIT(loadFile(path), ::testing::ExitedWithCode(1),
                "warm start");
    std::remove(path.c_str());
}

TEST(TraceIo, OpenRefSourceMatchesLoadFileEverywhere)
{
    // One pid, so the Dinero file round-trips too (less the warm
    // start, which the format cannot carry).
    Trace original("sample",
                   {{0x1000, RefKind::IFetch, 0},
                    {0x2000, RefKind::Load, 0},
                    {0x2001, RefKind::Store, 0},
                    {0xdeadbeef, RefKind::Load, 0}},
                   2);
    for (const char *path : {"/tmp/cachetime_ors.txt",
                             "/tmp/cachetime_ors.din",
                             "/tmp/cachetime_ors.v2"}) {
        saveFile(original, path);
        Trace eager = loadFile(path);
        EXPECT_EQ(eager.refs(), original.refs()) << path;
        auto source = openRefSource(path);
        // Every format streams: nothing is materialized behind the
        // source.
        EXPECT_EQ(dynamic_cast<TraceRefSource *>(source.get()), nullptr)
            << path;
        Trace streamed = materialize(*source);
        EXPECT_EQ(streamed.refs(), eager.refs()) << path;
        EXPECT_EQ(streamed.warmStart(), eager.warmStart()) << path;
        EXPECT_EQ(source->contentHash(), traceIdentityHash(eager))
            << path;
        std::remove(path);
    }
}

} // namespace
} // namespace cachetime
