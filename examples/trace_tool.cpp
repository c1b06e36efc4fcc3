/**
 * @file
 * Workload/trace utility: generate the Table 1 workloads to disk,
 * inspect a trace file, or convert between the text, Dinero and
 * CTTRACE2 formats.  Demonstrates the trace I/O half of the public
 * API and gives downstream users files they can feed to other
 * simulators.
 *
 * Usage:
 *   trace_tool gen <workload|all> <dir> [scale] [fmt]   generate
 *   trace_tool info <file>                              statistics
 *   trace_tool convert <in> <out>                       convert
 *
 * fmt is v2 (CTTRACE2, the default) or txt.  v2 generation streams
 * from the workload source through V2Writer, so it can produce files
 * far larger than memory.  info and convert read any format, picked
 * as every loader picks it (CTTRACE2 by magic, else Dinero for .din
 * and text otherwise), and convert writes through saveFile(), which
 * picks the output format from the suffix: .txt text, .din Dinero,
 * anything else CTTRACE2.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "trace/interleave.hh"
#include "trace/ref_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_v2.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace cachetime;

namespace
{

int
usage()
{
    std::cerr << "usage:\n"
              << "  trace_tool gen <workload|all> <dir> [scale] "
                 "[v2|txt]\n"
              << "  trace_tool info <file>\n"
              << "  trace_tool convert <in> <out>  "
                 "(.txt text, .din Dinero, else CTTRACE2)\n";
    return 2;
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    std::string which = argv[2];
    std::string dir = argv[3];
    double scale = argc > 4 ? std::atof(argv[4]) : 0.1;
    std::string fmt = argc > 5 ? argv[5] : "v2";
    if (fmt != "txt" && fmt != "v2")
        return usage();
    for (const WorkloadSpec &spec : table1Workloads()) {
        if (which != "all" && which != spec.name)
            continue;
        if (fmt == "v2") {
            // Stream straight from the generator: no materialized
            // trace, so arbitrarily large scales fit in memory.
            auto source = makeWorkloadSource(spec, scale);
            std::string path = dir + "/" + spec.name + ".v2";
            V2Writer writer(path, source->warmStart());
            std::vector<Ref> buf(refChunkSize);
            std::size_t n;
            while ((n = source->fill(buf.data(), buf.size())) > 0)
                for (std::size_t i = 0; i < n; ++i)
                    writer.push(buf[i]);
            writer.close();
            std::cout << "wrote " << path << " (" << writer.count()
                      << " refs, streamed)\n";
            continue;
        }
        Trace trace = generate(spec, scale);
        std::string path = dir + "/" + spec.name + ".txt";
        saveFile(trace, path);
        std::cout << "wrote " << path << " (" << trace.size()
                  << " refs)\n";
    }
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    Trace trace = loadFile(argv[2]);
    TraceStats stats = computeStats(trace);
    TablePrinter table({"property", "value"});
    table.addRow({"name", trace.name()});
    table.addRow({"references", std::to_string(stats.total)});
    table.addRow({"warm start", std::to_string(trace.warmStart())});
    table.addRow({"ifetches", std::to_string(stats.ifetches)});
    table.addRow({"loads", std::to_string(stats.loads)});
    table.addRow({"stores", std::to_string(stats.stores)});
    table.addRow({"unique (pid,addr)",
                  std::to_string(stats.uniqueAddrs)});
    table.addRow({"processes", std::to_string(stats.processes)});
    table.addRow({"data fraction",
                  TablePrinter::fmt(stats.dataFraction(), 3)});
    table.print(std::cout);
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    Trace trace = loadFile(argv[2]);
    std::string out = argv[3];
    saveFile(trace, out);
    auto ends_with = [&](const char *suffix) {
        std::string s(suffix);
        return out.size() >= s.size() &&
               out.compare(out.size() - s.size(), s.size(), s) == 0;
    };
    std::cout << "wrote " << out << " ("
              << (ends_with(".txt")   ? "text"
                  : ends_with(".din") ? "dinero"
                                      : "v2")
              << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "gen") == 0)
        return cmdGen(argc, argv);
    if (std::strcmp(argv[1], "info") == 0)
        return cmdInfo(argc, argv);
    if (std::strcmp(argv[1], "convert") == 0)
        return cmdConvert(argc, argv);
    return usage();
}
