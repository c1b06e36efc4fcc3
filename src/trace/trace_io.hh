/**
 * @file
 * Trace serialization.
 *
 * Three interchange formats are supported:
 *
 *  - a human-readable text format, one reference per line:
 *        <kind> <hex word address> <pid>
 *    where kind is I, L or S (the classic "din" dialect extended
 *    with a process id column);
 *
 *  - the classic Dinero "din" dialect (uniprocess, byte addresses);
 *
 *  - CTTRACE2, the compact binary format of trace/trace_v2.hh, for
 *    traces in the multi-million-reference range.
 *
 * Each format has exactly one reader, and every reader streams:
 * openRefSource() picks the reader for a file, and the eager loaders
 * are materialize() over its sources.  Text and
 * CTTRACE2 round-trip exactly, including the warm-start boundary.
 * CTTRACE1, the first binary format, is retired: its magic is
 * rejected by name.
 */

#ifndef CACHETIME_TRACE_TRACE_IO_HH
#define CACHETIME_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/trace.hh"

namespace cachetime
{

class RefSource;

/** Write @p trace to @p os in the text format. */
void writeText(const Trace &trace, std::ostream &os);

/**
 * Parse a text-format trace from @p is, which must be seekable: the
 * reader makes one pass to count the references and a second to
 * parse them.
 *
 * Lines beginning with '#' are comments, except the optional
 * "#warmstart N" directive (the last one wins).  Malformed lines are
 * a fatal error.
 */
Trace readText(std::istream &is, const std::string &name = "trace");

/**
 * Parse a classic Dinero "din" format trace from the seekable @p is:
 * one access per line, `<label> <hex byte address>` where label 0 =
 * data read, 1 = data write, 2 = instruction fetch (other labels are
 * ignored, matching dineroIV).  Byte addresses are converted to word
 * addresses and all references get pid 0 (the format is uniprocess).
 */
Trace readDinero(std::istream &is, const std::string &name = "din");

/**
 * Write @p trace in the Dinero din format.  The format is
 * uniprocess: pids are dropped.  A trace carrying more than one
 * distinct pid draws a warning, or a fatal error when
 * @p strict_pids is set, because it cannot round-trip.
 */
void writeDinero(const Trace &trace, std::ostream &os,
                 bool strict_pids = false);

/** @return a workload name derived from @p path (basename, no ext). */
std::string workloadNameFromPath(const std::string &path);

/**
 * Open @p path as a streaming RefSource, whatever its format.  The
 * 8-byte magic picks CTTRACE2; otherwise a ".din" suffix picks the
 * Dinero dialect and anything else is text.  Every
 * source holds a bounded buffer however long the trace.  A file that
 * cannot be opened or read, or a retired CTTRACE1 file, is a fatal
 * error.
 */
std::unique_ptr<RefSource> openRefSource(const std::string &path);

/** Load the whole trace at @p path: materialize(*openRefSource(path)). */
Trace loadFile(const std::string &path);

/**
 * Save @p trace to @p path, the writer picked by suffix as the
 * loader picks the reader: ".txt" writes text, ".din" writes Dinero,
 * and anything else writes CTTRACE2.
 */
void saveFile(const Trace &trace, const std::string &path);

} // namespace cachetime

#endif // CACHETIME_TRACE_TRACE_IO_HH
