/**
 * @file
 * The reference oracle simulator.
 *
 * The whole argument of the paper rests on trusting the simulator's
 * cycle accounting (total time = cycle count x cycle time, Section
 * 2).  oracleRun() is an independent re-derivation of that
 * accounting from the paper's stated timing rules - nanosecond
 * quantization to whole cycles, write-buffer stall conditions,
 * paired I/D issue, latency/transfer/recovery occupancy of the
 * memory banks - written as single-threaded straight-line code with
 * no memoization, no result sharing and no data-structure tricks:
 * plain per-word valid/dirty byte vectors instead of bitmask words,
 * and one flat function per hierarchy component.
 *
 * The fast path (sim/system.cc and friends) and the oracle must
 * agree *exactly*, counter for counter, on every configuration the
 * oracle supports; src/verify/fuzz.hh drives that comparison over
 * randomized machines and traces.  When they disagree, one of the
 * two misreads the paper - and the oracle is short enough to audit
 * by eye.
 *
 * Deliberately out of scope (oracleSupports() returns false):
 * hardware prefetch and victim caches.  Both are post-paper
 * extensions; the paper's machine space (Table 1 through Section 6)
 * is fully covered, including multi-level hierarchies, physical
 * addressing behind a TLB, sub-block fetching and every write
 * buffer knob.
 */

#ifndef CACHETIME_VERIFY_ORACLE_HH
#define CACHETIME_VERIFY_ORACLE_HH

#include <string>

#include "sim/sim_result.hh"
#include "sim/system_config.hh"
#include "trace/ref_source.hh"
#include "trace/trace.hh"

namespace cachetime
{
namespace verify
{

/**
 * @return true if the oracle models every feature @p config
 * enables; when false and @p why is non-null, *why names the first
 * unsupported feature.
 */
bool oracleSupports(const SystemConfig &config,
                    std::string *why = nullptr);

/**
 * Simulate @p trace on @p config with the reference model.
 *
 * @return a SimResult whose every counter (cycles, per-level cache
 * and write-buffer statistics, memory and TLB activity, stall
 * attribution, miss-penalty histogram) is defined to match
 * System::run() bit for bit.  Fatal-exits on a configuration
 * oracleSupports() rejects.
 */
SimResult oracleRun(const SystemConfig &config, const Trace &trace);

/**
 * Streamed counterpart: pulls @p source chunk by chunk through the
 * oracle's own buffering and pairing loop (kept separate from the
 * simulator's ChunkFeeder, coupletSafeCut() and MeasureWindow so
 * the harness stays independent of the machinery it checks).
 * resets() the source first.
 */
SimResult oracleRun(const SystemConfig &config, RefSource &source);

} // namespace verify
} // namespace cachetime

#endif // CACHETIME_VERIFY_ORACLE_HH
