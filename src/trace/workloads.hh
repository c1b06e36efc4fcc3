/**
 * @file
 * The eight Table 1 workloads.
 *
 * Each spec names a workload from the paper's Table 1 and records
 * its multiprogramming level, length, warm-start protocol and
 * flavour (VAX/VMS multiprogramming vs. interleaved R2000 user
 * programs with a warm-start prefix).  generate() expands a spec
 * into a concrete trace; a scale factor shortens every length
 * proportionally so benches can trade fidelity for runtime.
 */

#ifndef CACHETIME_TRACE_WORKLOADS_HH
#define CACHETIME_TRACE_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace cachetime
{

/** Declarative description of one Table 1 workload. */
struct WorkloadSpec
{
    std::string name;             ///< paper name, e.g. "mu3"
    unsigned processes = 1;       ///< multiprogramming level
    std::size_t lengthRefs = 0;   ///< live references (paper scale)
    std::size_t warmStartRefs = 0;///< warm-start boundary (VAX style)
    bool risc = false;            ///< R2000 flavour with init prefix
    unsigned zeroingProcs = 0;    ///< processes that zero their data
    std::uint64_t seed = 1;       ///< determinism root
    double footprintScale = 1.0;  ///< scales per-process footprints

    /**
     * Fraction of each process's data references steered into the
     * shared segment (same virtual address in every process); zero
     * keeps the Table 1 behaviour of fully private footprints.
     * Used by the multi-core sharing workloads (fig_sharing).
     */
    double sharedFraction = 0.0;
    std::uint64_t sharedWords = 4 * 1024; ///< shared-segment size
};

/** @return the specs for all eight Table 1 workloads. */
std::vector<WorkloadSpec> table1Workloads();

/**
 * Expand @p spec into a trace.
 *
 * @param spec  the workload description
 * @param scale multiplies every reference count (length, warm start,
 *              prefix sample); footprints are unaffected
 */
Trace generate(const WorkloadSpec &spec, double scale = 1.0);

class InterleaveSource;
class ProcessModel;

/**
 * @return the process models of @p spec, one per process with its
 * jittered footprint and its own seed, in the order
 * makeWorkloadSource() interleaves them.
 */
std::vector<ProcessModel> workloadProcesses(const WorkloadSpec &spec);

/**
 * Expand @p spec into a *streaming* source producing exactly the
 * reference stream generate() would materialize (generate() is the
 * materialization of this source).  Lets arbitrarily long workloads
 * be generated, hashed and replayed at bounded RSS.  A scale that is
 * not finite and positive, or that scales a count to 2^63 or more,
 * is fatal.
 */
std::unique_ptr<InterleaveSource>
makeWorkloadSource(const WorkloadSpec &spec, double scale = 1.0);

/** Generate all eight Table 1 traces at the given scale. */
std::vector<Trace> generateTable1(double scale = 1.0);

/**
 * @return the default scale used by benches: the value of the
 * CACHETIME_SCALE environment variable when it is set, else
 * @p fallback.  A set value that is not a finite positive number is
 * fatal.
 */
double benchScale(double fallback = 0.20);

} // namespace cachetime

#endif // CACHETIME_TRACE_WORKLOADS_HH
