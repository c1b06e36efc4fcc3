/**
 * @file
 * The CPU model: a pipelined machine issuing simultaneous
 * instruction and data references.
 *
 * The paper: "The CPU modeled in the simulator is a pipelined
 * machine capable of issuing simultaneous instruction and data
 * references.  If there are separate instruction and data caches
 * then instruction and data references in the trace are paired up
 * without reordering any of the references.  These couplets are
 * issued at the same time and both must complete before the CPU can
 * proceed to the next reference or reference pair."
 *
 * CpuConfig holds the CPU's timing parameters.  The grouping itself
 * lives where references issue: System's front-end scan and the stack
 * kernel pair each IFetch with the data reference that follows it,
 * and coupletSafeCut() (trace/ref.hh) keeps every cut of a stream
 * from separating the two.
 */

#ifndef CACHETIME_CPU_CPU_HH
#define CACHETIME_CPU_CPU_HH

namespace cachetime
{

/** CPU-side timing parameters. */
struct CpuConfig
{
    /** Cycles for a read (load or ifetch) that hits: paper uses 1. */
    unsigned readHitCycles = 1;

    /** Cycles for a write hit: one tag cycle + one data cycle. */
    unsigned writeHitCycles = 2;

    /** Pair I and D references when the caches are split. */
    bool pairIssue = true;

    /**
     * With early continuation, the CPU resumes as soon as the
     * demanded word arrives rather than when the whole fetch
     * completes (Section 5 lists this as a miss-penalty reducer).
     */
    bool earlyContinuation = false;

    /** Extra cycles to swap a block in from the victim cache. */
    unsigned victimSwapCycles = 1;
};

} // namespace cachetime

#endif // CACHETIME_CPU_CPU_HH
