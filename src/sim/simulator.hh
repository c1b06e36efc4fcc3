/**
 * @file
 * The one engine interface: every simulated machine runs a reference
 * stream through the resumable beginRun() / feedChunk() / endRun()
 * triple, and makeSimulator() is the single place that picks the
 * engine for a configuration - the classic uniprocessor System
 * (sim/system.hh) or the coherent multi-core CoherentSystem
 * (sim/coherent.hh).
 *
 * Both engines are span-split-invariant: feeding a stream in any
 * partition whose cuts obey coupletSafeCut() (trace/ref.hh) yields
 * bit-identical results.  ChunkFeeder is the one code that cuts a
 * stream into spans, so the one-shot run() is written once, here, as
 * beginRun + one feedChunk per ChunkFeeder span + endRun, and the
 * batched sweep engine feeds one decode to many machines through the
 * same three calls.
 */

#ifndef CACHETIME_SIM_SIMULATOR_HH
#define CACHETIME_SIM_SIMULATOR_HH

#include <cstddef>
#include <memory>

#include "sim/sim_result.hh"
#include "sim/system_config.hh"
#include "trace/ref_source.hh"
#include "trace/trace.hh"

namespace cachetime
{

class IntervalCollector;
class StateReader;
class StateWriter;

/** One simulated machine, whichever engine implements it. */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;
    virtual ~Simulator() = default;

    /**
     * Run @p trace to completion and return measurements taken
     * after its warm-start boundary.  Adapts the trace and delegates
     * to the streaming overload, so eager and streamed runs share
     * one loop.
     */
    SimResult run(const Trace &trace);

    /**
     * Run @p source to completion, pulling bounded chunks, so peak
     * memory is independent of stream length.  The source is reset()
     * at the start of the run.
     */
    SimResult run(RefSource &source);

    /**
     * Arm the machine for @p source's stream.  Chunks fed afterwards
     * must partition the stream in order, and no chunk may end
     * between an IFetch and the data reference that follows it
     * (coupletSafeCut(); ChunkFeeder's spans obey it).
     */
    virtual void beginRun(const RefSource &source) = 0;

    /** Replay @p n references continuing the armed run. */
    virtual void feedChunk(const Ref *refs, std::size_t n) = 0;

    /** Finish the armed run and return its measurements. */
    virtual SimResult endRun() = 0;

    /**
     * Attach @p collector (nullptr to detach) for windowed snapshots
     * of the measured counters (stats/interval.hh).  Observation
     * only; takes effect at the next beginRun().
     */
    virtual void setIntervalCollector(IntervalCollector *collector) = 0;

    /**
     * Serialize the machine's complete warm state (live-points
     * checkpoints, DESIGN.md section 12).  Valid between feedChunk()
     * calls of an armed run; statistics are not state.
     */
    virtual void captureState(StateWriter &w) const = 0;

    /**
     * Restore everything captureState() wrote into a same-config
     * machine, after beginRun() and before the first feedChunk().
     * The continued run is bit-identical to the uninterrupted one.
     */
    virtual void restoreState(StateReader &r) = 0;

    /** @return the configuration this machine was built from. */
    virtual const SystemConfig &config() const = 0;
};

/**
 * @return a machine for @p config: a CoherentSystem exactly when
 * config.coherent() holds, a System otherwise.  The configuration is
 * validated by the engine's constructor.
 */
std::unique_ptr<Simulator> makeSimulator(const SystemConfig &config);

} // namespace cachetime

#endif // CACHETIME_SIM_SIMULATOR_HH
