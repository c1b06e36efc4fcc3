/**
 * @file
 * The experiment methodology of the paper: run one machine
 * configuration over the eight warm-start traces and aggregate with
 * the geometric mean ("Numerical results in this paper are the
 * geometric mean of warm start runs for all eight traces").
 *
 * Trace runs are independent, so the grid driver behind
 * runGeoMeanGrid (core/sweep.hh) dispatches its (config group, trace)
 * tasks through the process-wide thread pool (util/parallel.hh);
 * results land in slots indexed by (config, trace), so the output is
 * bit-identical at any thread count.  A figure asks for its whole
 * grid in one call: configs that share an L1 organization then share
 * one front end, and the call hands back every (config, trace) run
 * beside the aggregates, so a bench that also reads raw counters
 * needs no second query.
 */

#ifndef CACHETIME_CORE_EXPERIMENT_HH
#define CACHETIME_CORE_EXPERIMENT_HH

#include <memory>
#include <vector>

#include "sim/system.hh"

namespace cachetime
{

/** The four miss ratios of a grid point (Figures 3-1 and 4-1). */
struct MissRatioMetrics
{
    double readMissRatio = 0.0;
    double ifetchMissRatio = 0.0;
    double loadMissRatio = 0.0;
    double writeMissRatio = 0.0;
};

/**
 * Geometric-mean metrics over a trace set for one configuration: the
 * four miss ratios plus execution time and memory traffic.
 */
struct AggregateMetrics : MissRatioMetrics
{
    double cyclesPerRef = 0.0;
    double execNsPerRef = 0.0;
    double readTrafficRatio = 0.0;
    double writeTrafficBlockRatio = 0.0;
    double writeTrafficWordRatio = 0.0;
};

/**
 * Geometric mean with every value floored at the tiny epsilon used
 * by all aggregate ratios, so one perfectly-cached trace cannot
 * annihilate the product.  Exposed so callers that aggregate by hand
 * produce doubles bit-identical to aggregateResults().
 */
double geoMeanFloored(std::vector<double> values);

/** Simulate one trace on one configuration (always runs, no cache). */
SimResult simulateOne(const SystemConfig &config, const Trace &trace);

/**
 * Geometric-mean the per-result metrics, in the order given: the one
 * aggregation behind runGeoMeanGrid and runMissRatioMany.  Also for
 * callers that already hold results - e.g. from streamed sources,
 * which runGeoMeanGrid's Trace interface cannot express without
 * materializing.
 */
AggregateMetrics
aggregateResults(const SystemConfig &config,
                 const std::vector<std::shared_ptr<const SimResult>>
                     &results);

/**
 * Simulate every trace on @p config and geometric-mean the metrics:
 * runGeoMeanMany for a one-config batch.
 */
AggregateMetrics runGeoMean(const SystemConfig &config,
                            const std::vector<Trace> &traces);

/** Every result of one timing grid query (runGeoMeanGrid). */
struct GridRuns
{
    /** metrics[c]: configs[c] aggregated over the traces. */
    std::vector<AggregateMetrics> metrics;
    /**
     * runs[c * T + t]: configs[c] over traces[t], config-major, for
     * T traces.  metrics[c] is aggregateResults() of runs c * T ..
     * c * T + T - 1.
     */
    std::vector<std::shared_ptr<const SimResult>> runs;
};

/**
 * Simulate every configuration in @p configs over every trace and
 * aggregate each: the grid driver (core/sweep.hh) over the fused
 * timing lattice.  Configs are fused in groups per trace pass and
 * every (group, trace) task goes into one parallel dispatch, so a
 * sweep of N points parallelizes across the grid rather than traces
 * at a time.  The output is independent of the thread count, and
 * each run equals simulateOne() of its (config, trace).  Defined in
 * core/sweep.cc.
 *
 * Ratios that are zero for some trace are floored at a tiny epsilon
 * before entering the geometric mean so one perfectly-cached trace
 * cannot annihilate the aggregate.
 */
GridRuns runGeoMeanGrid(const std::vector<SystemConfig> &configs,
                        const std::vector<Trace> &traces);

/**
 * runGeoMeanGrid's metrics alone: element i of the result
 * corresponds to configs[i].
 */
std::vector<AggregateMetrics>
runGeoMeanMany(const std::vector<SystemConfig> &configs,
               const std::vector<Trace> &traces);

} // namespace cachetime

#endif // CACHETIME_CORE_EXPERIMENT_HH
