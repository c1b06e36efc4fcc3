#include "core/experiment.hh"

#include <algorithm>

#include "core/sweep.hh"
#include "util/mathutil.hh"

namespace cachetime
{

namespace
{

constexpr double ratioFloor = 1e-9;

using SimResultPtr = std::shared_ptr<const SimResult>;

} // namespace

double
geoMeanFloored(std::vector<double> values)
{
    for (double &v : values)
        v = std::max(v, ratioFloor);
    return geometricMean(values);
}

/** Geometric-mean the per-trace results, in trace order. */
AggregateMetrics
aggregateResults(const SystemConfig &config,
                 const std::vector<SimResultPtr> &results)
{
    std::vector<double> cpr, exec, rmiss, imiss, lmiss, wmiss;
    std::vector<double> rtraf, wtraf_b, wtraf_w;
    cpr.reserve(results.size());
    for (const SimResultPtr &r : results) {
        cpr.push_back(r->cyclesPerRef());
        exec.push_back(r->execNsPerRef());
        rmiss.push_back(r->readMissRatio());
        imiss.push_back(r->ifetchMissRatio());
        lmiss.push_back(r->loadMissRatio());
        wmiss.push_back(r->dcache.writeMissRatio());
        rtraf.push_back(r->readTrafficRatio());
        wtraf_b.push_back(
            r->writeTrafficBlockRatio(config.dcache.blockWords));
        wtraf_w.push_back(r->writeTrafficWordRatio());
    }

    AggregateMetrics m;
    m.cyclesPerRef = geoMeanFloored(cpr);
    m.execNsPerRef = geoMeanFloored(exec);
    m.readMissRatio = geoMeanFloored(rmiss);
    m.ifetchMissRatio = geoMeanFloored(imiss);
    m.loadMissRatio = geoMeanFloored(lmiss);
    m.writeMissRatio = geoMeanFloored(wmiss);
    m.readTrafficRatio = geoMeanFloored(rtraf);
    m.writeTrafficBlockRatio = geoMeanFloored(wtraf_b);
    m.writeTrafficWordRatio = geoMeanFloored(wtraf_w);
    return m;
}

SimResult
simulateOne(const SystemConfig &config, const Trace &trace)
{
    return makeSimulator(config)->run(trace);
}

SimResultPtr
simulateOneCached(const SystemConfig &config, const Trace &trace)
{
    TraceRefSource source(trace);
    return simulateSourceCachedMany({config}, source)[0];
}

AggregateMetrics
runGeoMean(const SystemConfig &config, const std::vector<Trace> &traces)
{
    return runGeoMeanMany({config}, traces)[0];
}

} // namespace cachetime
