/**
 * @file
 * The benchmark's own tests, run by `python3 perfbench/run.py
 * --self-test`: a perturbed result must count as wrong, a query that
 * reuses memoized results must be flagged warm, and every traced
 * breakdown must reproduce its untraced query bit for bit.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "perfbench.hh"
#include "trace/workloads.hh"
#include "util/parallel.hh"

namespace perfbench
{

using namespace cachetime;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

/** The checks a run applies must catch a single wrong counter. */
void
perturbedResultIsWrong()
{
    Trace trace = generate(table1Workloads()[0], 0.01);
    SimResult good = simulateOne(SystemConfig::paperDefault(), trace);
    SimResult bad = good;
    bad.dcache.readMisses += 1;

    std::string why;
    expect(sameResult(good, good, &why), "a result agrees with itself");
    expect(!sameResult(good, bad, &why) &&
               why.find("dcache.readMisses") != std::string::npos,
           "a perturbed counter is reported by name");
    expect(digestResult(good) != digestResult(bad),
           "a perturbed counter changes the digest");

    std::vector<std::uint64_t> reference{digestResult(good),
                                         digestResult(good)};
    std::vector<std::uint64_t> got{digestResult(good), digestResult(bad)};
    expect(mismatchedPoints(got, reference) == std::vector<std::size_t>{1},
           "the perturbed point, and only it, counts as wrong");
    expect(mismatchedPoints({got[0]}, reference).size() == 2,
           "a missing point counts every point wrong");
}

/** Cold/warm flagging, traced equivalence and the spot check. */
void
workloadChecks(const std::string &name, double scale,
               const std::string &workdir)
{
    std::unique_ptr<Workload> w = makeWorkload(name, workdir, scale);
    w->setup(1, nullptr);

    Rep cold = measureQuery(*w, true, nullptr, nullptr);
    expect(!warmRun(cold) && cold.cacheLookups > 0,
           name + ": a cold query looks up but never hits the SimCache");
    Rep warm = measureQuery(*w, false, nullptr, nullptr);
    expect(warmRun(warm),
           name + ": a query over a filled SimCache is flagged warm");

    SpanLog log("query");
    QueryWork work;
    Rep traced = measureQuery(*w, true, &log, &work);
    expect(traced.out.digests == cold.out.digests &&
               traced.out.digests.size() == w->points(),
           name + ": the traced breakdown reproduces the query");
    expect(!log.records().empty(), name + ": the breakdown records spans");

    std::string why;
    expect(w->spotCheck(0, &why) && w->spotCheck(w->points() - 1, &why),
           name + ": spot-checked points agree with simulateOne " + why);
}

} // namespace

int
selfTest(const std::string &workdir)
{
    setParallelThreads(2);
    perturbedResultIsWrong();
    workloadChecks("missratio-grid", 0.1, workdir);
    workloadChecks("exectime-grid", 0.1, workdir);
    // SMARTS needs enough of the stream for its pilot sample.
    workloadChecks("stream-sampled", 0.5, workdir);
    workloadChecks("coherent-sharing", 0.1, workdir);
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}

} // namespace perfbench
