/**
 * @file
 * The cachetime benchmark driver: one workload per process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--json PATH] [--pins PATH] [--workdir DIR]
 *   perfbench --self-test [--workdir DIR]
 *
 * Every option also accepts the --opt=value form.  perfbench/run.py
 * builds this program and is the command users (and CI) run.
 *
 * Output: one line per metric ("metric NAME VALUE UNIT"), check
 * results, and as the last line a JSON object with the keys correct,
 * attempted, failed and metrics.  With --trace 0 the metrics are the
 * end-to-end ones, measured with tracing off; with --trace 1 they are
 * the per-layer ones from the traced breakdown and the micro-kernels.
 *
 * The simulated machine has no hardware reference in this
 * repository, so the model is unvalidated: outputs are checked only
 * against pinned digests and the per-config simulateOne() path, and
 * no accuracy-versus-hardware figure is reported.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "core/sim_cache.hh"
#include "perfbench.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace perfbench
{

using namespace cachetime;

/** @return CPU seconds this process has used, all threads. */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

Rep
measureQuery(Workload &workload, bool cold, SpanLog *log, QueryWork *work)
{
    SimCache &cache = SimCache::global();
    if (cold)
        cache.clear();
    std::uint64_t hits = cache.hits();
    std::uint64_t misses = cache.misses();
    Rep rep;
    double cpu = cpuSeconds();
    Clock::time_point start = Clock::now();
    rep.out = log ? workload.tracedQuery(*log, *work) : workload.query();
    rep.seconds = secondsSince(start);
    rep.cpuSeconds = cpuSeconds() - cpu;
    rep.cacheHits = cache.hits() - hits;
    rep.cacheLookups = rep.cacheHits + cache.misses() - misses;
    return rep;
}

bool
warmRun(const Rep &rep)
{
    return rep.cacheHits != 0;
}

namespace
{

/** Set-up repetitions; setup_s is their median. */
constexpr int setupReps = 9;
/** Query repetitions at least, whatever --seconds says. */
constexpr int minReps = 5;
/**
 * Pool size cap.  On a shared 4-vCPU host, in four or five runs at
 * one seed, the spread of exectime-grid's query_s was 15% with 4 pool
 * threads and 5% with 2, so the benchmark leaves half the CPUs to its
 * neighbours.
 */
constexpr unsigned maxThreads = 2;
/** Longest the host warm-up may take before measuring starts. */
constexpr double maxWarmUpS = 3.0;
/** The seed the pinned digests were recorded with. */
constexpr std::uint64_t pinnedSeed = 1;
/** Grid points spot-checked against simulateOne() per run. */
constexpr std::size_t spotChecks = 3;

const char *const usageText =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                 [--json PATH] [--pins PATH] [--workdir DIR]\n"
    "       perfbench --self-test [--workdir DIR]\n";

struct Args
{
    std::string workload;
    std::uint64_t seed = pinnedSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string json;
    std::string pins;
    std::string workdir = ".";
    bool selfTest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n%s", why.c_str(), usageText);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &opt, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-')
        usage("bad value for " + opt + ": '" + text + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string opt = argv[i];
        std::string value;
        bool inline_value = false;
        if (auto eq = opt.find('='); opt.rfind("--", 0) == 0 &&
                                     eq != std::string::npos) {
            value = opt.substr(eq + 1);
            opt = opt.substr(0, eq);
            inline_value = true;
        }
        if (opt == "--self-test") {
            a.selfTest = true;
            continue;
        }
        if (!inline_value) {
            if (i + 1 >= argc)
                usage("missing value for " + opt);
            value = argv[++i];
        }
        if (opt == "--workload")
            a.workload = value;
        else if (opt == "--seed")
            a.seed = parseUnsigned(opt, value);
        else if (opt == "--seconds") {
            a.seconds = static_cast<double>(parseUnsigned(opt, value));
            if (a.seconds < 1)
                usage("--seconds must be at least 1");
        } else if (opt == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (opt == "--json")
            a.json = value;
        else if (opt == "--pins")
            a.pins = value;
        else if (opt == "--workdir")
            a.workdir = value;
        else
            usage("unknown option " + opt);
    }
    if (!a.selfTest && a.workload.empty())
        usage("--workload is required");
    return a;
}

// --- host calibration -----------------------------------------------

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::atomic<std::uint64_t> spinSink{0};

/** A pure-ALU loop: a dependent multiply-add chain. */
void
spin(std::uint64_t iterations)
{
    std::uint64_t x = iterations | 1;
    for (std::uint64_t i = 0; i < iterations; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    spinSink.fetch_add(x, std::memory_order_relaxed);
}

/** Wall time of @p threads concurrent spins of @p iterations each. */
double
spinWall(unsigned threads, std::uint64_t iterations)
{
    Clock::time_point start = Clock::now();
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 1; t < threads; ++t)
            pool.emplace_back(spin, iterations);
        spin(iterations);
    }
    return secondsSince(start);
}

/** Host speed as measured by the calibration spins. */
struct HostSpeed
{
    /**
     * The CPUs this process can actually use right now: the speed of
     * host_cpus concurrent ALU spins relative to one spin.  On a
     * shared host it sits below host_cpus whenever neighbours compete.
     */
    double effectiveCpus = 0.0;
    /** One spin iteration on one CPU, in ns: tracks host slow phases. */
    double spinNs = 0.0;
};

HostSpeed
measureHost(unsigned cpus)
{
    std::uint64_t iterations = 1 << 20;
    while (spinWall(1, iterations) < 0.01 && iterations < (1ULL << 34))
        iterations *= 2;
    std::vector<double> one, all;
    for (int rep = 0; rep < 3; ++rep) {
        one.push_back(spinWall(1, iterations));
        all.push_back(spinWall(cpus, iterations));
    }
    return {cpus * median(one) / median(all),
            median(one) * 1e9 / static_cast<double>(iterations)};
}

/**
 * Calibrate until all CPUs run at full speed (or maxWarmUpS passes):
 * an idle virtual machine can take a few seconds to give this process
 * every vCPU again, and a run that starts measuring before then reads
 * slow.  @return the last calibration.
 */
HostSpeed
warmUpHost(unsigned cpus)
{
    Clock::time_point start = Clock::now();
    HostSpeed speed = measureHost(cpus);
    while (speed.effectiveCpus < 0.75 * cpus &&
           secondsSince(start) < maxWarmUpS)
        speed = measureHost(cpus);
    return speed;
}

// --- checks ---------------------------------------------------------

/** @return the pinned digests of @p workload in @p path, if any. */
std::vector<std::uint64_t>
loadPins(const std::string &path, const std::string &workload)
{
    std::vector<std::uint64_t> pins;
    std::ifstream in(path);
    std::string name, digest;
    std::size_t index = 0;
    while (in >> name >> index >> digest) {
        if (name != workload)
            continue;
        if (index != pins.size())
            fatal("%s: %s pins out of order at %zu", path.c_str(),
                  workload.c_str(), index);
        pins.push_back(std::stoull(digest, nullptr, 16));
    }
    return pins;
}

/** A few seed-chosen points, always including the last. */
std::vector<std::size_t>
spotPoints(std::uint64_t seed, std::size_t n)
{
    std::set<std::size_t> picked{n - 1};
    std::uint64_t x = seed;
    while (picked.size() < std::min(spotChecks, n)) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        picked.insert(static_cast<std::size_t>((x >> 33) % n));
    }
    return {picked.begin(), picked.end()};
}

// --- output ---------------------------------------------------------

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const Metrics &metrics)
{
    std::string s = "{";
    for (const auto &[name, m] : metrics) {
        if (s.size() > 1)
            s += ", ";
        s += "\"" + name + "\": {\"value\": " + number(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
}

std::string
listJson(const std::vector<double> &values)
{
    std::string s = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        s += (i ? ", " : "") + number(values[i]);
    return s + "]";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Spans whose per-repetition totals become per-layer metrics. */
const char *const querySpans[] = {
    "core.stack_sweep", "core.batch", "core.aggregate",
    "trace.content_hash", "trace.materialize", "core.smarts.full_pass",
    "core.smarts.replay"};

int
runWorkload(const Args &args)
{
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, args.workdir);
    if (!workload)
        usage("unknown workload '" + args.workload + "'");
    Workload &w = *workload;

    const unsigned cpus = hostCpus();
    Clock::time_point warm_start = Clock::now();
    const HostSpeed host = warmUpHost(cpus);
    const double warm_up_s = secondsSince(warm_start);
    // The pipelined feeder's producer thread counts against the CPUs.
    unsigned threads = std::min(cpus, maxThreads);
    if (w.usesFeeder() && threads + 1 > cpus)
        threads = std::max(1u, cpus - 1);
    setParallelThreads(threads);
    SimCache::global().setEnabled(true);

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                w.name().c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("host host_cpus %u effective_cpus %.2f spin_ns %.4f "
                "warm_up_s %.2f pool_threads %u\n",
                cpus, host.effectiveCpus, host.spinNs, warm_up_s,
                parallelThreads());
    std::fflush(stdout);

    // Set-up, repeated from nothing: generation and identity hashing.
    std::vector<double> setup_s, gen_rate, hash_rate;
    for (int r = 0; r < setupReps; ++r) {
        w.release();
        SpanLog log("setup");
        Clock::time_point start = Clock::now();
        double refs = w.setup(args.seed, args.trace ? &log : nullptr);
        setup_s.push_back(secondsSince(start));
        if (args.trace) {
            gen_rate.push_back(refs / log.total("trace.generate") / 1e6);
            if (double hash = log.total("trace.content_hash"); hash > 0)
                hash_rate.push_back(refs / hash / 1e6);
        }
    }

    // The query, cold every time, for the measuring budget.
    std::vector<double> query_s, query_cpu_s, traced_s;
    std::map<std::string, std::vector<double>> span_totals;
    std::vector<SpanRecord> last_spans;
    QueryWork work;
    QueryOutput first;
    std::set<std::size_t> failed;
    std::vector<std::string> problems;
    std::uint64_t hits = 0, lookups = 0;
    auto account = [&](const Rep &rep, const char *what) {
        hits += rep.cacheHits;
        lookups += rep.cacheLookups;
        if (warmRun(rep))
            problems.push_back(std::string("warm run: ") + what +
                               " hit the SimCache");
        if (first.digests.empty()) {
            first = rep.out;
            return;
        }
        for (std::size_t i : mismatchedPoints(rep.out.digests, first.digests)) {
            if (failed.insert(i).second)
                problems.push_back(std::string(what) + " point " +
                                   std::to_string(i) +
                                   " differs from the first repetition");
        }
    };
    PoolStats pool_before = poolStats();
    Clock::time_point start = Clock::now();
    while (query_s.size() < minReps || secondsSince(start) < args.seconds) {
        Rep rep = measureQuery(w, true, nullptr, nullptr);
        query_s.push_back(rep.seconds);
        query_cpu_s.push_back(rep.cpuSeconds);
        account(rep, "query");
        if (args.trace) {
            SpanLog log("query");
            QueryWork rep_work;
            Rep traced = measureQuery(w, true, &log, &rep_work);
            traced_s.push_back(traced.seconds);
            account(traced, "traced query");
            for (const char *name : querySpans)
                span_totals[name].push_back(log.total(name));
            work = rep_work;
            last_spans = log.records();
        }
    }
    PoolStats pool_after = poolStats();
    const double peak_rss_mb = peakRssMb(); // before the checks allocate

    // Reference checks: pinned digests (default seed), then a few
    // points against the per-config path (any seed).
    std::size_t pinned = 0;
    if (args.seed == pinnedSeed && !args.pins.empty()) {
        std::vector<std::uint64_t> pins = loadPins(args.pins, w.name());
        if (pins.empty()) {
            std::printf("check pinned: no pins for %s\n", w.name().c_str());
        } else {
            pinned = pins.size();
            for (std::size_t i : mismatchedPoints(first.digests, pins)) {
                failed.insert(i);
                problems.push_back("point " + std::to_string(i) +
                                   " differs from its pinned digest");
            }
        }
    }
    std::vector<std::size_t> spots = spotPoints(args.seed, w.points());
    for (std::size_t i : spots) {
        std::string why;
        if (!w.spotCheck(i, &why)) {
            failed.insert(i);
            problems.push_back("point " + std::to_string(i) +
                               " differs from simulateOne: " + why);
        }
    }

    Metrics metrics;
    const double wrong_frac =
        static_cast<double>(failed.size()) / static_cast<double>(w.points());
    if (!args.trace) {
        metrics["query_s"] = {median(query_s), "s"};
        metrics["setup_s"] = {median(setup_s), "s"};
        metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
    } else {
        auto rate = [](double work_units, double seconds) {
            return seconds > 0 ? work_units / seconds : 0.0;
        };
        auto span = [&](const char *name) { return median(span_totals[name]); };
        metrics["trace.generate.mrefs_per_s"] = {median(gen_rate), "Mref/s"};
        // In-memory workloads hash in set-up; the file-backed one
        // hashes its fresh source inside the query.
        double stream_hash = span("trace.content_hash");
        metrics["trace.content_hash.mrefs_per_s"] = {
            stream_hash > 0 ? rate(work.smartsStreamRefs, stream_hash) / 1e6
                            : median(hash_rate),
            "Mref/s"};
        measureLayers(w.layerInputs(), args.workdir, metrics);

        double stack = span("core.stack_sweep");
        metrics["core.stack_sweep.self_s"] = {stack, "s"};
        metrics["core.stack_sweep.ns_per_ref"] = {
            rate(stack * 1e9, work.stackRefs), "ns"};
        metrics["core.stack_sweep.shard_bits"] = {
            static_cast<double>(work.shardBits), "count"};
        double batch = span("core.batch");
        metrics["core.batch.self_s"] = {batch, "s"};
        metrics["core.batch.ns_per_ref_point"] = {
            rate(batch * 1e9, work.batchRefPoints), "ns"};
        metrics["core.aggregate.self_s"] = {span("core.aggregate"), "s"};
        metrics["core.engine.stack_points"] = {
            static_cast<double>(work.stackPoints), "count"};
        metrics["core.engine.fused_points"] = {
            static_cast<double>(work.fusedPoints), "count"};
        metrics["core.sim_cache.lookups"] = {static_cast<double>(lookups),
                                             "count"};
        metrics["core.sim_cache.hit_ratio"] = {
            lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0,
            "frac"};
        metrics["core.smarts.full_pass_s"] = {span("core.smarts.full_pass"),
                                              "s"};
        metrics["core.smarts.replay_s"] = {span("core.smarts.replay"), "s"};
        metrics["core.smarts.replay_fraction"] = {
            work.smartsReplays
                ? work.smartsReplayRefs /
                      (work.smartsStreamRefs *
                       static_cast<double>(work.smartsReplays))
                : 0.0,
            "frac"};
        metrics["core.smarts.sample_err_rel"] = {first.sampleErrRel, "frac"};
        metrics["core.smarts.cpi_ci_rel"] = {first.cpiCiRel, "frac"};
        std::uint64_t tasks = pool_after.tasks - pool_before.tasks;
        metrics["parallel.worker_share"] = {
            tasks ? static_cast<double>(pool_after.workerTasks -
                                        pool_before.workerTasks) /
                        static_cast<double>(tasks)
                  : 0.0,
            "frac"};
        metrics["parallel.threads"] = {static_cast<double>(parallelThreads()),
                                       "count"};
        metrics["run.cpu_s"] = {cpuSeconds(), "s"};
        metrics["run.tracing_overhead_frac"] = {
            median(traced_s) / median(query_s) - 1.0, "frac"};
        metrics["host.cpus"] = {static_cast<double>(cpus), "count"};
        metrics["host.effective_cpus"] = {host.effectiveCpus, "count"};
        metrics["host.spin_ns"] = {host.spinNs, "ns"};
    }

    const bool correct = problems.empty() && failed.empty() && hits == 0;
    for (const std::string &p : problems)
        std::printf("problem %s\n", p.c_str());
    std::printf("check reps %zu pinned %zu spot %zu failed %zu "
                "wrong_frac %.6g sim_cache_hits %llu of %llu\n",
                query_s.size(), pinned, spots.size(), failed.size(),
                wrong_frac, static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(lookups));
    if (w.usesFeeder())
        std::printf("sampling sample_err_rel %.6g cpi_ci_rel %.6g\n",
                    first.sampleErrRel, first.cpiCiRel);
    for (const auto &[name, m] : metrics)
        std::printf("metric %s %s %s\n", name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());

    if (!args.json.empty()) {
        std::ofstream out(args.json);
        out << "{\"workload\": \"" << w.name() << "\", \"seed\": "
            << args.seed << ", \"seconds\": " << number(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"host_cpus\": " << cpus
            << ", \"effective_cpus\": " << number(host.effectiveCpus)
            << ", \"spin_ns\": " << number(host.spinNs)
            << ", \"warm_up_s\": " << number(warm_up_s)
            << ", \"pool_threads\": " << parallelThreads()
            << ", \"setup_s\": " << listJson(setup_s)
            << ", \"query_s\": " << listJson(query_s)
            << ", \"query_cpu_s\": " << listJson(query_cpu_s)
            << ", \"traced_query_s\": " << listJson(traced_s)
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << w.points()
            << ", \"failed\": " << failed.size()
            << ", \"wrong_frac\": " << number(wrong_frac)
            << ", \"pinned_checked\": " << pinned
            << ", \"spot_checked\": " << spots.size()
            << ", \"sim_cache_hits\": " << hits
            << ", \"sim_cache_lookups\": " << lookups
            << ", \"sample_err_rel\": " << number(first.sampleErrRel)
            << ", \"cpi_ci_rel\": " << number(first.cpiCiRel)
            << ", \"metrics\": " << metricsJson(metrics) << ", \"digests\": [";
        for (std::size_t i = 0; i < first.digests.size(); ++i) {
            char hex[20];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(first.digests[i]));
            out << (i ? ", " : "") << '"' << hex << '"';
        }
        out << "], \"spans\": [";
        for (std::size_t i = 0; i < last_spans.size(); ++i) {
            const SpanRecord &s = last_spans[i];
            out << (i ? ", " : "") << "{\"name\": \"" << s.name
                << "\", \"parent\": \"" << s.parent
                << "\", \"start_s\": " << number(s.startS)
                << ", \"dur_s\": " << number(s.durS) << "}";
        }
        out << "]}\n";
        if (!out)
            fatal("perfbench: cannot write %s", args.json.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", w.points(), failed.size(),
                metricsJson(metrics).c_str());
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args = perfbench::parseArgs(argc, argv);
    cachetime::setQuiet(true);
    if (args.selfTest)
        return perfbench::selfTest(args.workdir);
    return perfbench::runWorkload(args);
}
