/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --daemon PATH [--run-dir DIR] [--commit SHA]
 *
 * Runs one workload's job set through every path a user takes --
 * serial single runs, a local checkpointed sweep, and sweeps served
 * by a fresh nosq_sweepd, cold and warm -- repeating until S seconds
 * have passed, checks every output, and prints one JSON result line
 * last on stdout. Untraced runs (--trace 0) give the end-to-end
 * metrics; a traced run (--trace 1) records spans around every call
 * into a simulator layer, runs the layer probes, writes a Chrome
 * trace, and gives the per-layer metrics. `perfbench --list-metrics`
 * prints every metric with the end-to-end metric and workload it
 * should move.
 */

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.hh"
#include "common/fnv.hh"
#include "probes.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "spans.hh"
#include "workload/multicore.hh"

namespace perfbench {

using nosq::LsuMode;
using nosq::RunResult;
using nosq::SweepJob;

// --- workloads ------------------------------------------------------------

namespace {

const nosq::BenchmarkProfile *
profile(const char *name)
{
    const nosq::BenchmarkProfile *p = nosq::findProfile(name);
    if (p == nullptr)
        throw std::invalid_argument(std::string("no profile ") + name);
    return p;
}

/** The stall-heavy hierarchy of mem-coherence's first part. */
void
stallHeavy(nosq::UarchParams &p)
{
    p.memsys.l1d.sizeBytes = 4 * 1024;
    p.memsys.l2.sizeBytes = 32 * 1024;
    p.memsys.l2.hitLatency = 30;
    p.memsys.memoryLatency = 2500;
    p.memsys.mshrs = 4;
    p.memsys.prefetchDegree = 2;
    p.memsys.busContention = true;
}

} // anonymous namespace

Workload
buildWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    nosq::SweepSpec spec;
    spec.seed = seed;
    if (name == "core-fig2") {
        // The nosq-bench-core-v1 reference length and configs.
        w.insts = 150000;
        spec.benchmarks = {profile("gcc"), profile("g721.e"),
                           profile("mesa.o")};
        spec.configs = nosq::paperFigureConfigs(/*big_window=*/false);
    } else if (name == "mem-coherence") {
        w.insts = 40000;
        spec.benchmarks = {profile("gcc"), profile("mcf")};
        const std::vector<nosq::SweepConfig> fig2 =
            nosq::paperFigureConfigs(false);
        for (const std::size_t i : {0, 1, 3}) {
            nosq::SweepConfig c = fig2[i];
            c.name = "stall/" + c.name;
            c.memsys = "l1d-4K-l2-32K-mem2500-mshr4-pref";
            c.tweak = stallHeavy;
            spec.configs.push_back(std::move(c));
        }
    } else if (name == "sweep-serve") {
        // The 120-job `selected` sweep at a short per-job length.
        w.insts = 20000;
        spec.benchmarks = nosq::selectedProfiles();
        spec.configs = nosq::crossConfigs(
            {LsuMode::SqPerfect, LsuMode::SqStoreSets, LsuMode::Nosq,
             LsuMode::NosqPerfect},
            {128, 256});
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.warmup = w.insts / 3;
    spec.insts = w.insts;
    spec.warmup = w.warmup;

    if (name == "mem-coherence") {
        // The multicore jobs are the longest; listing them first lets
        // the worker pools fill in around them.
        const unsigned depth = nosq::default_queue_depth;
        for (const auto &[kernel, cores] :
             {std::pair<const char *, unsigned>{"mpsc-queue", 4},
              {"spsc-ring", 2}}) {
            for (SweepJob &job : nosq::buildMulticoreJobs(
                     {kernel}, nosq::multicoreConfigs({cores}, {depth}),
                     w.insts, w.warmup, seed))
                w.jobs.push_back(std::move(job));
        }
    }
    for (SweepJob &job : nosq::buildJobs(spec))
        w.jobs.push_back(std::move(job));
    return w;
}

namespace {

// --- metric catalog ---------------------------------------------------------

/** One reported metric and what it should move (see the file
 * comment; BENCHMARK.json lists the same names and units). */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    /** Per-layer: the end-to-end metric(s) and workload(s) it should
     * move. End-to-end: the workload(s) it is primarily for. */
    const char *moves;
};

// mem-coherence* is runnable by name but not listed in BENCHMARK.json
// (see perfbench/README.md); the metrics it is the primary workload
// for are measured on core-fig2 there.
// clang-format off
const MetricDef end_to_end[] = {
    {"sim_mips", "MIPS", "higher", "core-fig2, mem-coherence*"},
    {"ipc_err_pct", "%", "lower", "core-fig2"},
    {"sweep_local_s", "s", "lower", "sweep-serve"},
    {"sweep_cold_s", "s", "lower", "sweep-serve"},
    {"sweep_warm_s", "s", "lower", "sweep-serve"},
    {"job_latency_p50_ms", "ms", "lower", "sweep-serve"},
    {"job_latency_p90_ms", "ms", "lower", "sweep-serve"},
    {"setup_s", "s", "lower", "all"},
    {"peak_rss_mb", "MB", "lower", "all"},
};

const MetricDef per_layer[] = {
    {"workload.synth_ms", "ms", "lower",
     "setup_s on core-fig2, mem-coherence*; sweep_local_s, sweep_cold_s on sweep-serve"},
    {"workload.trace_ns_per_inst", "ns", "lower", "sim_mips on core-fig2"},
    {"workload.cache_hit_frac", "ratio", "higher", "sweep_local_s on sweep-serve"},
    {"ooo.ns_per_inst", "ns", "lower", "sim_mips on core-fig2"},
    {"ooo.ns_per_tick", "ns", "lower", "sim_mips on core-fig2"},
    {"ooo.self_ns_per_inst", "ns", "lower", "sim_mips on core-fig2"},
    {"ooo.ipc", "inst/cycle", "higher", "sim_mips on core-fig2 (simulated; must not move for a host-speed change)"},
    {"ooo.ticks", "count", "lower", "sim_mips on core-fig2 (deterministic work count)"},
    {"nosq.bypass_frac", "ratio", "higher", "sim_mips on core-fig2"},
    {"nosq.reexec_rate", "ratio", "lower", "sim_mips on core-fig2"},
    {"nosq.flushes_per_kinst", "1/kinst", "lower", "sim_mips on core-fig2"},
    {"memsys.ns_per_access", "ns", "lower", "sim_mips on mem-coherence*, core-fig2 (replay approximation)"},
    {"memsys.accesses_per_inst", "1/inst", "lower", "sim_mips on mem-coherence*, core-fig2"},
    {"memsys.l1d_mpki", "1/kinst", "lower", "sim_mips on mem-coherence*, core-fig2"},
    {"memsys.avg_miss_latency_cyc", "cycles", "lower", "sim_mips on mem-coherence*, core-fig2"},
    {"memsys.mshr_stalls_per_kinst", "1/kinst", "lower", "sim_mips on mem-coherence*, core-fig2"},
    {"memsys.pref_accuracy", "ratio", "higher", "sim_mips on mem-coherence*, core-fig2"},
    {"ooo.skipped_cycle_frac", "ratio", "higher", "sim_mips on mem-coherence*, core-fig2"},
    {"system.ns_per_inst", "ns", "lower", "sim_mips on mem-coherence*, core-fig2"},
    {"system.lockstep_ratio", "ratio", "lower", "sim_mips on mem-coherence*, core-fig2"},
    {"coherence.inval_per_kinst", "1/kinst", "lower", "sim_mips on mem-coherence*, core-fig2"},
    {"coherence.c2c_per_kinst", "1/kinst", "lower", "sim_mips on mem-coherence*, core-fig2"},
    {"sweep.jobs_per_s", "1/s", "higher", "sweep_local_s on sweep-serve"},
    {"sweep.worker_busy_frac", "ratio", "higher", "sweep_local_s on sweep-serve"},
    {"sweep.longest_job_ms", "ms", "lower", "sweep_local_s on sweep-serve"},
    {"journal.record_us", "us", "lower", "sweep_local_s on sweep-serve"},
    {"journal.bytes_per_job", "bytes", "lower", "sweep_local_s on sweep-serve"},
    {"report.emit_ms", "ms", "lower", "sweep_local_s, sweep_warm_s on sweep-serve"},
    {"serve.submit_ack_ms", "ms", "lower", "job_latency_p50_ms, job_latency_p90_ms, sweep_cold_s on sweep-serve"},
    {"serve.service_ms_p50", "ms", "lower", "job_latency_p50_ms, sweep_cold_s on sweep-serve"},
    {"serve.service_ms_p90", "ms", "lower", "job_latency_p90_ms, sweep_cold_s on sweep-serve"},
    {"serve.dedup_shared", "count", "higher", "sweep_cold_s on sweep-serve"},
    {"serve.store_put_us", "us", "lower", "sweep_cold_s on sweep-serve"},
    {"serve.store_hit_frac", "ratio", "higher", "sweep_warm_s on sweep-serve"},
    {"serve.store_get_us", "us", "lower", "sweep_warm_s on sweep-serve"},
    {"serve.wire_us_per_job", "us", "lower", "sweep_warm_s on sweep-serve"},
    {"serve.requeued", "count", "lower", "failed runs on all workloads"},
    {"serve.worker_deaths", "count", "lower", "failed runs on all workloads"},
    {"trace.sim_mips", "MIPS", "higher", "none: sim_mips of the traced run"},
    {"trace.untraced_sim_mips", "MIPS", "higher", "none: sim_mips of the same run untraced"},
    {"trace.mips_ratio", "ratio", "higher", "none: tracing overhead, traced / untraced sim_mips"},
};
// clang-format on

// --- statistics ---------------------------------------------------------------

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * The highest percentile (in whole percent, at most 90) that leaves
 * at least ten samples above it. The metric is named for p90: at the
 * benchmark's run length every workload pools well over 100 samples.
 */
double
tailPercentile(std::size_t samples)
{
    for (int p = 90; p > 50; --p)
        if (static_cast<double>(samples) * (100 - p) / 100.0 >= 10.0)
            return p / 100.0;
    return 0.5;
}

// --- options ----------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string daemon;
    std::string runDir = ".";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(int code)
{
    std::fputs(
        "usage: perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --daemon PATH [--run-dir DIR] [--commit SHA]\n"
        "       perfbench --list-metrics\n"
        "workloads: core-fig2 mem-coherence sweep-serve\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

void
listMetrics()
{
    for (const MetricDef &m : end_to_end)
        std::printf("end_to_end  %-30s %-10s %-6s primary on: %s\n", m.name,
                    m.unit, m.better, m.moves);
    for (const MetricDef &m : per_layer)
        std::printf("per_layer   %-30s %-10s %-6s moves: %s\n", m.name,
                    m.unit, m.better, m.moves);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            o.trace = value() == "1";
        else if (arg == "--daemon")
            o.daemon = value();
        else if (arg == "--run-dir")
            o.runDir = value();
        else if (arg == "--commit")
            o.commit = value();
        else if (arg == "--list-metrics") {
            listMetrics();
            std::exit(0);
        } else if (arg == "--help" || arg == "-h")
            usage(0);
        else
            usage(2);
    }
    if (o.workload.empty() || o.daemon.empty() || o.seconds <= 0)
        usage(2);
    return o;
}

// --- one run ----------------------------------------------------------------

bool
isNosq(const SweepJob &job)
{
    return job.params.mode == LsuMode::Nosq ||
        job.params.mode == LsuMode::NosqPerfect;
}

/** Mean absolute % error of sq-perfect IPC against the paper's. */
double
ipcErrorPct(const Workload &w, const std::vector<RunResult> &results)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const SweepJob &job = w.jobs[i];
        if (job.cores > 1 || job.profile == nullptr ||
            job.params.mode != LsuMode::SqPerfect ||
            job.profile->idealIpc <= 0)
            continue;
        sum += std::fabs(results[i].sim.ipc() - job.profile->idealIpc) /
            job.profile->idealIpc;
        ++n;
    }
    return n ? 100.0 * sum / static_cast<double>(n) : 0.0;
}

/** Add every counter of @p from (and its skipped cycles) into
 * @p into. */
void
addCounters(nosq::SimResult &into, const nosq::SimResult &from)
{
    std::vector<std::uint64_t> values;
    nosq::forEachSimCounter(from, [&](const char *, const auto &v) {
        values.push_back(v);
    });
    std::size_t i = 0;
    nosq::forEachSimCounter(into, [&](const char *, auto &v) {
        v += values[i++];
    });
    into.skippedCycles += from.skippedCycles;
}

std::string
digestOf(const std::vector<RunResult> &results)
{
    nosq::Fnv fnv;
    for (const RunResult &r : results)
        fnv.text(nosq::runResultJsonLine(r));
    return fnv.hex();
}

/** Restart this process's peak-RSS mark (Linux clear_refs). */
void
resetPeakRss()
{
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** This process's peak RSS since the last resetPeakRss(), in MB. */
double
peakRssSelfMb()
{
    double kb = 0.0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof(line), f))
            if (std::sscanf(line, "VmHWM: %lf", &kb) == 1)
                break;
        std::fclose(f);
    }
    if (kb <= 0.0) {
        struct rusage self;
        ::getrusage(RUSAGE_SELF, &self);
        kb = static_cast<double>(self.ru_maxrss);
    }
    return kb / 1024.0;
}

/** Everything one run measures, before reduction to metrics. */
struct Samples
{
    std::vector<double> setupS, synthMs, localS, coldS, warmS,
        latencyMs, rssMb, daemonRssMb;
    /** Per job, its single-run seconds in every repetition. */
    std::vector<std::vector<double>> jobS, untracedJobS;
    // Traced runs only.
    std::vector<double> jobsPerS, busyFrac, longestMs,
        journalBytes, submitAckMs, serviceP50, serviceP90, dedup,
        storeHit;
    double requeued = 0, deaths = 0;
    std::uint64_t cacheHits = 0, cacheMisses = 0;
    double oooNs = 0, oooInsts = 0, oooTicks = 0;
    Rate trace, journal, wire, storePut, storeGet, system, lone;
    MemsysProbe memsys;
    nosq::SimResult coherence;
};

void
addJobTimes(std::vector<std::vector<double>> &into, const SinglePass &pass)
{
    into.resize(pass.jobS.size());
    for (std::size_t j = 0; j < pass.jobS.size(); ++j)
        into[j].push_back(pass.jobS[j]);
}

class Runner
{
  public:
    Runner(Options o, Workload w)
        : opt(std::move(o)), work(std::move(w)),
          workers(std::max(1u, std::thread::hardware_concurrency()))
    {}

    int run();

  private:
    void repetition(unsigned rep);
    void scrapeDaemon(const Daemon &daemon);
    void tracedProbes(unsigned rep, const std::vector<RunResult> &single,
                      const LocalSweep &local);
    void printResult();
    std::string hostFacts() const;
    double simMips(const std::vector<std::vector<double>> &job_s) const;

    const Options opt;
    const Workload work;
    const unsigned workers;
    Ledger ledger;
    Samples s;
    std::vector<std::string> refCounters; ///< first single pass
    std::vector<RunResult> refResults;
    std::string refReport;               ///< first local report
};

/** Local sweeps and cold served sweeps per repetition. */
constexpr unsigned sweeps_per_rep = 4;
/** Warm served passes per cold phase. */
constexpr unsigned warm_passes = 8;

/** Compare every result's counters with the reference ones. */
bool
sameCounters(const std::vector<RunResult> &got,
             const std::vector<std::string> &want)
{
    if (got.size() != want.size())
        return false;
    for (std::size_t i = 0; i < got.size(); ++i)
        if (nosq::runResultJsonLine(got[i]) != want[i])
            return false;
    return true;
}

void
Runner::repetition(unsigned rep)
{
    SpanRecorder &rec = spans();
    rec.setRep(rep);
    resetPeakRss();
    const std::string tag = " (rep " + std::to_string(rep) + ")";

    // Set-up, part one: cold synthesis of every program. (Part two is
    // the spawn of the first cold phase's daemon.)
    const double synth_s = synthesizeAll(work);
    s.synthMs.push_back(synth_s * 1e3);

    // Serial single runs. A traced run times an untraced pass too, so
    // the per-layer numbers carry their own tracing overhead.
    SinglePass plain;
    if (opt.trace) {
        rec.setEnabled(false);
        plain = singleRunPass(work, ledger);
        rec.setEnabled(true);
        addJobTimes(s.untracedJobS, plain);
    }
    const SinglePass single = singleRunPass(work, ledger);
    addJobTimes(s.jobS, single);
    if (refCounters.empty()) {
        refResults = single.results;
        for (const RunResult &r : single.results)
            refCounters.push_back(nosq::runResultJsonLine(r));
    } else {
        ledger.check(sameCounters(single.results, refCounters),
                     "single-run counters differ from rep 0" + tag);
    }
    if (opt.trace)
        ledger.check(sameCounters(plain.results, refCounters),
                     "untraced counters differ from traced" + tag);

    // Local and served sweeps, interleaved so a burst of host noise
    // lands on samples of both. A sweep's wall time also depends on
    // how its jobs happen to pack onto the workers, so each repetition
    // takes several samples of each.
    LocalSweep local;
    for (unsigned k = 0; k < sweeps_per_rep; ++k) {
        // Local checkpointed sweep.
        local = localSweep(work, workers, "local.jsonl", ledger);
        s.localS.push_back(local.wallS);
        ledger.attempted += work.jobs.size();
        if (!ledger.check(sameCounters(local.results, refCounters),
                          "local sweep counters differ from single "
                          "runs" + tag))
            return;
        if (refReport.empty())
            refReport = local.report;
        ledger.check(local.report == refReport,
                     "local report differs from rep 0" + tag);

        // Served cold: two clients on a fresh daemon with an empty
        // store, so dedup runs.
        Daemon daemon;
        const std::uint64_t t0 = nowNs();
        if (!ledger.check(daemon.start(opt.daemon, "d.sock", "store.jsonl",
                                       workers),
                          "daemon start" + tag))
            return;
        if (k == 0)
            s.setupS.push_back(synth_s + secondsBetween(t0, nowNs()));
        const ServedPass cold = servedPass(work, daemon, 2, ledger);
        s.coldS.push_back(cold.wallS);
        s.latencyMs.insert(s.latencyMs.end(), cold.latencyMs.begin(),
                           cold.latencyMs.end());
        for (const std::string &r : cold.reports)
            ledger.check(r == local.report,
                         "served cold report differs from local" + tag);

        // Served warm: single-client passes against the filled store.
        for (unsigned pass = 0; pass < warm_passes; ++pass) {
            const ServedPass warm = servedPass(work, daemon, 1, ledger);
            s.warmS.push_back(warm.wallS);
            for (const std::string &r : warm.reports)
                ledger.check(r == local.report,
                             "served warm report differs from local" +
                                 tag);
            ledger.check(warm.cached == work.jobs.size(),
                         "warm pass not served from the store" + tag);
        }
        if (opt.trace)
            scrapeDaemon(daemon);
        ledger.check(daemon.drain(), "daemon SIGTERM drain" + tag);
        s.daemonRssMb.push_back(daemon.peakRssMb());
    }
    if (opt.trace)
        tracedProbes(rep, single.results, local);

    s.rssMb.push_back(peakRssSelfMb());
    std::fprintf(stderr,
                 "perfbench: rep %u setup %.4fs single %.3fs (%.3f MIPS) "
                 "local %.3fs cold %.3fs warm %.4fs\n",
                 rep, s.setupS.back(), single.wallS,
                 ratio(single.committed, single.wallS) * 1e-6,
                 local.wallS, s.coldS.back(), s.warmS.back());
}

/** The daemon's own view of the cold and warm phases it served. */
void
Runner::scrapeDaemon(const Daemon &daemon)
{
    const auto scrape = scrapeMetrics(daemon.socket(), ledger);
    auto at = [&](const std::string &k) {
        const auto it = scrape.find(k);
        return it == scrape.end() ? 0.0 : it->second;
    };
    const std::string sub = "nosq_sweepd_submit_latency_ms";
    const std::string svc = "nosq_sweepd_job_service_time_ms";
    s.submitAckMs.push_back(ratio(at(sub + "_sum"), at(sub + "_count")));
    s.serviceP50.push_back(histogramQuantile(scrape, svc, 0.5));
    s.serviceP90.push_back(histogramQuantile(scrape, svc, 0.9));
    s.dedup.push_back(at("nosq_sweepd_dedup_shared_total"));
    s.storeHit.push_back(at("nosq_sweepd_store_hit_ratio"));
    s.requeued += at("nosq_sweepd_jobs_requeued_total");
    s.deaths += at("nosq_sweepd_worker_deaths_total");
}

void
Runner::tracedProbes(unsigned rep, const std::vector<RunResult> &single,
                     const LocalSweep &local)
{
    SpanRecorder &rec = spans();
    const int r = static_cast<int>(rep);

    // ooo: OooCore::run spans of the traced single pass.
    s.oooNs += rec.totalMs("ooo.run", r) * 1e6;
    for (std::size_t i = 0; i < work.jobs.size(); ++i) {
        const SweepJob &job = work.jobs[i];
        if (job.cores > 1)
            continue;
        const nosq::SimResult &sim = single[i].sim;
        const double committed = static_cast<double>(expectedCommitted(job));
        s.oooInsts += committed;
        // Ticks counted over the measured interval, scaled to the
        // warm-up + measured instructions the span covers.
        s.oooTicks += static_cast<double>(sim.cycles - sim.skippedCycles) *
            ratio(committed, static_cast<double>(sim.insts));
    }
    s.trace.add(traceProbe(work));
    const MemsysProbe m = memsysProbe(work, single);
    s.memsys.access.add(m.access);
    s.memsys.insts += m.insts;
    const SystemProbe sys =
        systemProbe(work, single, rec.totalMs("system.run", r));
    s.system.add(sys.system);
    s.lone.add(sys.lone);
    s.coherence.insts += sys.sim.insts;
    s.coherence.cohInvalidations += sys.sim.cohInvalidations;
    s.coherence.cohC2cTransfers += sys.sim.cohC2cTransfers;

    // sweep: each local sweep's runSweepJob spans (on the worker
    // threads) against the sweep's own span.
    const unsigned pool = static_cast<unsigned>(
        std::min<std::size_t>(workers, work.jobs.size()));
    const std::vector<Span> &all = rec.spans();
    std::map<int, std::pair<double, double>> jobs; // busy, longest
    for (const Span &sp : all) {
        if (sp.name == "sweep.job" && sp.rep == rep) {
            auto &[busy, longest] = jobs[sp.parent];
            busy += sp.ms();
            longest = std::max(longest, sp.ms());
        }
    }
    for (const auto &[parent, job] : jobs) {
        const double wall_ms = all[static_cast<std::size_t>(parent)].ms();
        s.jobsPerS.push_back(ratio(work.jobs.size(), wall_ms * 1e-3));
        s.busyFrac.push_back(ratio(job.first, pool * wall_ms));
        s.longestMs.push_back(job.second);
    }
    s.journalBytes.push_back(ratio(local.journalBytes, work.jobs.size()));
    s.cacheHits += local.cacheHits;
    s.cacheMisses += local.cacheMisses;
    s.journal.add(journalProbe(work, local.results, "probe.jsonl"));

    // serve: the store and codec probes.
    const StoreProbe store =
        storeProbe(work, local.results, "probe_store.jsonl", ledger);
    s.storePut.add(store.put);
    s.storeGet.add(store.get);
    s.wire.add(wireProbe(work, local.results, ledger));
}

/**
 * Committed instructions per host second over the single-run pass,
 * each job timed at its fastest repetition. On a shared host,
 * interference from other tenants only ever adds time to this
 * single-threaded, cache-bound work, and it comes in bursts of
 * seconds that a median over one run's repetitions does not escape;
 * the fastest repetition is the steadiest estimate of what the code
 * itself costs.
 */
double
Runner::simMips(const std::vector<std::vector<double>> &job_s) const
{
    double insts = 0.0, seconds = 0.0;
    for (std::size_t j = 0; j < job_s.size(); ++j) {
        insts += static_cast<double>(expectedCommitted(work.jobs[j]));
        if (!job_s[j].empty())
            seconds +=
                *std::min_element(job_s[j].begin(), job_s[j].end());
    }
    return ratio(insts, seconds) * 1e-6;
}

std::string
Runner::hostFacts() const
{
    const std::string build = PERFBENCH_BUILD_TYPE;
    return std::string("{\"nproc\": ") +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"compiler\": \"" + nosq::jsonEscape(PERFBENCH_COMPILER) +
        "\", \"build_type\": \"" + nosq::jsonEscape(build) +
        "\", \"non_release\": " + (build == "Release" ? "false" : "true") +
        ", \"commit\": \"" + nosq::jsonEscape(opt.commit) +
        "\", \"daemon_workers\": " + std::to_string(workers) +
        ", \"sweep_workers\": " + std::to_string(workers) +
        ", \"workload\": \"" + work.name + "\", \"seed\": " +
        std::to_string(opt.seed) + ", \"jobs\": " +
        std::to_string(work.jobs.size()) + ", \"insts\": " +
        std::to_string(work.insts) + "}";
}

void
Runner::printResult()
{
    std::vector<std::pair<const MetricDef *, double>> out;
    auto put = [&](const char *name, double v) {
        const MetricDef *table = opt.trace ? per_layer : end_to_end;
        const std::size_t n = opt.trace ? std::size(per_layer)
                                        : std::size(end_to_end);
        for (std::size_t i = 0; i < n; ++i)
            if (std::strcmp(table[i].name, name) == 0) {
                out.emplace_back(&table[i], std::isfinite(v) ? v : 0.0);
                return;
            }
        std::fprintf(stderr, "perfbench: unknown metric %s\n", name);
        std::abort();
    };

    const double tail = tailPercentile(s.latencyMs.size());
    if (!opt.trace) {
        put("sim_mips", simMips(s.jobS));
        put("ipc_err_pct", ipcErrorPct(work, refResults));
        put("sweep_local_s", median(s.localS));
        put("sweep_cold_s", median(s.coldS));
        put("sweep_warm_s", median(s.warmS));
        put("job_latency_p50_ms", quantile(s.latencyMs, 0.5));
        put("job_latency_p90_ms", quantile(s.latencyMs, tail));
        put("setup_s", median(s.setupS));
        // Medians of per-repetition and per-daemon peaks, so one
        // unlucky overlap of large jobs does not set the figure.
        put("peak_rss_mb",
            std::max(median(s.rssMb), median(s.daemonRssMb)));
    } else {
        // Simulated counters, summed over the reference pass.
        nosq::SimResult sc, nq, all;
        for (std::size_t i = 0; i < work.jobs.size(); ++i) {
            const nosq::SimResult &r = refResults[i].sim;
            addCounters(all, r);
            if (work.jobs[i].cores <= 1)
                addCounters(sc, r);
            if (isNosq(work.jobs[i]))
                addCounters(nq, r);
        }
        const double sc_insts = static_cast<double>(sc.insts);
        const double nq_loads = static_cast<double>(nq.loads);

        const double trace_ns = s.trace.perItem();
        const double ooo_ns = ratio(s.oooNs, s.oooInsts);
        const double mem_share =
            s.memsys.access.ns / std::max(1.0, double(s.memsys.insts));
        put("workload.synth_ms", median(s.synthMs));
        put("workload.trace_ns_per_inst", trace_ns);
        put("workload.cache_hit_frac",
            ratio(s.cacheHits, s.cacheHits + s.cacheMisses));
        put("ooo.ns_per_inst", ooo_ns);
        put("ooo.ns_per_tick", ratio(s.oooNs, s.oooTicks));
        put("ooo.self_ns_per_inst", ooo_ns - trace_ns - mem_share);
        put("ooo.ipc", sc.ipc());
        put("ooo.ticks", static_cast<double>(sc.cycles - sc.skippedCycles));
        put("nosq.bypass_frac", ratio(nq.bypassedLoads, nq_loads));
        put("nosq.reexec_rate", ratio(nq.reexecLoads, nq_loads));
        put("nosq.flushes_per_kinst",
            1e3 * ratio(nq.loadFlushes, static_cast<double>(nq.insts)));
        put("memsys.ns_per_access", s.memsys.access.perItem());
        put("memsys.accesses_per_inst",
            ratio(sc.l1dHits + sc.l1dMisses + sc.l1iHits + sc.l1iMisses,
                  sc_insts));
        put("memsys.l1d_mpki", sc.l1dMpki());
        put("memsys.avg_miss_latency_cyc", sc.avgMissLatency());
        put("memsys.mshr_stalls_per_kinst",
            1e3 * ratio(sc.mshrStalls, sc_insts));
        put("memsys.pref_accuracy", sc.prefetchAccuracy());
        put("ooo.skipped_cycle_frac",
            ratio(all.skippedCycles, static_cast<double>(all.cycles)));
        const double coh_insts = static_cast<double>(s.coherence.insts);
        put("system.ns_per_inst", s.system.perItem());
        put("system.lockstep_ratio",
            ratio(s.system.perItem(), s.lone.perItem()));
        put("coherence.inval_per_kinst",
            1e3 * ratio(s.coherence.cohInvalidations, coh_insts));
        put("coherence.c2c_per_kinst",
            1e3 * ratio(s.coherence.cohC2cTransfers, coh_insts));
        put("sweep.jobs_per_s", median(s.jobsPerS));
        put("sweep.worker_busy_frac", median(s.busyFrac));
        put("sweep.longest_job_ms", median(s.longestMs));
        put("journal.record_us", s.journal.perItem() * 1e-3);
        put("journal.bytes_per_job", median(s.journalBytes));
        put("report.emit_ms",
            median(spans().durationsMs("report.emit")) +
                median(spans().durationsMs("report.validate")));
        put("serve.submit_ack_ms", median(s.submitAckMs));
        put("serve.service_ms_p50", median(s.serviceP50));
        put("serve.service_ms_p90", median(s.serviceP90));
        put("serve.dedup_shared", median(s.dedup));
        put("serve.store_put_us", s.storePut.perItem() * 1e-3);
        put("serve.store_hit_frac", median(s.storeHit));
        put("serve.store_get_us", s.storeGet.perItem() * 1e-3);
        put("serve.wire_us_per_job", s.wire.perItem() * 1e-3);
        put("serve.requeued", s.requeued);
        put("serve.worker_deaths", s.deaths);
        const double traced = simMips(s.jobS);
        const double untraced = simMips(s.untracedJobS);
        put("trace.sim_mips", traced);
        put("trace.untraced_sim_mips", untraced);
        put("trace.mips_ratio", ratio(traced, untraced));
    }

    std::printf("perfbench: host %s\n", hostFacts().c_str());
    std::printf("perfbench: digest %s seed=%llu %s\n", work.name.c_str(),
                static_cast<unsigned long long>(opt.seed),
                digestOf(refResults).c_str());
    std::printf("perfbench: samples reps=%zu latency=%zu "
                "latency_tail_pct=%.0f warm_passes=%zu failed_frac=%s\n",
                s.setupS.size(), s.latencyMs.size(), tail * 100,
                s.warmS.size(),
                nosq::jsonNumber(ratio(ledger.failed,
                                       std::max<std::uint64_t>(
                                           1, ledger.attempted)))
                    .c_str());

    std::string line = "{\"correct\": ";
    line += ledger.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(ledger.attempted);
    line += ", \"failed\": " + std::to_string(ledger.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        line += (i ? ", \"" : "\"") + std::string(out[i].first->name) +
            "\": {\"value\": " + nosq::jsonNumber(out[i].second) +
            ", \"unit\": \"" + out[i].first->unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

int
Runner::run()
{
    spans().setEnabled(opt.trace);
    const std::uint64_t start = nowNs();
    // At least two repetitions, so every rep-to-rep identity check
    // runs even on a short run.
    for (unsigned rep = 0;
         rep < 2 || secondsBetween(start, nowNs()) < opt.seconds; ++rep)
        repetition(rep);

    if (opt.trace) {
        spans().setEnabled(false);
        const auto self = spans().selfTimes();
        std::string meta = "{\"host\": " + hostFacts() +
            ", \"self_ms\": {";
        bool first = true;
        std::fprintf(stderr, "perfbench: self time by span (ms)\n");
        for (const auto &[name, ms] : self) {
            std::fprintf(stderr, "  %-26s %12.3f\n", name.c_str(), ms);
            meta += (first ? "\"" : ", \"") + name +
                "\": " + nosq::jsonNumber(ms);
            first = false;
        }
        meta += "}}";
        const std::string path = "trace-" + work.name + "-s" +
            std::to_string(opt.seed) + ".json";
        const std::string run_id =
            work.name + "/seed" + std::to_string(opt.seed);
        if (ledger.check(spans().writeChromeTrace(path, run_id, meta),
                         "write " + path))
            std::printf("perfbench: trace %s/%s (%zu spans)\n",
                        opt.runDir.c_str(), path.c_str(),
                        spans().spans().size());
    }
    printResult();
    return 0;
}

} // anonymous namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // A daemon that dies mid-write must surface as a failed call,
    // not kill the benchmark.
    std::signal(SIGPIPE, SIG_IGN);
    const Options opt = parseOptions(argc, argv);
    if (::chdir(opt.runDir.c_str()) != 0) {
        std::perror(("perfbench: chdir " + opt.runDir).c_str());
        return 2;
    }
    try {
        Runner runner(opt, buildWorkload(opt.workload, opt.seed));
        return runner.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
