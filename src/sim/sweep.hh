/**
 * @file
 * Parallel experiment-sweep engine.
 *
 * The paper's results are all multi-configuration sweeps (Figures
 * 2-5, Table 5): many (benchmark, machine configuration) pairs whose
 * statistics are then reduced per suite. Each pair is an independent
 * simulation -- the workload synthesizer and the timing core carry
 * all of their state (including RNG state) in per-run objects -- so
 * a sweep parallelizes trivially across a worker pool.
 *
 * Determinism contract: a job's result depends only on the job tuple
 * (profile, params, seed, insts, warmup), never on which worker ran
 * it or in what order jobs were claimed. Every job carries its own
 * seed, fixed at job-construction time, and each worker runs jobs
 * with freshly constructed Program/OooCore instances. runSweep()
 * therefore returns bit-identical results for any worker count,
 * always ordered by job index.
 */

#ifndef NOSQ_SIM_SWEEP_HH
#define NOSQ_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ooo/uarch_params.hh"
#include "sim/experiment.hh"
#include "sim/sampling.hh"
#include "workload/profiles.hh"

namespace nosq {

namespace obs {
class PipeTracer;
} // namespace obs

struct SweepJob;

/**
 * Optional per-job override of the default synthesize+OooCore
 * pipeline. Trace-driven studies (the predictor and SSBF ablations)
 * use this to run their own analysis through the engine's worker
 * pool; the returned SimResult carries whatever counters the study
 * reports. The same determinism contract applies: the result must
 * depend only on the job tuple.
 */
using SweepRunner = std::function<SimResult(const SweepJob &)>;

/** One unit of sweep work: a benchmark under one configuration. */
struct SweepJob
{
    const BenchmarkProfile *profile = nullptr;
    UarchParams params;
    /** Stable configuration label carried into the RunResult. */
    std::string config;
    /** Memory-hierarchy point label (memsys sweeps), carried into
     * the RunResult's "memsys" report field; usually empty. */
    std::string memsysLabel;
    /**
     * Benchmark label and suite for custom-runner jobs whose
     * workload is not a BenchmarkProfile (profile == nullptr);
     * ignored when @c profile is set.
     */
    std::string benchmark;
    Suite suite = Suite::Media;
    std::uint64_t seed = 1;
    std::uint64_t insts = 0;
    std::uint64_t warmup = 0;
    /**
     * Core count. 1 runs the classic single-OooCore pipeline
     * (bit-identical to pre-multicore sweeps); > 1 constructs a
     * System (sim/system.hh) with a shared coherent L2. Profile jobs
     * replicate the benchmark homogeneously (per-core seed + i);
     * profile-less jobs treat @c benchmark as a multicore kernel
     * name (workload/multicore.hh). Part of the job tuple: hashed
     * into the journal fingerprint.
     */
    unsigned cores = 1;
    /**
     * Queue depth (slots) for multicore kernel workloads; 0 uses the
     * kernel default. Ignored for single-core and profile jobs, but
     * always hashed into the journal fingerprint.
     */
    unsigned queueDepth = 0;
    /**
     * Sampled-simulation schedule (sim/sampling.hh). When enabled
     * the default pipeline runs OooCore::runSampled() instead of
     * run(); insts/warmup are ignored by that path (the schedule
     * defines the simulated instruction budget). Part of the job
     * tuple: hashed into the journal fingerprint.
     */
    SamplingParams sampling;
    /** Custom runner; empty runs the default pipeline. */
    SweepRunner runner;
    /**
     * Identity tag for the custom runner, hashed into the journal's
     * job fingerprint (sim/journal.hh). The callable itself cannot
     * be hashed, so two studies whose runners compute different
     * statistics over otherwise identical tuples MUST set distinct
     * tags or their checkpoint journals become interchangeable.
     * Ignored (and unnecessary) for default-pipeline jobs.
     */
    std::string runnerTag;
};

/**
 * Thrown by runSweep() after every job has been attempted when at
 * least one job threw. Worker threads never terminate the process:
 * each failure is caught per job, recorded with its job index, and
 * the remaining jobs still run. The completed results (failed slots
 * are default-constructed with valid == false) are carried here so
 * callers can salvage the rest of the sweep.
 */
class SweepError : public std::runtime_error
{
  public:
    struct Failure
    {
        std::size_t index;
        std::string message;
    };

    SweepError(std::vector<Failure> failures_,
               std::vector<RunResult> results_);

    const std::vector<Failure> &
    failures() const
    {
        return failed;
    }

    /** All job results, ordered by job index. */
    const std::vector<RunResult> &
    results() const
    {
        return completed;
    }

  private:
    std::vector<Failure> failed;
    std::vector<RunResult> completed;
};

/**
 * A named machine configuration point in a sweep cross-product.
 *
 * materialize() builds the UarchParams from the paper's two machine
 * sizes and then applies the optional @c tweak hook, so sweeps can
 * vary any knob (predictor geometry, SVW, widths) declaratively.
 */
struct SweepConfig
{
    std::string name;
    LsuMode mode = LsuMode::Nosq;
    bool bigWindow = false;
    bool nosqDelay = true;
    /** Hierarchy point label (memsysConfigs()); usually empty. */
    std::string memsys;
    /** Core count copied into every job built from this config. */
    unsigned cores = 1;
    /** Multicore kernel queue depth (0: kernel default). */
    unsigned queueDepth = 0;
    std::function<void(UarchParams &)> tweak;

    UarchParams materialize() const;
};

/** Declarative sweep: benchmarks x configurations cross-product. */
struct SweepSpec
{
    std::vector<const BenchmarkProfile *> benchmarks;
    std::vector<SweepConfig> configs;
    /** Measured instructions per run, at least 1. */
    std::uint64_t insts = 0;
    /** Warm-up instructions (~0: insts / 3). */
    std::uint64_t warmup = ~std::uint64_t(0);
    /** Workload synthesis seed shared by every job. */
    std::uint64_t seed = 1;
    /** Sampled-simulation schedule copied into every job. */
    SamplingParams sampling;
};

/**
 * Expand @p spec into its job list, benchmark-major: job index
 * b * configs.size() + c runs benchmark b under configuration c.
 */
std::vector<SweepJob> buildJobs(const SweepSpec &spec);

// --- cross-product builders ------------------------------------------------

/** All profiles of @p suite, in Table 5 order. */
std::vector<const BenchmarkProfile *> profilesOfSuite(Suite suite);

/** All 47 profiles, in Table 5 order. */
std::vector<const BenchmarkProfile *> allProfilePtrs();

/**
 * The modes x window-sizes cross-product, e.g.
 * crossConfigs({Nosq, SqStoreSets}, {128, 256}) yields four configs
 * named "<mode>/w<window>". Window sizes must be 128 or 256, the
 * paper's two machines (asserted).
 */
std::vector<SweepConfig> crossConfigs(
    const std::vector<LsuMode> &modes,
    const std::vector<unsigned> &windows);

/**
 * The five bars of Figures 2 and 3 on one machine size: SQ+perfect
 * scheduling (the normalization baseline), SQ+StoreSets, NoSQ
 * without delay, NoSQ with delay, and perfect-predictor NoSQ.
 */
std::vector<SweepConfig> paperFigureConfigs(bool big_window);

/**
 * Memory-hierarchy scaling dimension (`--sweep=memsys`): the cross
 * product of L2 size x L2 hit latency x MSHR count x prefetcher
 * on/off, each hierarchy point run under BOTH the associative-SQ
 * baseline and NoSQ-with-delay so cache-geometry effects on the
 * NoSQ-vs-baseline gap are directly comparable. Every point enables
 * the occupancy-based DRAM-bus model. Config names are
 * "sq/<label>" and "nosq/<label>" with the hierarchy label (also
 * placed in SweepConfig::memsys) formatted
 * "l2-<size>-lat<cycles>-mshr<n>[-pref]". Point-major order: the
 * SQ run of the first point is the reduction baseline.
 *
 * @param with_prefetch add a prefetcher-on twin of every point
 */
std::vector<SweepConfig> memsysConfigs(
    const std::vector<std::size_t> &l2_sizes,
    const std::vector<Cycle> &l2_lats,
    const std::vector<unsigned> &mshr_counts,
    bool with_prefetch);

/**
 * The default `--sweep=memsys` grid: L2 {256KB, 1MB} x latency
 * {10, 20} x MSHRs {2, 8} x prefetcher {off, on} = 16 hierarchy
 * points, 32 configurations.
 */
std::vector<SweepConfig> memsysConfigs();

/**
 * Multi-core scaling dimension (`--sweep=multicore`): the cross
 * product of core count x queue depth, each point run under BOTH the
 * associative-SQ baseline and NoSQ-with-delay so the cross-core
 * store-load forwarding gap is directly comparable. Config names are
 * "sq/c<cores>-d<depth>" and "nosq/c<cores>-d<depth>", point-major
 * with the SQ run first (the reduction baseline).
 */
std::vector<SweepConfig> multicoreConfigs(
    const std::vector<unsigned> &core_counts,
    const std::vector<unsigned> &queue_depths);

/**
 * Expand multicore kernel names x configs into a job list,
 * kernel-major (mirrors buildJobs()). Each job carries the kernel
 * name in SweepJob::benchmark with profile == nullptr and
 * suite == Suite::Int; runOne() builds the per-core programs with
 * buildMulticorePrograms() and runs a System.
 */
std::vector<SweepJob> buildMulticoreJobs(
    const std::vector<std::string> &kernels,
    const std::vector<SweepConfig> &configs, std::uint64_t insts,
    std::uint64_t warmup, std::uint64_t seed);

/**
 * Figure 5 (top) dimension: NoSQ configurations sweeping total
 * bypassing-predictor capacity. Each point is (label, total entries
 * across both tables, split equally); 0 entries means unbounded
 * capacity (the "Inf" point, which keeps the default 2K storage for
 * its tables). Config names are "cap-<label>".
 */
std::vector<SweepConfig> predictorCapacityConfigs(
    const std::vector<std::pair<std::string, unsigned>> &capacities);

/**
 * Figure 5 (bottom) dimension: NoSQ configurations sweeping path
 * history length at the default 2K-entry capacity. With
 * @p with_unbounded, each bounded point "hist-<bits>b" is followed
 * by its unbounded-capacity twin "hist-<bits>b-inf".
 */
std::vector<SweepConfig> predictorHistoryConfigs(
    const std::vector<unsigned> &history_bits, bool with_unbounded);

// --- execution -------------------------------------------------------------

/**
 * Index value reported to SweepProgress when a call does not
 * describe one specific job: the bulk "everything was already
 * journaled" report uses it.
 */
inline constexpr std::size_t sweep_progress_bulk = ~std::size_t(0);

/**
 * Progress callback: (jobs completed so far, total jobs, index of
 * the job that just finished). @p index is sweep_progress_bulk for
 * a bulk report; live-progress consumers (obs/progress.hh) use it
 * for the per-suite breakdown, counting-only consumers ignore it.
 */
using SweepProgress = std::function<void(
    std::size_t done, std::size_t total, std::size_t index)>;

/** Worker count from NOSQ_JOBS, else hardware concurrency.
 * @throws cli::UsageError unless NOSQ_JOBS is a number >= 1 */
unsigned defaultSweepWorkers();

/**
 * An empty result labelled with @p job's benchmark, suite, config
 * and memsys point: the shell runSweepJob() fills in, and, with
 * @p valid false, the identifiable placeholder of a job that failed
 * (locally or on a server).
 */
RunResult labelledResult(const SweepJob &job, bool valid = true);

/**
 * Run one job synchronously on the calling thread: the unit of work
 * behind runSweep()'s worker pool, exported so out-of-process
 * executors (the nosq_sweepd worker, src/serve/worker.cc) run the
 * exact code path a local sweep would. All simulation state is
 * constructed from the job tuple alone (the determinism contract),
 * so a result computed here is bit-identical to the same job run by
 * runSweep() in any process.
 *
 * Exceptions from the simulation propagate (runSweep() adds the
 * per-job isolation guard; remote executors add their own).
 *
 * @param tracer optional pipeline tracer (obs/pipe_trace.hh) for a
 *        single-core default-pipeline job; tracing never changes
 *        the result
 */
RunResult runSweepJob(const SweepJob &job,
                      obs::PipeTracer *tracer = nullptr);

class SweepJournal;

/**
 * Run every job and return results ordered by job index.
 *
 * Failure isolation: a job that throws never takes down the sweep
 * (or, on a worker thread, the process). The exception is caught per
 * job, the remaining jobs still run, and after all workers join a
 * SweepError summarizing every failure -- and carrying the partial
 * results -- is thrown. The serial (num_workers <= 1) path behaves
 * identically.
 *
 * @param num_workers worker threads (0: defaultSweepWorkers());
 *        clamped to the job count; 1 runs inline on the caller
 * @param progress optional completion callback, serialized by the
 *        engine (at most one invocation at a time); with a journal,
 *        jobs skipped as already journaled count as done from the
 *        first invocation
 * @throws SweepError if any job threw
 */
std::vector<RunResult> runSweep(const std::vector<SweepJob> &jobs,
                                unsigned num_workers = 0,
                                const SweepProgress &progress = {});

/**
 * runSweep() with a durable checkpoint/resume journal
 * (sim/journal.hh). The journal is bound to @p jobs first: jobs whose
 * fingerprints have a stored result are skipped and those results
 * merged into the returned vector at their job indices, and every
 * newly completed job is put into the journal's store (flushed per
 * record, so an interrupted sweep loses at most in-flight jobs). The
 * merged result vector -- and hence the final report, reductions
 * included -- is bit-identical to an uninterrupted run's.
 *
 * @throws JournalError if a fresh checkpoint would overwrite results
 *         of this sweep, another sweep holds the journal, or its
 *         file cannot be (re)written
 * @throws SweepError if any job threw (journaled results are never
 *         failures; failed jobs are not journaled and re-run on the
 *         next resume)
 */
std::vector<RunResult> runSweep(const std::vector<SweepJob> &jobs,
                                SweepJournal &journal,
                                unsigned num_workers = 0,
                                const SweepProgress &progress = {});

} // namespace nosq

#endif // NOSQ_SIM_SWEEP_HH
