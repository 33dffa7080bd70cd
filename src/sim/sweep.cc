#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <thread>

#include "common/cli.hh"
#include "common/logging.hh"
#include "ooo/core.hh"
#include "sim/journal.hh"
#include "sim/system.hh"
#include "workload/multicore.hh"
#include "workload/program_cache.hh"

namespace nosq {

UarchParams
SweepConfig::materialize() const
{
    UarchParams params = makeParams(mode, bigWindow);
    params.nosqDelay = nosqDelay;
    if (tweak)
        tweak(params);
    return params;
}

std::vector<SweepJob>
buildJobs(const SweepSpec &spec)
{
    nosq_assert(spec.insts > 0, "a sweep measures at least 1 inst");
    const std::uint64_t insts = spec.insts;
    const std::uint64_t warmup =
        spec.warmup == ~std::uint64_t(0) ? insts / 3 : spec.warmup;

    std::vector<SweepJob> jobs;
    jobs.reserve(spec.benchmarks.size() * spec.configs.size());
    for (const BenchmarkProfile *profile : spec.benchmarks) {
        nosq_assert(profile != nullptr, "null profile in sweep spec");
        for (const SweepConfig &config : spec.configs) {
            SweepJob job;
            job.profile = profile;
            job.params = config.materialize();
            job.config = config.name;
            job.memsysLabel = config.memsys;
            job.seed = spec.seed;
            job.insts = insts;
            job.warmup = warmup;
            job.cores = config.cores;
            job.queueDepth = config.queueDepth;
            job.sampling = spec.sampling;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<const BenchmarkProfile *>
profilesOfSuite(Suite suite)
{
    std::vector<const BenchmarkProfile *> profiles;
    for (const auto &p : allProfiles())
        if (p.suite == suite)
            profiles.push_back(&p);
    return profiles;
}

std::vector<const BenchmarkProfile *>
allProfilePtrs()
{
    std::vector<const BenchmarkProfile *> profiles;
    for (const auto &p : allProfiles())
        profiles.push_back(&p);
    return profiles;
}

std::vector<SweepConfig>
crossConfigs(const std::vector<LsuMode> &modes,
             const std::vector<unsigned> &windows)
{
    std::vector<SweepConfig> configs;
    configs.reserve(modes.size() * windows.size());
    for (const LsuMode mode : modes) {
        for (const unsigned window : windows) {
            // makeParams models exactly the paper's two machines.
            nosq_assert(window == 128 || window == 256,
                        "window size must be 128 or 256");
            SweepConfig config;
            config.mode = mode;
            config.bigWindow = window == 256;
            config.name = std::string(lsuModeName(mode)) + "/w" +
                std::to_string(window);
            configs.push_back(std::move(config));
        }
    }
    return configs;
}

namespace {

/** "256K" / "1M" style byte-size label for hierarchy point names. */
std::string
sizeLabel(std::size_t bytes)
{
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
        return std::to_string(bytes / (1024 * 1024)) + "M";
    if (bytes >= 1024 && bytes % 1024 == 0)
        return std::to_string(bytes / 1024) + "K";
    return std::to_string(bytes);
}

} // anonymous namespace

std::vector<SweepConfig>
memsysConfigs(const std::vector<std::size_t> &l2_sizes,
              const std::vector<Cycle> &l2_lats,
              const std::vector<unsigned> &mshr_counts,
              bool with_prefetch)
{
    std::vector<SweepConfig> configs;
    for (const std::size_t size : l2_sizes) {
        for (const Cycle lat : l2_lats) {
            for (const unsigned mshrs : mshr_counts) {
                for (int pref = 0;
                     pref <= (with_prefetch ? 1 : 0); ++pref) {
                    const std::string label = "l2-" +
                        sizeLabel(size) + "-lat" +
                        std::to_string(lat) + "-mshr" +
                        std::to_string(mshrs) +
                        (pref ? "-pref" : "");
                    for (const LsuMode mode :
                         {LsuMode::SqStoreSets, LsuMode::Nosq}) {
                        SweepConfig config;
                        config.mode = mode;
                        config.memsys = label;
                        config.name =
                            (mode == LsuMode::Nosq ? "nosq/"
                                                   : "sq/") + label;
                        const bool prefetch = pref != 0;
                        config.tweak = [size, lat, mshrs,
                                        prefetch](UarchParams &p) {
                            p.memsys.l2.sizeBytes = size;
                            p.memsys.l2.hitLatency = lat;
                            p.memsys.mshrs = mshrs;
                            p.memsys.busContention = true;
                            p.memsys.prefetchDegree =
                                prefetch ? 2 : 0;
                        };
                        configs.push_back(std::move(config));
                    }
                }
            }
        }
    }
    return configs;
}

std::vector<SweepConfig>
memsysConfigs()
{
    return memsysConfigs({256 * 1024, 1024 * 1024}, {10, 20},
                         {2, 8}, /*with_prefetch=*/true);
}

std::vector<SweepConfig>
multicoreConfigs(const std::vector<unsigned> &core_counts,
                 const std::vector<unsigned> &queue_depths)
{
    std::vector<SweepConfig> configs;
    configs.reserve(core_counts.size() * queue_depths.size() * 2);
    for (const unsigned cores : core_counts) {
        for (const unsigned depth : queue_depths) {
            const std::string label = "c" + std::to_string(cores) +
                "-d" + std::to_string(depth);
            for (const LsuMode mode :
                 {LsuMode::SqStoreSets, LsuMode::Nosq}) {
                SweepConfig config;
                config.mode = mode;
                config.cores = cores;
                config.queueDepth = depth;
                config.name =
                    (mode == LsuMode::Nosq ? "nosq/" : "sq/") +
                    label;
                configs.push_back(std::move(config));
            }
        }
    }
    return configs;
}

std::vector<SweepJob>
buildMulticoreJobs(const std::vector<std::string> &kernels,
                   const std::vector<SweepConfig> &configs,
                   std::uint64_t insts, std::uint64_t warmup,
                   std::uint64_t seed)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(kernels.size() * configs.size());
    for (const std::string &kernel : kernels) {
        nosq_assert(isMulticoreWorkload(kernel),
                    "unknown multicore kernel in sweep spec");
        for (const SweepConfig &config : configs) {
            SweepJob job;
            job.params = config.materialize();
            job.config = config.name;
            job.benchmark = kernel;
            job.suite = Suite::Int;
            job.seed = seed;
            job.insts = insts;
            job.warmup = warmup;
            job.cores = config.cores;
            job.queueDepth = config.queueDepth;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<SweepConfig>
predictorCapacityConfigs(
    const std::vector<std::pair<std::string, unsigned>> &capacities)
{
    std::vector<SweepConfig> configs;
    configs.reserve(capacities.size());
    for (const auto &[label, total] : capacities) {
        SweepConfig config;
        config.name = "cap-" + label;
        config.mode = LsuMode::Nosq;
        const bool unbounded = total == 0;
        const unsigned per_table = total / 2;
        config.tweak = [unbounded, per_table](UarchParams &p) {
            if (unbounded) {
                p.bypass.unbounded = true;
                return;
            }
            // Equal split, clamped to the smallest geometry the
            // predictor accepts (a whole set) so a tiny total never
            // collapses into the unbounded sentinel or trips the
            // entries-per-set assertion.
            const unsigned assoc =
                p.bypass.assoc ? p.bypass.assoc : 1;
            p.bypass.entriesPerTable = per_table < assoc
                ? assoc : per_table - per_table % assoc;
        };
        configs.push_back(std::move(config));
    }
    return configs;
}

std::vector<SweepConfig>
predictorHistoryConfigs(const std::vector<unsigned> &history_bits,
                        bool with_unbounded)
{
    std::vector<SweepConfig> configs;
    configs.reserve(history_bits.size() * (with_unbounded ? 2 : 1));
    for (const unsigned bits : history_bits) {
        for (int unbounded = 0;
             unbounded <= (with_unbounded ? 1 : 0); ++unbounded) {
            SweepConfig config;
            config.name = "hist-" + std::to_string(bits) + "b" +
                (unbounded ? "-inf" : "");
            config.mode = LsuMode::Nosq;
            config.tweak = [bits, unbounded](UarchParams &p) {
                p.bypass.historyBits = bits;
                p.bypass.unbounded = unbounded;
            };
            configs.push_back(std::move(config));
        }
    }
    return configs;
}

std::vector<SweepConfig>
paperFigureConfigs(bool big_window)
{
    std::vector<SweepConfig> configs(5);
    configs[0].name = "sq-perfect";
    configs[0].mode = LsuMode::SqPerfect;
    configs[1].name = "sq-storesets";
    configs[1].mode = LsuMode::SqStoreSets;
    configs[2].name = "nosq-nodelay";
    configs[2].mode = LsuMode::Nosq;
    configs[2].nosqDelay = false;
    configs[3].name = "nosq-delay";
    configs[3].mode = LsuMode::Nosq;
    configs[4].name = "nosq-perfect";
    configs[4].mode = LsuMode::NosqPerfect;
    for (auto &config : configs)
        config.bigWindow = big_window;
    return configs;
}

unsigned
defaultSweepWorkers()
{
    if (const auto jobs = cli::parseEnvNumber(
            "NOSQ_JOBS", 1, std::numeric_limits<unsigned>::max()))
        return static_cast<unsigned>(*jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepError::SweepError(std::vector<Failure> failures_,
                       std::vector<RunResult> results_)
    : std::runtime_error([&failures_] {
          std::string msg = "sweep: " +
              std::to_string(failures_.size()) + " job(s) failed:";
          for (const Failure &f : failures_) {
              msg += " [job " + std::to_string(f.index) + "] " +
                  f.message + ";";
          }
          msg.pop_back();
          return msg;
      }()),
      failed(std::move(failures_)), completed(std::move(results_))
{
}

RunResult
labelledResult(const SweepJob &job, bool valid)
{
    RunResult result;
    result.benchmark = job.profile ? job.profile->name
                                   : job.benchmark;
    result.suite = job.profile ? job.profile->suite : job.suite;
    result.config = job.config;
    result.memsys = job.memsysLabel;
    result.valid = valid;
    return result;
}

/**
 * Run one job. All simulation state (workload RNG, core, caches,
 * predictors) is constructed here from the job tuple alone, which is
 * what makes worker count and claim order irrelevant to the result.
 */
RunResult
runSweepJob(const SweepJob &job, obs::PipeTracer *tracer)
{
    RunResult result = labelledResult(job);
    nosq_assert(tracer == nullptr || (!job.runner && job.cores == 1),
                "only a single-core default-pipeline job is traced");
    if (job.runner) {
        result.sim = job.runner(job);
        return result;
    }
    if (job.cores > 1) {
        // Multi-core jobs build an N-core System around a shared
        // coherent L2. A profile replicates homogeneously (per-core
        // seed + i so the programs differ); a profile-less job names
        // a producer-consumer kernel from workload/multicore.hh.
        nosq_assert(!job.sampling.enabled,
                    "sampled simulation is single-core only");
        std::vector<std::shared_ptr<const Program>> programs;
        if (job.profile != nullptr) {
            programs.reserve(job.cores);
            for (unsigned i = 0; i < job.cores; ++i) {
                programs.push_back(ProgramCache::global().get(
                    *job.profile, job.seed + i));
            }
        } else {
            programs = buildMulticorePrograms(
                job.benchmark, job.cores,
                job.queueDepth ? job.queueDepth
                               : default_queue_depth,
                job.seed);
        }
        System system(job.params, std::move(programs));
        result.sim = system.run(job.insts, job.warmup);
        return result;
    }
    nosq_assert(job.profile != nullptr,
                "sweep job needs a profile or a custom runner");
    // Each program is synthesized once per (profile, seed) and
    // shared const across every job and worker that replays it.
    OooCore core(job.params,
                 ProgramCache::global().get(*job.profile, job.seed));
    core.setTracer(tracer);
    result.sim = job.sampling.enabled
        ? core.runSampled(job.sampling)
        : core.run(job.insts, job.warmup);
    return result;
}

namespace {

/**
 * Failure-isolation tracker shared by the serial and parallel
 * execution paths: a throwing job is recorded (by index) instead of
 * escaping -- on a worker thread an escaped exception would reach
 * the thread body and std::terminate the whole process.
 */
class FailureLog
{
  public:
    void
    record(std::size_t index, std::string message)
    {
        std::lock_guard<std::mutex> lock(mutex);
        failures.push_back({index, std::move(message)});
    }

    /** Throw the SweepError summary if any job failed. */
    void
    throwIfFailed(std::vector<RunResult> &results)
    {
        if (failures.empty())
            return;
        std::sort(failures.begin(), failures.end(),
                  [](const auto &a, const auto &b) {
                      return a.index < b.index;
                  });
        throw SweepError(std::move(failures), std::move(results));
    }

  private:
    std::mutex mutex;
    std::vector<SweepError::Failure> failures;
};

/** runSweepJob() with the per-job exception guard. */
void
runGuarded(const SweepJob &job, std::size_t index, RunResult &result,
           FailureLog &log)
{
    try {
        result = runSweepJob(job);
    } catch (const std::exception &e) {
        log.record(index, e.what());
        result = labelledResult(job, false);
    } catch (...) {
        log.record(index, "unknown exception");
        result = labelledResult(job, false);
    }
}

} // anonymous namespace

namespace {

/** Shared engine body behind both public runSweep() overloads. */
std::vector<RunResult>
runSweepImpl(const std::vector<SweepJob> &jobs,
             SweepJournal *journal, unsigned num_workers,
             const SweepProgress &progress)
{
    std::vector<RunResult> results(jobs.size());
    // Bind even an empty job list, so the journal file exists (with
    // a verifiable spec header) whenever the caller asked for one. A
    // caller that already bound (to print the resume summary before
    // running) is honoured as-is.
    if (journal != nullptr && !journal->isBound())
        journal->bind(jobs);
    if (jobs.empty())
        return results;

    // With a journal, jobs completed by a previous (interrupted) run
    // are merged in at their indices and only the rest execute.
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (journal != nullptr && journal->isDone(i))
            results[i] = journal->doneResult(i);
        else
            pending.push_back(i);
    }
    const std::size_t skipped = jobs.size() - pending.size();
    if (pending.empty()) {
        // Everything was journaled: still honour the progress
        // contract (skipped jobs count as done from the first
        // invocation) with one completion report.
        if (progress)
            progress(jobs.size(), jobs.size(), sweep_progress_bulk);
        return results;
    }

    if (num_workers == 0)
        num_workers = defaultSweepWorkers();
    if (num_workers > pending.size())
        num_workers = static_cast<unsigned>(pending.size());

    FailureLog failures;

    // Failed (invalid) results are never journaled: a resumed sweep
    // retries them instead of inheriting a hole.
    auto finish = [&](std::size_t index) {
        if (journal != nullptr)
            journal->record(index, results[index]);
    };

    // Every pending index is known before any worker starts, so a
    // shared cursor over `pending` is the whole hand-off.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{skipped};
    std::mutex progress_mutex;

    auto worker = [&] {
        for (std::size_t k = next++; k < pending.size(); k = next++) {
            const std::size_t index = pending[k];
            runGuarded(jobs[index], index, results[index], failures);
            finish(index);
            if (progress) {
                // Increment under the same lock as the callback so
                // reported counts are monotonic across workers.
                std::lock_guard<std::mutex> lock(progress_mutex);
                progress(++done, jobs.size(), index);
            } else {
                ++done;
            }
        }
    };

    // The calling thread is one of the workers; a one-worker sweep
    // starts no thread.
    std::vector<std::thread> pool;
    pool.reserve(num_workers - 1);
    for (unsigned w = 1; w < num_workers; ++w)
        pool.emplace_back(worker);
    worker();
    for (auto &thread : pool)
        thread.join();
    failures.throwIfFailed(results);
    return results;
}

} // anonymous namespace

std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs, unsigned num_workers,
         const SweepProgress &progress)
{
    return runSweepImpl(jobs, nullptr, num_workers, progress);
}

std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs, SweepJournal &journal,
         unsigned num_workers, const SweepProgress &progress)
{
    return runSweepImpl(jobs, &journal, num_workers, progress);
}

} // namespace nosq
