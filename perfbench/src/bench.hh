/**
 * @file
 * Shared declarations of the perfbench program: workloads, the
 * correctness ledger, and the timed phases every repetition runs.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace perfbench {

/** One named job set, run through every user-facing path. */
struct Workload
{
    std::string name;
    std::vector<nosq::SweepJob> jobs;
    /** Measured and warm-up instructions per core per job. */
    std::uint64_t insts = 0;
    std::uint64_t warmup = 0;
};

/** @throws std::invalid_argument for an unknown workload name */
Workload buildWorkload(const std::string &name, std::uint64_t seed);

/** Committed instructions a job must reach (warm-up included, all
 * cores). */
std::uint64_t expectedCommitted(const nosq::SweepJob &job);

/**
 * Counts attempted operations (simulations, served jobs, checks) and
 * the ones that failed; failed_frac is failed / attempted.
 */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one operation; report it on stderr when @p ok is false.
     * @return @p ok */
    bool check(bool ok, const std::string &what);
};

// --- the timed phases (phases.cc) -------------------------------------------

/** Cold synthesis of every program the workload runs. @return s */
double synthesizeAll(const Workload &w);

/** Serial single-run pass (what a series of nosq_sim runs pays),
 * starting from an empty ProgramCache. */
struct SinglePass
{
    std::vector<nosq::RunResult> results;
    /** Per job: program fetch (synthesis on first use) plus run. */
    std::vector<double> jobS;
    double wallS = 0.0;
    std::uint64_t committed = 0;
};
SinglePass singleRunPass(const Workload &w, Ledger &ledger);

/** Local checkpointed sweep (runSweep + journal + report). */
struct LocalSweep
{
    std::vector<nosq::RunResult> results;
    std::string report;
    double wallS = 0.0;
    std::uint64_t journalBytes = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};
LocalSweep localSweep(const Workload &w, unsigned workers,
                      const std::string &journal_path, Ledger &ledger);

/** A nosq_sweepd child process with its own socket and store. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Start a fresh daemon on an empty store and wait until its
     * socket answers a status request.
     * @return false with a message on stderr when it never answers
     */
    bool start(const std::string &binary, const std::string &socket,
               const std::string &store, unsigned workers);

    /** SIGTERM drain; @return true when the daemon exited 0. */
    bool drain();

    const std::string &socket() const { return sock; }

    /** Peak RSS of the drained daemon and its workers, in MB. */
    double peakRssMb() const { return peakKb / 1024.0; }

  private:
    pid_t pid = -1;
    std::string sock;
    double peakKb = 0.0;
};

/** One served sweep as seen by its clients. */
struct ServedPass
{
    double wallS = 0.0;
    /** Per delivered job: submit to row delivered, in ms. */
    std::vector<double> latencyMs;
    std::vector<std::string> reports; ///< one per client
    std::size_t cached = 0;           ///< jobs answered from the store
};

/** @p clients concurrent clients submitting the same job list. */
ServedPass servedPass(const Workload &w, const Daemon &d,
                      unsigned clients, Ledger &ledger);

/** The nosq-sweep-v2 report for @p results, as nosq_sim emits it. */
std::string reportFor(const Workload &w,
                      const std::vector<nosq::RunResult> &results);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
