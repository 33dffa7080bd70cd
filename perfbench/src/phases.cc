/**
 * @file
 * The timed phases of one repetition: cold synthesis, the serial
 * single-run pass, the local checkpointed sweep, and served sweeps
 * against a nosq_sweepd child. Spans (spans.hh) wrap every call into
 * a simulator layer; they cost nothing unless the run is traced.
 */

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <fcntl.h>
#include <set>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>

#include "bench.hh"
#include "ooo/core.hh"
#include "serve/client.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "workload/multicore.hh"
#include "workload/program_cache.hh"

namespace perfbench {

using nosq::RunResult;
using nosq::SweepJob;

bool
Ledger::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }
    return ok;
}

std::uint64_t
expectedCommitted(const SweepJob &job)
{
    return (job.insts + job.warmup) * (job.cores > 1 ? job.cores : 1);
}

std::string
reportFor(const Workload &w, const std::vector<RunResult> &results)
{
    return nosq::sweepReportJson(results, w.insts);
}

namespace {

RunResult
labelled(const SweepJob &job)
{
    RunResult r;
    r.benchmark = job.profile ? job.profile->name : job.benchmark;
    r.suite = job.profile ? job.profile->suite : job.suite;
    r.config = job.config;
    r.memsys = job.memsysLabel;
    return r;
}

std::vector<std::shared_ptr<const nosq::Program>>
kernelPrograms(const SweepJob &job)
{
    return nosq::buildMulticorePrograms(
        job.benchmark, job.cores,
        job.queueDepth ? job.queueDepth : nosq::default_queue_depth,
        job.seed);
}

} // anonymous namespace

double
synthesizeAll(const Workload &w)
{
    Scope all("workload.synth_all");
    const std::uint64_t t0 = nowNs();
    nosq::ProgramCache::global().clear();
    std::set<std::pair<const nosq::BenchmarkProfile *, std::uint64_t>>
        profiles;
    std::set<std::pair<std::string, unsigned>> kernels;
    for (const SweepJob &job : w.jobs) {
        if (job.profile != nullptr) {
            if (profiles.emplace(job.profile, job.seed).second) {
                Scope s("workload.synth");
                nosq::ProgramCache::global().get(*job.profile,
                                                 job.seed);
            }
        } else if (kernels.emplace(job.benchmark, job.cores).second) {
            Scope s("workload.synth");
            kernelPrograms(job);
        }
    }
    return secondsBetween(t0, nowNs());
}

SinglePass
singleRunPass(const Workload &w, Ledger &ledger)
{
    Scope pass("workload.single_pass");
    SinglePass out;
    out.results.reserve(w.jobs.size());
    const std::uint64_t t0 = nowNs();
    nosq::ProgramCache::global().clear();
    for (const SweepJob &job : w.jobs) {
        RunResult r = labelled(job);
        std::uint64_t committed = 0;
        const std::uint64_t job_t0 = nowNs();
        try {
            if (job.cores > 1) {
                std::vector<std::shared_ptr<const nosq::Program>> progs;
                {
                    Scope s("workload.kernel_build");
                    progs = kernelPrograms(job);
                }
                nosq::System system(job.params, std::move(progs));
                {
                    Scope s("system.run");
                    r.sim = system.run(job.insts, job.warmup);
                }
                for (unsigned c = 0; c < system.numCores(); ++c)
                    committed += system.core(c).committedInsts();
            } else {
                std::shared_ptr<const nosq::Program> prog;
                {
                    Scope s("workload.cache_get");
                    prog = nosq::ProgramCache::global().get(*job.profile,
                                                            job.seed);
                }
                nosq::OooCore core(job.params, std::move(prog));
                {
                    Scope s("ooo.run");
                    r.sim = core.run(job.insts, job.warmup);
                }
                committed = core.committedInsts();
            }
        } catch (const std::exception &e) {
            r.valid = false;
            ledger.check(false, "single run " + r.benchmark + "/" +
                                    r.config + ": " + e.what());
            out.results.push_back(std::move(r));
            out.jobS.push_back(secondsBetween(job_t0, nowNs()));
            continue;
        }
        out.jobS.push_back(secondsBetween(job_t0, nowNs()));
        ledger.check(committed == expectedCommitted(job),
                     "single run " + r.benchmark + "/" + r.config +
                         " committed " + std::to_string(committed) +
                         " of " +
                         std::to_string(expectedCommitted(job)));
        out.committed += committed;
        out.results.push_back(std::move(r));
    }
    out.wallS = secondsBetween(t0, nowNs());
    return out;
}

LocalSweep
localSweep(const Workload &w, unsigned workers,
           const std::string &journal_path, Ledger &ledger)
{
    LocalSweep out;
    nosq::ProgramCache &cache = nosq::ProgramCache::global();

    // Traced runs wrap each job in a runner so its span lands on the
    // worker thread that ran it; the wrapped job is the plain job, so
    // the statistics are the ones runSweepJob() computes.
    const bool traced = spans().enabled();
    std::vector<SweepJob> jobs = w.jobs;
    Scope sweep("sweep.local");
    if (traced) {
        const int parent = sweep.spanId();
        for (SweepJob &job : jobs) {
            job.runnerTag = "perfbench-span";
            job.runner = [parent](const SweepJob &j) {
                SweepJob plain = j;
                plain.runner = nullptr;
                plain.runnerTag.clear();
                Scope s("sweep.job", parent);
                return nosq::runSweepJob(plain).sim;
            };
        }
    }

    const std::uint64_t t0 = nowNs();
    cache.clear();
    const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
    try {
        // A fresh checkpoint per sweep: create() refuses a file that
        // already journals this spec.
        ::unlink(journal_path.c_str());
        nosq::SweepJournal journal =
            nosq::SweepJournal::create(journal_path);
        out.results = nosq::runSweep(jobs, journal, workers);
        ledger.check(journal.writeError().empty(),
                     "journal append: " + journal.writeError());
    } catch (const std::exception &e) {
        ledger.check(false, std::string("local sweep: ") + e.what());
        return out;
    }
    {
        Scope s("report.emit");
        out.report = reportFor(w, out.results);
    }
    out.wallS = secondsBetween(t0, nowNs());
    out.cacheHits = cache.hits() - hits0;
    out.cacheMisses = cache.misses() - misses0;

    {
        Scope s("report.validate");
        nosq::JsonValue doc;
        std::string error;
        const bool ok = nosq::parseJson(out.report, doc, &error) &&
            nosq::validateSweepReport(doc, &error);
        ledger.check(ok, "local report validation: " + error);
    }
    struct stat st;
    if (::stat(journal_path.c_str(), &st) == 0)
        out.journalBytes = static_cast<std::uint64_t>(st.st_size);
    return out;
}

// --- the daemon -------------------------------------------------------------

Daemon::~Daemon()
{
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
}

bool
Daemon::start(const std::string &binary, const std::string &socket,
              const std::string &store, unsigned workers)
{
    Scope s("serve.spawn");
    sock = socket;
    ::unlink(socket.c_str());
    ::unlink(store.c_str());
    const std::string log = socket + ".log";
    const std::string nworkers = std::to_string(workers);
    pid = ::fork();
    if (pid < 0) {
        std::perror("perfbench: fork");
        return false;
    }
    if (pid == 0) {
        // Everything the daemon prints goes to its log, keeping the
        // benchmark's stdout clean for its result line.
        const int log_fd =
            ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (log_fd >= 0) {
            ::dup2(log_fd, STDOUT_FILENO);
            ::close(log_fd);
        }
        ::execl(binary.c_str(), binary.c_str(), "--socket",
                socket.c_str(), "--store", store.c_str(), "--workers",
                nworkers.c_str(), "--log", log.c_str(),
                static_cast<char *>(nullptr));
        std::_Exit(127);
    }
    // Ready once a status request round-trips (socket bound, store
    // opened, workers forked).
    std::string reply, error;
    for (int attempt = 0; attempt < 20000; ++attempt) {
        if (nosq::serve::fetchServerStatus(socket, reply, error))
            return true;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            pid = -1;
            std::fprintf(stderr, "perfbench: daemon exited early\n");
            return false;
        }
        ::usleep(500);
    }
    std::fprintf(stderr, "perfbench: daemon never answered: %s\n",
                 error.c_str());
    return false;
}

bool
Daemon::drain()
{
    if (pid <= 0)
        return false;
    Scope s("serve.drain");
    ::kill(pid, SIGTERM);
    int status = 0;
    struct rusage usage;
    // The drain finishes in-flight work and compacts the store; give
    // it 30 s before calling it failed.
    for (int i = 0; i < 30000; ++i) {
        const pid_t r = ::wait4(pid, &status, WNOHANG, &usage);
        if (r == pid) {
            pid = -1;
            // Covers the daemon and the workers it reaped.
            peakKb = static_cast<double>(usage.ru_maxrss);
            return WIFEXITED(status) && WEXITSTATUS(status) == 0;
        }
        if (r < 0 && errno != EINTR)
            break;
        ::usleep(1000);
    }
    std::fprintf(stderr, "perfbench: daemon drain timed out\n");
    return false; // the destructor SIGKILLs and reaps it
}

// --- served sweeps -----------------------------------------------------------

ServedPass
servedPass(const Workload &w, const Daemon &d, unsigned clients,
           Ledger &ledger)
{
    ServedPass out;
    Scope pass(clients > 1 ? "serve.cold" : "serve.warm_pass");
    const int parent = pass.spanId();
    std::vector<nosq::serve::ClientOutcome> outcomes(clients);
    std::vector<std::string> errors(clients);
    std::vector<char> ok(clients, 0);
    std::vector<std::vector<double>> latency(clients);

    const std::uint64_t t0 = nowNs();
    auto client = [&](unsigned c) {
        Scope s("serve.client", parent);
        latency[c].reserve(w.jobs.size());
        const std::uint64_t submit = nowNs();
        auto delivered = [&](std::size_t, std::size_t, std::size_t) {
            latency[c].push_back(
                static_cast<double>(nowNs() - submit) * 1e-6);
        };
        ok[c] = nosq::serve::runSweepOnServer(d.socket(), w.jobs,
                                              outcomes[c], errors[c],
                                              delivered);
    };
    if (clients == 1) {
        client(0);
    } else {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back(client, c);
        for (auto &t : threads)
            t.join();
    }
    out.wallS = secondsBetween(t0, nowNs());

    for (unsigned c = 0; c < clients; ++c) {
        const auto &o = outcomes[c];
        if (!ledger.check(ok[c] != 0, "served sweep: " + errors[c]))
            continue;
        ledger.attempted += o.results.size();
        ledger.failed += o.failures.size();
        for (const std::string &f : o.failures)
            std::fprintf(stderr, "perfbench: FAILED: served job %s\n",
                         f.c_str());
        out.cached += o.cached;
        out.latencyMs.insert(out.latencyMs.end(), latency[c].begin(),
                             latency[c].end());
        Scope s("report.emit", parent);
        out.reports.push_back(reportFor(w, o.results));
    }
    return out;
}

} // namespace perfbench
