/**
 * @file
 * nosq_sweepd: the sweep-serving daemon (sweep-as-a-service).
 *
 * Owns a persistent fingerprint -> result store and a pool of
 * forked simulation workers; accepts nosq-serve-v1 requests over a
 * Unix-domain socket (see docs/SERVING.md and serve/protocol.hh),
 * dedupes identical jobs across clients, and streams results back
 * as they complete. `nosq_sim --server=<socket> --sweep=...` is the
 * matching client.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "serve/dispatcher.hh"
#include "serve/fault.hh"
#include "sim/sweep.hh"

namespace {

namespace cli = nosq::cli;

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    // First signal: drain (finish in-flight work, refuse new
    // submits, compact the store, exit 0). Second: stop now.
    if (g_stop < 2)
        g_stop = g_stop + 1;
}

/** Every nosq_sweepd flag, declared once. */
cli::Table
optionTable(nosq::serve::DispatcherOptions &opts, std::string &log_path,
            std::optional<std::string> &fault_plan)
{
    using cli::Arg;
    using cli::number;
    using cli::store;
    // Counts and timeouts share one sanity cap.
    constexpr unsigned max_count = 1u << 20;
    return cli::Table{
        "usage: nosq_sweepd --socket PATH [options]",
        "nosq_sweepd: sweep-serving daemon (nosq-serve-v1). Serves "
        "sweep jobs to nosq_sim --server clients from a persistent "
        "result store, sharding fresh jobs across forked worker "
        "processes and deduplicating identical submissions. Runs in "
        "the foreground. The first SIGTERM/SIGINT drains: in-flight "
        "jobs finish, new submits get 'draining', the store is "
        "compacted, and the daemon exits 0; a second signal stops "
        "immediately. See docs/SERVING.md for the protocol and an "
        "operator guide.",
        {
            {"--socket", Arg::Required, "PATH",
             "Unix-domain socket to listen on (required; keep it "
             "short, the AF_UNIX limit is ~107 bytes)",
             store(opts.socketPath)},
            {"--store", Arg::Required, "FILE",
             "persistent result store (default: nosq_store.jsonl)",
             store(opts.storePath)},
            {"--workers", Arg::Required, "N",
             "worker processes; more than 64 are clamped to 64 "
             "(default: NOSQ_JOBS, else hardware concurrency)",
             number(opts.workers, 1, max_count)},
            {"--heartbeat-timeout", Arg::Required, "SEC",
             "seconds a worker may hold a job without answering "
             "before it is presumed wedged and killed; must exceed "
             "the longest single job (default: 300)",
             number(opts.heartbeatTimeoutSec, 1, max_count)},
            {"--max-job-attempts", Arg::Required, "N",
             "quarantine a job after its worker dies or wedges N "
             "times, instead of crash-looping the pool; 0 disables "
             "(default: 3)",
             number(opts.maxJobAttempts, 0, max_count)},
            {"--max-pending", Arg::Required, "N",
             "reject submits needing fresh executions while N jobs "
             "are already pending ('overloaded', clients back off "
             "and retry); 0 = unbounded (default: 0)",
             number(opts.maxPending, 0, max_count)},
            {"--drain-timeout", Arg::Required, "SEC",
             "on SIGTERM, wait this long for in-flight jobs before "
             "forcing shutdown (default: 60)",
             number(opts.drainTimeoutSec, 1, max_count)},
            {"--fault-plan", Arg::Required, "PLAN",
             "deterministic fault injection for tests, e.g. "
             "'store.write:fail@3,sock.*:eintr%5' (overrides the "
             "NOSQ_FAULT_PLAN env var; see docs/SERVING.md for the "
             "grammar)",
             [&fault_plan](const std::string &v) { fault_plan = v; }},
            {"--log", Arg::Required, "FILE",
             "append diagnostics to FILE instead of stderr",
             store(log_path)},
            {"--help", Arg::Help, nullptr, "this text", {}},
            {"-h", Arg::Help, nullptr, nullptr, {}},
        },
        {},
    };
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Role tag for the NOSQ_LOG_PREFIX attribution prefix; forked
    // workers re-tag themselves in workerMain().
    nosq::setLogRole("daemon");
    nosq::serve::DispatcherOptions opts;
    opts.storePath = "nosq_store.jsonl";
    opts.stopFlag = &g_stop;
    std::string log_path;
    std::optional<std::string> fault_plan;
    const cli::Table table = optionTable(opts, log_path, fault_plan);
    try {
        if (cli::parse(table, argc, argv).help) {
            std::fputs(cli::renderHelp(table).c_str(), stdout);
            return 0;
        }
        if (opts.socketPath.empty())
            throw cli::UsageError("--socket is required");
        if (opts.workers == 0)
            opts.workers = nosq::defaultSweepWorkers();
    } catch (const cli::UsageError &e) {
        std::fprintf(stderr, "nosq_sweepd: %s\n", e.what());
        return 2;
    }

    if (!log_path.empty() &&
        std::freopen(log_path.c_str(), "a", stderr) == nullptr) {
        // stderr may already be clobbered by the failed freopen;
        // stdout is still intact for the complaint.
        std::fprintf(stdout,
                     "nosq_sweepd: cannot open log '%s': %s\n",
                     log_path.c_str(), std::strerror(errno));
        return 2;
    }
    setvbuf(stderr, nullptr, _IONBF, 0);

    std::string fault_error;
    const bool fault_ok =
        fault_plan
            ? nosq::serve::FaultInjector::global().configure(
                  *fault_plan, fault_error)
            : nosq::serve::FaultInjector::global().configureFromEnv(
                  fault_error);
    if (!fault_ok) {
        std::fprintf(stderr, "nosq_sweepd: %s\n",
                     fault_error.c_str());
        return 2;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    nosq::serve::Dispatcher dispatcher(opts);
    std::string error;
    if (!dispatcher.init(error)) {
        std::fprintf(stderr, "nosq_sweepd: %s\n", error.c_str());
        return 1;
    }
    return dispatcher.run();
}
