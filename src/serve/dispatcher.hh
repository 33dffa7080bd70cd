/**
 * @file
 * nosq_sweepd's single-threaded core: the Unix-domain-socket event
 * loop, the forked worker pool, and the dedup/dispatch state
 * machine.
 *
 * One poll() loop owns everything -- no threads, no locks beyond
 * the SPSC rings' atomics. Each iteration: accept/read clients,
 * parse complete request lines, drain worker result rings, reap
 * dead workers (exit + heartbeat timeout) and requeue their
 * in-flight jobs, feed pending jobs to idle workers, flush client
 * output buffers. The loop sleeps on the client sockets plus one
 * result wake pipe every worker posts to after pushing a result, so
 * a finished job is forwarded at once; each worker in turn sleeps on
 * its own job wake pipe, which the daemon posts to after each job
 * push (spsc_ring.hh, "wake pipes").
 *
 * Dedup semantics (the daemon's whole point): a submitted job's
 * fingerprint is looked up first in the persistent store (hit:
 * streamed back instantly, `cached`), then in the running-execution
 * table (hit: this client becomes another waiter on the same
 * execution, `shared`); only a miss on both spawns a new execution.
 * Completed executions are persisted before delivery, so a daemon
 * restart serves them from the warm store.
 *
 * Failure model: a worker that exits or is SIGKILLed is detected by
 * waitpid(); one whose heartbeat stops advancing (wedged inside a
 * job) is SIGKILLed after --heartbeat-timeout. Either way its
 * in-flight jobs are requeued at the FRONT of the pending queue
 * (oldest work first) and a replacement worker is forked, so a
 * sweep always completes on the surviving pool.
 */

#ifndef NOSQ_SERVE_DISPATCHER_HH
#define NOSQ_SERVE_DISPATCHER_HH

#include <csignal>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "serve/job_store.hh"
#include "serve/protocol.hh"
#include "serve/spsc_ring.hh"

namespace nosq {
namespace serve {

struct DispatcherOptions
{
    std::string socketPath;
    std::string storePath;
    /** Worker processes, clamped to 1..64 (nosq_sweepd defaults it
     * to defaultSweepWorkers()). */
    unsigned workers = 0;
    /** Seconds without heartbeat progress before a worker is
     * presumed wedged and SIGKILLed. Must exceed the longest single
     * job; raise it for full-length sweeps. */
    unsigned heartbeatTimeoutSec = 300;
    /** A job whose worker dies or wedges this many times is
     * quarantined (delivered as a failure with a reason) instead of
     * crash-looping the pool. 0 disables quarantine. */
    unsigned maxJobAttempts = 3;
    /** Pending-queue bound: a submit that needs fresh executions
     * while the queue holds this many jobs is rejected with
     * `overloaded` (the client backs off and retries). 0 =
     * unbounded. One admitted batch may overshoot the bound; the
     * queue is bounded by maxPending + one submit. */
    std::size_t maxPending = 0;
    /** Graceful-drain budget: seconds after the first stop signal
     * before the daemon gives up waiting for in-flight jobs and
     * forces shutdown (exit code 1). */
    unsigned drainTimeoutSec = 60;
    /**
     * Stop request level, typically bumped by SIGTERM/SIGINT
     * handlers: 0 = serve, 1 = drain (finish in-flight work, refuse
     * new submits with `draining`, compact the store, exit 0), >= 2
     * = shut down now.
     */
    const volatile std::sig_atomic_t *stopFlag = nullptr;
};

class Dispatcher
{
  public:
    explicit Dispatcher(DispatcherOptions options);
    ~Dispatcher();
    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /** Open the store, bind the socket, fork the workers.
     * @return false with @p error set on any failure */
    bool init(std::string &error);

    /** Serve until the stop flag is raised. @return exit code */
    int run();

  private:
    struct Client
    {
        std::string inbuf;
        std::string outbuf;
        /** Close once outbuf drains (protocol error). */
        bool closing = false;
    };

    struct Waiter
    {
        int fd = -1;
        std::string ticket;
        std::size_t index = 0;
    };

    /** One deduplicated job execution, keyed by fingerprint. */
    struct Exec
    {
        SweepJob job;
        std::vector<Waiter> waiters;
        int worker = -1;        ///< index; -1 while pending
        std::uint64_t id = 0;   ///< wire frame id once dispatched
    };

    struct Ticket
    {
        int fd = -1;
        std::size_t jobs = 0;
        std::size_t delivered = 0;
    };

    struct Worker
    {
        pid_t pid = -1;
        WorkerChannel *channel = nullptr;
        /** Write end of the worker's job wake pipe; -1 while no
         * worker runs in this slot. */
        int jobWake = -1;
        std::uint64_t lastBeat = 0;
        std::uint64_t lastBeatAtMs = 0;
        std::vector<std::uint64_t> inflight;
        bool alive = false;
        /** Killed for heartbeat stagnation (informs the
         * quarantine reason when its jobs hit the attempt cap). */
        bool wedged = false;
    };

    bool spawnWorker(std::size_t slot, std::string &error);
    void acceptClients();
    void readClient(int fd);
    void handleLine(int fd, const std::string &line);
    void handleSubmit(int fd, const Request &request);
    void handleStatus(int fd);
    void handleResults(int fd, const Request &request);
    void handleCancel(int fd, const Request &request);
    void handleMetrics(int fd);
    /** The counters plus every sampled field, as both verbs report
     * them. */
    ServerStatus snapshot() const;
    void drainResults();
    void reapWorkers();
    void checkHeartbeats();
    void requeueWorkerJobs(std::size_t slot,
                           const std::string &death_reason);
    void quarantineJob(const std::string &fp,
                       const std::string &reason);
    void beginDrain();
    void feedWorkers();
    void deliver(const std::string &fp, const RunResult *run,
                 const std::string &error_message);
    void flushClients();
    void closeClient(int fd);
    void shutdownWorkers();
    std::uint64_t nowMs() const;

    DispatcherOptions opts;
    /** Held for the daemon's lifetime: one writer per store file. */
    StoreLock store_lock;
    JobStore store;
    int listen_fd = -1;
    /** The result wake pipe: workers write [1], the loop polls [0]. */
    int result_wake[2] = {-1, -1};
    std::map<int, Client> clients;
    std::vector<Worker> workers;
    std::unordered_map<std::string, Exec> execs;
    std::unordered_map<std::uint64_t, std::string> id_to_fp;
    std::deque<std::string> pending;
    std::unordered_map<std::string, Ticket> tickets;
    std::uint64_t ticket_seq = 0;
    std::uint64_t exec_seq = 0;

    /** Dispatch attempts per live execution fingerprint; erased on
     * delivery, kept (for the status reply) on quarantine. */
    std::unordered_map<std::string, std::uint64_t> attempts;
    /** Poison jobs: fingerprint -> why it was quarantined. std::map
     * keeps the status dump deterministically ordered. */
    std::map<std::string, std::string> quarantine;

    bool draining = false;
    std::uint64_t drain_deadline_ms = 0;

    /** The counters of the status reply and the scrape; snapshot()
     * fills in the sampled fields. */
    ServerStatus stats;
    /** Series per serve_stats.hh: the rows' series are set from a
     * snapshot at scrape time, the histograms observe live. */
    obs::MetricsRegistry metrics;
    /** Dispatch timestamp (ms) per in-flight wire frame id; feeds
     * the job service-time histogram on delivery. */
    std::unordered_map<std::uint64_t, std::uint64_t> dispatched_ms;
    std::uint64_t start_ms = 0;
};

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_DISPATCHER_HH
