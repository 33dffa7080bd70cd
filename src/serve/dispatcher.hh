/**
 * @file
 * nosq_sweepd's single-threaded core: the Unix-domain-socket event
 * loop, the forked worker pool, and the dedup/dispatch state
 * machine.
 *
 * One poll() loop owns everything -- no threads, no locks. Each
 * worker is connected by one socketpair that carries newline-framed
 * jobs down and results up (protocol.hh); the daemon's end is a
 * non-blocking LineChannel like a client connection's. The loop
 * sleeps on the client sockets and every live worker socket, so a
 * finished job is forwarded at once. Each iteration: accept/read
 * clients, parse complete request lines, read worker result frames,
 * reap dead workers (exit + heartbeat timeout) and requeue their
 * in-flight jobs, feed pending jobs to idle workers, flush worker
 * and client output buffers. An idle worker sleeps in read() on its
 * end; closing the daemon's end is its stop signal.
 *
 * Dedup semantics (the daemon's whole point): a submitted job's
 * fingerprint is looked up first in the persistent store (hit:
 * streamed back instantly, `cached`), then in the running-execution
 * table (hit: this client becomes another waiter on the same
 * execution, `shared`); only a miss on both spawns a new execution.
 * Completed executions are persisted before delivery, so a daemon
 * restart serves them from the warm store. The fingerprint is an
 * execution's only key: the pending queue, each worker's in-flight
 * list and the result frames all name it, and an execution carries
 * its own dispatch time and attempt count. A client that hangs up
 * only orphans its waiters; the execution still runs and is stored.
 *
 * Failure model: a worker that exits or is SIGKILLed is detected by
 * waitpid(); one that holds a job without sending a frame for
 * --heartbeat-timeout seconds (wedged inside it) is SIGKILLed. An EOF
 * on a worker socket only stops polling it. Either way its
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

namespace nosq {
namespace serve {

struct DispatcherOptions
{
    std::string socketPath;
    std::string storePath;
    /** Worker processes, clamped to 1..64 (nosq_sweepd defaults it
     * to defaultSweepWorkers()). */
    unsigned workers = 0;
    /** Seconds a worker may hold a job without sending a frame
     * before it is presumed wedged and SIGKILLed. Must exceed the
     * longest single job; raise it for full-length sweeps. */
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
        /** Through the sock.* fault seams. */
        LineChannel link;
        /** Close once the output drains (protocol error). */
        bool closing = false;
    };

    struct Waiter
    {
        int fd = -1;
        std::string ticket;
        std::size_t index = 0;
    };

    /** One deduplicated job execution, keyed by fingerprint: the
     * only name it has on the client stream, in the worker frames
     * and in the store. */
    struct Exec
    {
        SweepJob job;
        std::vector<Waiter> waiters;
        /** When it was last sent to a worker (ms); feeds the job
         * service-time histogram on delivery. */
        std::uint64_t dispatchedAtMs = 0;
        /** Times it was sent to a worker (the status reply's
         * job_attempts and the quarantine cap). */
        std::uint64_t attempts = 0;
    };

    /** A poison job: why it was quarantined, after how many
     * attempts. */
    struct Quarantined
    {
        std::string reason;
        std::uint64_t attempts = 0;
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
        /** The daemon's end of the worker's socketpair, plain
         * read/send; closed on EOF, write error, death or
         * shutdown. */
        LineChannel link;
        /** When the worker last got a job with nothing in flight or
         * last sent a frame; the heartbeat timeout counts from it. */
        std::uint64_t lastFrameAtMs = 0;
        /** Fingerprints of the jobs sent and not yet answered, in
         * dispatch order. */
        std::vector<std::string> inflight;
        bool alive = false;
        /** Killed by the heartbeat timeout (informs the
         * quarantine reason when its jobs hit the attempt cap). */
        bool wedged = false;
    };

    bool spawnWorker(std::size_t slot, std::string &error);
    void acceptClients();
    void readClient(int fd);
    void handleLine(int fd, const std::string &line);
    void handleSubmit(int fd, const Request &request);
    void handleStatus(int fd);
    void handleMetrics(int fd);
    /** The counters plus every sampled field, as both verbs report
     * them. */
    ServerStatus snapshot() const;
    void readWorker(std::size_t slot);
    void handleWorkerFrame(std::size_t slot, const std::string &line);
    void reapWorkers();
    void checkHeartbeats();
    void requeueWorkerJobs(std::size_t slot,
                           const std::string &death_reason);
    void quarantineJob(const std::string &fp, std::uint64_t attempts,
                       const std::string &reason);
    void beginDrain();
    void feedWorkers();
    void deliver(const std::string &fp, const RunResult *run,
                 const std::string &error_message);
    void flushWorkers();
    void flushClients();
    void closeClient(int fd);
    void shutdownWorkers();
    std::uint64_t nowMs() const;

    DispatcherOptions opts;
    /** Held for the daemon's lifetime: one writer per store file. */
    StoreLock store_lock;
    JobStore store;
    int listen_fd = -1;
    std::map<int, Client> clients;
    std::vector<Worker> workers;
    std::unordered_map<std::string, Exec> execs;
    std::deque<std::string> pending;
    std::unordered_map<std::string, Ticket> tickets;
    std::uint64_t ticket_seq = 0;

    /** Poison jobs by fingerprint. std::map keeps the status dump
     * deterministically ordered. */
    std::map<std::string, Quarantined> quarantine;

    bool draining = false;
    std::uint64_t drain_deadline_ms = 0;

    /** The counters of the status reply and the scrape; snapshot()
     * fills in the sampled fields. */
    ServerStatus stats;
    /** The scrape's histograms, observed live. */
    obs::Histogram submit_latency{obs::defaultLatencyBucketsMs()};
    obs::Histogram service_time{obs::defaultLatencyBucketsMs()};
    std::uint64_t start_ms = 0;
};

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_DISPATCHER_HH
