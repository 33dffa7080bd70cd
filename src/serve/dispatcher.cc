/**
 * @file
 * Dispatcher implementation (see dispatcher.hh).
 */

#include "serve/dispatcher.hh"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/logging.hh"
#include "serve/fault.hh"
#include "serve/worker.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

namespace nosq {
namespace serve {

namespace {

/** Per-worker dispatch depth: one running + one queued keeps a
 * worker busy across the socket round trip without hoarding jobs a
 * surviving worker could be running. */
constexpr std::size_t max_inflight_per_worker = 2;

void
logLine(const char *format, ...)
{
    va_list args;
    va_start(args, format);
    const std::string attribution = logPrefix();
    if (!attribution.empty())
        std::fputs(attribution.c_str(), stderr);
    std::fputs("sweepd: ", stderr);
    std::vfprintf(stderr, format, args);
    std::fputc('\n', stderr);
    std::fflush(stderr);
    va_end(args);
}

/** Monotonic clock with sub-ms resolution for latency histograms. */
double
nowMsF()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) * 1000.0 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

} // anonymous namespace

Dispatcher::Dispatcher(DispatcherOptions options)
    : opts(std::move(options))
{
    opts.workers = std::max(1u, std::min(opts.workers, 64u));
}

Dispatcher::~Dispatcher()
{
    shutdownWorkers();
    if (listen_fd >= 0) {
        close(listen_fd);
        unlink(opts.socketPath.c_str());
    }
}

std::uint64_t
Dispatcher::nowMs() const
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000u +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000000u;
}

bool
Dispatcher::init(std::string &error)
{
    signal(SIGPIPE, SIG_IGN);

    if (!store_lock.acquire(opts.storePath, error) ||
        !store.open(opts.storePath, error))
        return false;
    for (const std::string &warning : store.warnings())
        logLine("%s", warning.c_str());
    logLine("store '%s': %zu cached result(s)",
            store.path().c_str(), store.size());
    start_ms = nowMs();

    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (opts.socketPath.size() >= sizeof(addr.sun_path)) {
        error = "socket path '" + opts.socketPath +
                "' exceeds the AF_UNIX limit (" +
                std::to_string(sizeof(addr.sun_path) - 1) +
                " bytes); use a shorter path";
        return false;
    }
    std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    // Refuse to steal a live daemon's socket: only an unconnectable
    // (stale) socket file is swept aside.
    const int probe = socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        if (connect(probe,
                    reinterpret_cast<struct sockaddr *>(&addr),
                    sizeof(addr)) == 0) {
            close(probe);
            error = "another daemon is already serving on '" +
                    opts.socketPath + "'";
            return false;
        }
        close(probe);
    }
    unlink(opts.socketPath.c_str());

    listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0 ||
        bind(listen_fd, reinterpret_cast<struct sockaddr *>(&addr),
             sizeof(addr)) != 0 ||
        listen(listen_fd, 16) != 0) {
        error = "cannot listen on '" + opts.socketPath +
                "': " + std::strerror(errno);
        return false;
    }
    fcntl(listen_fd, F_SETFL, O_NONBLOCK);

    if (FaultInjector::global().enabled()) {
        logLine("fault plan active: %s",
                FaultInjector::global().plan().c_str());
    }

    workers.resize(opts.workers);
    for (std::size_t i = 0; i < workers.size(); ++i) {
        if (!spawnWorker(i, error))
            return false;
    }
    logLine("serving on '%s' with %zu worker(s)",
            opts.socketPath.c_str(), workers.size());
    return true;
}

bool
Dispatcher::spawnWorker(std::size_t slot, std::string &error)
{
    Worker &worker = workers[slot];
    int ends[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, ends) != 0) {
        error = "cannot open a worker socketpair: " +
                std::string(std::strerror(errno));
        return false;
    }
    const pid_t daemon_pid = getpid();
    const pid_t pid = faultFork();
    if (pid < 0) {
        error = "fork failed: " + std::string(std::strerror(errno));
        close(ends[0]);
        close(ends[1]);
        return false;
    }
    if (pid == 0) {
        // Worker process: it keeps only its own end of its
        // socketpair. The listening socket, the client fds, every
        // daemon end (a sibling's copy would hide that worker's EOF),
        // the store and its lock belong to the parent -- an orphaned
        // worker must never hold the store's lock.
        if (listen_fd >= 0)
            close(listen_fd);
        for (const auto &[fd, client] : clients) {
            (void)client;
            close(fd);
        }
        for (const Worker &other : workers) {
            if (other.link.open())
                close(other.link.fd());
        }
        close(ends[0]);
        if (store.descriptor() >= 0)
            close(store.descriptor());
        if (store_lock.descriptor() >= 0)
            close(store_lock.descriptor());
#ifdef __linux__
        // Die with the daemon. An idle worker sees EOF when the
        // daemon dies, but one inside a job (a wedge-injected one
        // never reads again) would otherwise run on, holding every
        // inherited fd open.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != daemon_pid)
            _exit(0); // the daemon died before prctl() armed
#endif
        _exit(workerMain(ends[1]));
    }
    close(ends[1]);
    fcntl(ends[0], F_SETFL, O_NONBLOCK);
    // Fresh buffers: a torn frame of the previous worker and the
    // jobs it never read (requeued already) go with the old link.
    worker.link = LineChannel(ends[0], read, send);
    worker.pid = pid;
    worker.alive = true;
    worker.wedged = false;
    worker.inflight.clear();
    logLine("worker %zu started (pid %d)", slot,
            static_cast<int>(pid));
    return true;
}

int
Dispatcher::run()
{
    bool drained_clean = true;
    for (;;) {
        const std::sig_atomic_t stop =
            opts.stopFlag != nullptr ? *opts.stopFlag : 0;
        if (stop >= 2) {
            // Second signal: the operator means it. Skip the drain.
            logLine("immediate stop requested; %zu execution(s) "
                    "abandoned",
                    execs.size());
            drained_clean = execs.empty();
            break;
        }
        if (stop >= 1 && !draining)
            beginDrain();
        if (draining) {
            bool flushed = true;
            for (const auto &[fd, client] : clients) {
                (void)fd;
                if (client.link.hasOutput())
                    flushed = false;
            }
            if (execs.empty() && flushed) {
                logLine("drain complete: all work delivered");
                break;
            }
            if (nowMs() > drain_deadline_ms) {
                logLine("drain timed out after %us; forcing "
                        "shutdown with %zu execution(s) in flight",
                        opts.drainTimeoutSec, execs.size());
                drained_clean = false;
                break;
            }
        }

        // The listening socket, then one entry per open worker
        // socket (slots[i] is its worker), then the clients.
        std::vector<struct pollfd> fds;
        std::vector<std::size_t> slots;
        fds.push_back({listen_fd, POLLIN, 0});
        for (std::size_t slot = 0; slot < workers.size(); ++slot) {
            const Worker &worker = workers[slot];
            if (!worker.link.open())
                continue;
            short events = POLLIN;
            if (worker.link.hasOutput())
                events |= POLLOUT;
            fds.push_back({worker.link.fd(), events, 0});
            slots.push_back(slot);
        }
        for (const auto &[fd, client] : clients) {
            short events = POLLIN;
            if (client.link.hasOutput())
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
        }
        // Result frames wake the loop on their worker's socket; the
        // 20ms timeout only paces heartbeat checks, reaping and the
        // drain deadline, which nothing signals.
        poll(fds.data(), fds.size(), 20);

        if (fds[0].revents & POLLIN)
            acceptClients();
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (fds[1 + i].revents & (POLLIN | POLLERR | POLLHUP))
                readWorker(slots[i]);
        }
        for (std::size_t i = 1 + slots.size(); i < fds.size(); ++i) {
            if (fds[i].revents &
                (POLLIN | POLLERR | POLLHUP))
                readClient(fds[i].fd);
        }

        reapWorkers();
        checkHeartbeats();
        feedWorkers();
        flushWorkers();
        flushClients();
    }
    shutdownWorkers();
    if (drained_clean) {
        // Heal any append failures and leave a compacted store
        // behind; a clean exit means "everything completed is on
        // disk".
        std::string error;
        if (!store.compact(error))
            logLine("final store compaction failed: %s",
                    error.c_str());
        logLine("clean shutdown (store: %zu result(s))",
                store.size());
        return 0;
    }
    logLine("forced shutdown");
    return 1;
}

void
Dispatcher::beginDrain()
{
    draining = true;
    drain_deadline_ms =
        nowMs() +
        static_cast<std::uint64_t>(opts.drainTimeoutSec) * 1000u;
    logLine("drain requested: refusing new submits, waiting for "
            "%zu execution(s) (timeout %us)",
            execs.size(), opts.drainTimeoutSec);
}

void
Dispatcher::acceptClients()
{
    for (;;) {
        const int fd = accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            return;
        fcntl(fd, F_SETFL, O_NONBLOCK);
        clients.emplace(fd, Client{LineChannel(fd, faultRead, faultSend)});
    }
}

void
Dispatcher::readClient(int fd)
{
    auto it = clients.find(fd);
    if (it == clients.end())
        return;
    Client &client = it->second;
    for (;;) {
        const LineChannel::Io io = client.link.fill();
        if (io == LineChannel::Io::Again)
            break;
        if (io != LineChannel::Io::Done) {
            closeClient(fd);
            return;
        }
    }

    std::string line;
    while (client.link.nextLine(line))
        handleLine(fd, line);
    if (client.link.partialBytes() > max_request_bytes) {
        // Mid-line resync is not reliable; answer and hang up.
        client.link.queue(errorReplyLine(
            "request line exceeds " +
            std::to_string(max_request_bytes) + " bytes"));
        client.closing = true;
        client.link.discardInput();
    }
}

void
Dispatcher::handleLine(int fd, const std::string &line)
{
    Request request;
    std::string error;
    if (!parseRequestLine(line, request, error)) {
        clients[fd].link.queue(errorReplyLine(error));
        return;
    }
    switch (request.op) {
      case Request::Op::Submit: {
        const double t0 = nowMsF();
        handleSubmit(fd, request);
        submit_latency.observe(nowMsF() - t0);
        break;
      }
      case Request::Op::Status:
        handleStatus(fd);
        break;
      case Request::Op::Metrics:
        handleMetrics(fd);
        break;
    }
}

void
Dispatcher::handleSubmit(int fd, const Request &request)
{
    if (draining) {
        clients[fd].link.queue(errorReplyLine(
            "draining: the daemon is shutting down; retry against "
            "its replacement"));
        return;
    }

    // Admission control: fingerprint first, so a submit every job
    // of which is already cached, quarantined, or running is always
    // served -- only one that needs FRESH executions can be shed.
    std::vector<std::string> fps;
    fps.reserve(request.jobs.size());
    std::size_t fresh = 0;
    for (const SweepJob &job : request.jobs) {
        fps.push_back(jobFingerprint(job));
        const std::string &fp = fps.back();
        if (!store.has(fp) && execs.find(fp) == execs.end() &&
            quarantine.find(fp) == quarantine.end())
            ++fresh;
    }
    if (opts.maxPending > 0 && fresh > 0 &&
        pending.size() >= opts.maxPending) {
        ++stats.overloaded;
        logLine("submit shed: %zu pending >= --max-pending %zu",
                pending.size(), opts.maxPending);
        clients[fd].link.queue(errorReplyLine(
            "overloaded: " + std::to_string(pending.size()) +
            " job(s) already pending; back off and retry"));
        return;
    }

    ++stats.submits;
    const std::string ticket =
        "t" + std::to_string(++ticket_seq);
    Ticket &t = tickets[ticket];
    t.fd = fd;
    t.jobs = request.jobs.size();

    std::size_t cached = 0, shared = 0;
    std::string streamed;
    for (std::size_t i = 0; i < request.jobs.size(); ++i) {
        const SweepJob &job = request.jobs[i];
        const std::string &fp = fps[i];
        if (store.has(fp)) {
            streamed += jobResultLine(i, fp, store.get(fp));
            ++t.delivered;
            ++cached;
            ++stats.cache_hits;
            continue;
        }
        if (auto qit = quarantine.find(fp);
            qit != quarantine.end()) {
            // A poison job fails fast instead of re-wedging the
            // pool; the client sees an ordinary per-job error row.
            streamed += jobErrorLine(i, fp, qit->second.reason);
            ++t.delivered;
            continue;
        }
        auto it = execs.find(fp);
        if (it != execs.end()) {
            it->second.waiters.push_back(Waiter{fd, ticket, i});
            ++shared;
            ++stats.dedup_shared;
            continue;
        }
        Exec exec;
        exec.job = job;
        exec.waiters.push_back(Waiter{fd, ticket, i});
        execs.emplace(fp, std::move(exec));
        pending.push_back(fp);
    }

    Client &client = clients[fd];
    client.link.queue(
        submitAckLine(ticket, request.jobs.size(), cached, shared));
    client.link.queue(streamed);
    if (t.delivered == t.jobs) {
        client.link.queue(doneLine(ticket, t.jobs));
        tickets.erase(ticket);
    }
    logLine("%s: %zu job(s), %zu cached, %zu shared, %zu queued",
            ticket.c_str(), request.jobs.size(), cached, shared,
            request.jobs.size() - cached - shared);
}

ServerStatus
Dispatcher::snapshot() const
{
    ServerStatus status = stats;
    status.workers = workers.size();
    for (const Worker &worker : workers) {
        status.alive += worker.alive ? 1 : 0;
        status.busy += worker.alive && !worker.inflight.empty() ? 1 : 0;
    }
    status.store_size = store.size();
    status.store_append_failures = store.appendFailures();
    status.pending = pending.size();
    status.running = execs.size() - pending.size();
    status.max_pending = opts.maxPending;
    status.uptime_ms = nowMs() - start_ms;
    status.draining = draining;
    // Dispatched live executions and quarantined jobs, in
    // fingerprint order (execs is an unordered_map).
    std::map<std::string, std::uint64_t> attempts;
    for (const auto &[fp, exec] : execs) {
        if (exec.attempts > 0)
            attempts.emplace(fp, exec.attempts);
    }
    for (const auto &[fp, q] : quarantine) {
        attempts.emplace(fp, q.attempts);
        status.quarantine.emplace_back(fp, q.reason);
    }
    status.job_attempts.assign(attempts.begin(), attempts.end());
    status.faults_json = FaultInjector::global().statusJson();
    return status;
}

void
Dispatcher::handleStatus(int fd)
{
    clients[fd].link.queue(statusReplyLine(snapshot()));
}

void
Dispatcher::handleMetrics(int fd)
{
    ++stats.scrapes;
    // The fault families read the same per-site counters the status
    // verb dumps as JSON.
    clients[fd].link.queue(metricsReplyLine(
        metricsExposition(snapshot(), FaultInjector::global(),
                          submit_latency, service_time)));
}

void
Dispatcher::readWorker(std::size_t slot)
{
    LineChannel &link = workers[slot].link;
    while (link.open()) {
        const LineChannel::Io io = link.fill();
        if (io == LineChannel::Io::Again)
            break;
        // EOF or error: the worker is gone or going. Stop polling;
        // waitpid() alone reports the death and requeues its jobs.
        if (io != LineChannel::Io::Done)
            link.close();
    }
    std::string line;
    while (link.nextLine(line))
        handleWorkerFrame(slot, line);
}

void
Dispatcher::handleWorkerFrame(std::size_t slot, const std::string &line)
{
    Worker &worker = workers[slot];
    JobResult result;
    std::string error;
    if (!parseJobResultLine(line, result, error)) {
        logLine("worker %zu: unparseable result frame (%s); dropped",
                slot, error.c_str());
        return;
    }
    worker.lastFrameAtMs = nowMs();
    const std::string &fp = result.fp;
    const auto held =
        std::find(worker.inflight.begin(), worker.inflight.end(), fp);
    if (held == worker.inflight.end()) {
        logLine("worker %zu: result for job %s it was not sent; "
                "dropped",
                slot, fp.c_str());
        return;
    }
    worker.inflight.erase(held);
    service_time.observe(
        static_cast<double>(nowMs() - execs.at(fp).dispatchedAtMs));
    ++stats.executed;
    if (result.error.empty()) {
        store.put(fp, result.run);
        deliver(fp, &result.run, "");
    } else {
        ++stats.failed;
        deliver(fp, nullptr, result.error);
    }
}

void
Dispatcher::deliver(const std::string &fp, const RunResult *run,
                    const std::string &error_message)
{
    auto it = execs.find(fp);
    if (it == execs.end())
        return;
    for (const Waiter &waiter : it->second.waiters) {
        auto cit = clients.find(waiter.fd);
        auto tit = tickets.find(waiter.ticket);
        if (cit == clients.end() || tit == tickets.end())
            continue; // client hung up before completion
        LineChannel &link = cit->second.link;
        if (run != nullptr)
            link.queue(jobResultLine(waiter.index, fp, *run));
        else
            link.queue(jobErrorLine(waiter.index, fp, error_message));
        Ticket &ticket = tit->second;
        if (++ticket.delivered == ticket.jobs) {
            link.queue(doneLine(waiter.ticket, ticket.jobs));
            tickets.erase(tit);
        }
    }
    execs.erase(it);
}

void
Dispatcher::reapWorkers()
{
    for (;;) {
        int status = 0;
        const pid_t pid = waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            return;
        for (std::size_t slot = 0; slot < workers.size(); ++slot) {
            Worker &worker = workers[slot];
            if (worker.pid != pid || !worker.alive)
                continue;
            worker.alive = false;
            ++stats.worker_deaths;
            std::string death_reason;
            if (worker.wedged)
                death_reason = "worker wedged (no heartbeat for " +
                               std::to_string(
                                   opts.heartbeatTimeoutSec) +
                               "s)";
            else if (WIFSIGNALED(status))
                death_reason =
                    "worker killed by signal " +
                    std::to_string(WTERMSIG(status));
            else
                death_reason =
                    "worker exited with status " +
                    std::to_string(WEXITSTATUS(status));
            logLine("worker %zu (pid %d): %s", slot,
                    static_cast<int>(pid), death_reason.c_str());
            // Every frame the worker finished before it died is
            // still in the socket: take those results, then requeue
            // the rest.
            readWorker(slot);
            requeueWorkerJobs(slot, death_reason);
            worker.link.close();
            worker.pid = -1;
            std::string error;
            if (!spawnWorker(slot, error))
                logLine("respawn failed: %s (continuing with a "
                        "smaller pool)",
                        error.c_str());
            break;
        }
    }
}

void
Dispatcher::requeueWorkerJobs(std::size_t slot,
                              const std::string &death_reason)
{
    Worker &worker = workers[slot];
    // Oldest work first: requeued jobs jump the queue so a retried
    // sweep is not starved behind newly submitted ones.
    for (auto it = worker.inflight.rbegin();
         it != worker.inflight.rend(); ++it) {
        const std::string &fp = *it;
        const std::uint64_t tried = execs.at(fp).attempts;
        if (opts.maxJobAttempts > 0 &&
            tried >= opts.maxJobAttempts) {
            quarantineJob(fp, tried,
                          "quarantined after " +
                              std::to_string(tried) +
                              " attempt(s): " + death_reason);
            continue;
        }
        pending.push_front(fp);
        ++stats.requeued;
        logLine("requeued job %s (attempt %llu of %u)", fp.c_str(),
                static_cast<unsigned long long>(tried),
                opts.maxJobAttempts);
    }
    worker.inflight.clear();
}

void
Dispatcher::quarantineJob(const std::string &fp, std::uint64_t attempts,
                          const std::string &reason)
{
    ++stats.failed;
    ++stats.quarantined;
    quarantine[fp] = Quarantined{reason, attempts};
    logLine("job %s %s", fp.c_str(), reason.c_str());
    // Delivered as a per-job error row, exactly like a job whose
    // simulation threw: every attached waiter unblocks, nothing is
    // stored, and later submits of this fingerprint fail fast.
    deliver(fp, nullptr, reason);
}

void
Dispatcher::checkHeartbeats()
{
    // A worker answers between jobs only, so a worker holding work
    // that has sent no frame for the timeout is stuck inside a job.
    const std::uint64_t now = nowMs();
    const std::uint64_t limit =
        static_cast<std::uint64_t>(opts.heartbeatTimeoutSec) *
        1000u;
    for (std::size_t slot = 0; slot < workers.size(); ++slot) {
        Worker &worker = workers[slot];
        if (!worker.alive || worker.wedged || worker.inflight.empty() ||
            now - worker.lastFrameAtMs <= limit)
            continue;
        logLine("worker %zu (pid %d): no frame for %us while holding "
                "a job; killing",
                slot, static_cast<int>(worker.pid),
                opts.heartbeatTimeoutSec);
        worker.wedged = true;
        kill(worker.pid, SIGKILL);
        // reapWorkers() requeues its jobs and respawns.
    }
}

void
Dispatcher::feedWorkers()
{
    if (pending.empty())
        return;
    for (std::size_t slot = 0;
         slot < workers.size() && !pending.empty(); ++slot) {
        Worker &worker = workers[slot];
        if (!worker.alive || !worker.link.open())
            continue;
        while (!pending.empty() &&
               worker.inflight.size() < max_inflight_per_worker) {
            Exec &exec = execs.at(pending.front());
            const std::uint64_t now = nowMs();
            if (worker.inflight.empty())
                worker.lastFrameAtMs = now;
            worker.link.queue(workerJobLine(
                exec.job,
                FaultInjector::global().check(FaultSite::WorkerJob)));
            exec.dispatchedAtMs = now;
            ++exec.attempts;
            worker.inflight.push_back(std::move(pending.front()));
            pending.pop_front();
        }
    }
}

void
Dispatcher::flushWorkers()
{
    for (Worker &worker : workers) {
        if (worker.link.open() &&
            worker.link.flush() == LineChannel::Io::Error)
            worker.link.close(); // gone; waitpid() reports it
    }
}

void
Dispatcher::flushClients()
{
    std::vector<int> to_close;
    for (auto &[fd, client] : clients) {
        if (client.link.flush() == LineChannel::Io::Error ||
            (client.closing && !client.link.hasOutput()))
            to_close.push_back(fd);
    }
    for (int fd : to_close)
        closeClient(fd);
}

void
Dispatcher::closeClient(int fd)
{
    clients.erase(fd);
    // Orphan this client's tickets; running executions continue
    // (their results still warm the store).
    for (auto it = tickets.begin(); it != tickets.end();) {
        if (it->second.fd == fd)
            it = tickets.erase(it);
        else
            ++it;
    }
}

void
Dispatcher::shutdownWorkers()
{
    // EOF on its socket is a worker's stop signal.
    for (Worker &worker : workers)
        worker.link.close();
    for (Worker &worker : workers) {
        if (!worker.alive)
            continue;
        // Give the worker one beat to exit cleanly, then insist.
        int status = 0;
        for (int i = 0; i < 50; ++i) {
            if (waitpid(worker.pid, &status, WNOHANG) == worker.pid) {
                worker.alive = false;
                break;
            }
            struct timespec ts = {0, 10000000L}; // 10ms
            nanosleep(&ts, nullptr);
        }
        if (worker.alive) {
            kill(worker.pid, SIGKILL);
            waitpid(worker.pid, &status, 0);
            worker.alive = false;
        }
    }
    workers.clear();
}

} // namespace serve
} // namespace nosq
