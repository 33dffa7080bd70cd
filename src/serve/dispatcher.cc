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
 * worker busy across the ring round trip without hoarding jobs a
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
    for (auto &[fd, client] : clients) {
        (void)client;
        close(fd);
    }
    for (int fd : result_wake) {
        if (fd >= 0)
            close(fd);
    }
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

    // Register every series up front, in exposition order, so the
    // very first scrape already carries each documented one (at
    // zero). Fault counters are per-site labelled children and
    // register at scrape time, only while a plan is active.
    start_ms = nowMs();
    setServeMetrics(metrics, ServerStatus{});
    metrics.histogram(submit_latency_metric.name,
                      submit_latency_metric.help);
    metrics.histogram(service_time_metric.name, service_time_metric.help);

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

    // Workers must inherit the shared fault counters, so hits
    // registered inside a worker (worker.job, worker.beat) are
    // visible in this process's status reply.
    if (FaultInjector::global().enabled()) {
        FaultInjector::global().shareCounters();
        logLine("fault plan active: %s",
                FaultInjector::global().plan().c_str());
    }

    if (!openWakePipe(result_wake)) {
        error = "cannot open the result wake pipe: " +
                std::string(std::strerror(errno));
        return false;
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
    worker.channel = mapWorkerChannel();
    if (worker.channel == nullptr) {
        error = "cannot map worker shared memory: " +
                std::string(std::strerror(errno));
        return false;
    }
    int job_wake[2];
    if (!openWakePipe(job_wake)) {
        error = "cannot open a job wake pipe: " +
                std::string(std::strerror(errno));
        unmapWorkerChannel(worker.channel);
        worker.channel = nullptr;
        return false;
    }
    const pid_t daemon_pid = getpid();
    const pid_t pid = faultFork();
    if (pid < 0) {
        error = "fork failed: " + std::string(std::strerror(errno));
        close(job_wake[0]);
        close(job_wake[1]);
        unmapWorkerChannel(worker.channel);
        worker.channel = nullptr;
        return false;
    }
    if (pid == 0) {
        // Worker process: it keeps only its own job wake read end
        // and the result wake write end. The listening socket, the
        // client fds, every job wake write end, the result wake read
        // end, the store and its lock belong to the parent -- an
        // orphaned worker must never hold the store's lock.
        if (listen_fd >= 0)
            close(listen_fd);
        for (const auto &[fd, client] : clients) {
            (void)client;
            close(fd);
        }
        for (const Worker &other : workers) {
            if (other.jobWake >= 0)
                close(other.jobWake);
        }
        close(job_wake[1]);
        close(result_wake[0]);
        if (store.descriptor() >= 0)
            close(store.descriptor());
        if (store_lock.descriptor() >= 0)
            close(store_lock.descriptor());
#ifdef __linux__
        // Die with the daemon. Workers poll shared memory, so a
        // SIGKILLed daemon would otherwise leave them spinning
        // forever (a wedge-injected worker ignores even the stop
        // flag) while holding every inherited fd open.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != daemon_pid)
            _exit(0); // the daemon died before prctl() armed
#endif
        _exit(workerMain(workers[slot].channel, job_wake[0],
                         result_wake[1]));
    }
    close(job_wake[0]);
    worker.jobWake = job_wake[1];
    worker.pid = pid;
    worker.alive = true;
    worker.wedged = false;
    worker.lastBeat = 0;
    worker.lastBeatAtMs = nowMs();
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
                if (!client.outbuf.empty())
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

        std::vector<struct pollfd> fds;
        fds.push_back({listen_fd, POLLIN, 0});
        fds.push_back({result_wake[0], POLLIN, 0});
        for (const auto &[fd, client] : clients) {
            short events = POLLIN;
            if (!client.outbuf.empty())
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
        }
        // Results wake the loop through result_wake; the 20ms
        // timeout only paces heartbeat checks, reaping and the drain
        // deadline, which nothing signals.
        poll(fds.data(), fds.size(), 20);

        if (fds[0].revents & POLLIN)
            acceptClients();
        // Before drainResults(): a result pushed after this drain
        // leaves its wake pending for the next poll().
        if (fds[1].revents & POLLIN)
            drainWakes(result_wake[0]);
        for (std::size_t i = 2; i < fds.size(); ++i) {
            if (fds[i].revents &
                (POLLIN | POLLERR | POLLHUP))
                readClient(fds[i].fd);
        }

        drainResults();
        reapWorkers();
        checkHeartbeats();
        feedWorkers();
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
        clients.emplace(fd, Client());
    }
}

void
Dispatcher::readClient(int fd)
{
    auto it = clients.find(fd);
    if (it == clients.end())
        return;
    Client &client = it->second;

    char buffer[1 << 16];
    for (;;) {
        const ssize_t got = faultRead(fd, buffer, sizeof(buffer));
        if (got > 0) {
            client.inbuf.append(buffer,
                                static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0) {
            closeClient(fd);
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeClient(fd);
        return;
    }

    if (client.inbuf.size() > max_request_bytes &&
        client.inbuf.find('\n') == std::string::npos) {
        // Mid-line resync is not reliable; answer and hang up.
        client.outbuf += errorReplyLine(
            "request line exceeds " +
            std::to_string(max_request_bytes) + " bytes");
        client.closing = true;
        client.inbuf.clear();
        return;
    }

    std::size_t pos = 0;
    for (;;) {
        const std::size_t nl = client.inbuf.find('\n', pos);
        if (nl == std::string::npos)
            break;
        const std::string line =
            client.inbuf.substr(pos, nl - pos);
        pos = nl + 1;
        handleLine(fd, line);
        if (clients.find(fd) == clients.end())
            return; // handler closed the connection
    }
    client.inbuf.erase(0, pos);
}

void
Dispatcher::handleLine(int fd, const std::string &line)
{
    Request request;
    std::string error;
    if (!parseRequestLine(line, request, error)) {
        clients[fd].outbuf += errorReplyLine(error);
        return;
    }
    switch (request.op) {
      case Request::Op::Submit: {
        const double t0 = nowMsF();
        handleSubmit(fd, request);
        metrics
            .histogram(submit_latency_metric.name,
                       submit_latency_metric.help)
            .observe(nowMsF() - t0);
        break;
      }
      case Request::Op::Status:
        handleStatus(fd);
        break;
      case Request::Op::Results:
        handleResults(fd, request);
        break;
      case Request::Op::Cancel:
        handleCancel(fd, request);
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
        clients[fd].outbuf += errorReplyLine(
            "draining: the daemon is shutting down; retry against "
            "its replacement");
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
        clients[fd].outbuf += errorReplyLine(
            "overloaded: " + std::to_string(pending.size()) +
            " job(s) already pending; back off and retry");
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
            streamed += jobErrorLine(i, fp, qit->second);
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
    client.outbuf += submitAckLine(ticket, request.jobs.size(),
                                   cached, shared);
    client.outbuf += streamed;
    if (t.delivered == t.jobs) {
        client.outbuf += doneLine(ticket, t.jobs);
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
    // Deterministic dump order (attempts is an unordered_map).
    std::map<std::string, std::uint64_t> ordered(attempts.begin(),
                                                 attempts.end());
    status.job_attempts.assign(ordered.begin(), ordered.end());
    status.quarantine.assign(quarantine.begin(), quarantine.end());
    status.faults_json = FaultInjector::global().statusJson();
    return status;
}

void
Dispatcher::handleStatus(int fd)
{
    clients[fd].outbuf += statusReplyLine(snapshot());
}

void
Dispatcher::handleMetrics(int fd)
{
    ++stats.scrapes;
    setServeMetrics(metrics, snapshot());

    // One labelled child per planned fault site, mirroring the
    // shared-memory hit/fired totals the status verb dumps as JSON.
    const FaultInjector &faults = FaultInjector::global();
    if (faults.enabled()) {
        for (std::size_t i = 0; i < fault_site_count; ++i) {
            const FaultSite site = static_cast<FaultSite>(i);
            if (!faults.planned(site))
                continue;
            const obs::MetricLabels labels = {
                {"site", faultSiteName(site)}};
            metrics
                .counter(fault_hits_metric.name, fault_hits_metric.help,
                         labels)
                .set(faults.hits(site));
            metrics
                .counter(fault_fired_metric.name,
                         fault_fired_metric.help, labels)
                .set(faults.fired(site));
        }
    }

    clients[fd].outbuf += metricsReplyLine(metrics.expose());
}

void
Dispatcher::handleResults(int fd, const Request &request)
{
    if (!store.has(request.fp)) {
        clients[fd].outbuf += errorReplyLine(
            "no stored result for fingerprint '" + request.fp +
            "'");
        return;
    }
    clients[fd].outbuf +=
        jobResultLine(0, request.fp, store.get(request.fp));
}

void
Dispatcher::handleCancel(int fd, const Request &request)
{
    auto it = tickets.find(request.ticket);
    if (it == tickets.end() || it->second.fd != fd) {
        clients[fd].outbuf += errorReplyLine(
            "unknown ticket '" + request.ticket + "'");
        return;
    }
    // Drop the ticket's waiters; executions keep running (their
    // results still warm the store, and other waiters may exist).
    for (auto &[fp, exec] : execs) {
        (void)fp;
        exec.waiters.erase(
            std::remove_if(exec.waiters.begin(),
                           exec.waiters.end(),
                           [&](const Waiter &w) {
                               return w.ticket == request.ticket;
                           }),
            exec.waiters.end());
    }
    tickets.erase(it);
    clients[fd].outbuf += "{\"ok\":true,\"ticket\":\"" +
                          jsonEscape(request.ticket) +
                          "\",\"cancelled\":true}\n";
}

void
Dispatcher::drainResults()
{
    std::string line;
    for (std::size_t slot = 0; slot < workers.size(); ++slot) {
        Worker &worker = workers[slot];
        if (worker.channel == nullptr)
            continue;
        while (worker.channel->results.tryPop(line)) {
            WorkerResult result;
            std::string error;
            if (!parseWorkerResultLine(line, result, error)) {
                logLine("worker %zu: unparseable result frame "
                        "(%s); dropped",
                        slot, error.c_str());
                continue;
            }
            worker.inflight.erase(
                std::remove(worker.inflight.begin(),
                            worker.inflight.end(), result.id),
                worker.inflight.end());
            const auto idit = id_to_fp.find(result.id);
            if (idit == id_to_fp.end())
                continue; // already requeued and completed elsewhere
            const std::string fp = idit->second;
            id_to_fp.erase(idit);
            if (auto dit = dispatched_ms.find(result.id);
                dit != dispatched_ms.end()) {
                metrics
                    .histogram(service_time_metric.name,
                               service_time_metric.help)
                    .observe(static_cast<double>(
                        nowMs() - dit->second));
                dispatched_ms.erase(dit);
            }
            ++stats.executed;
            attempts.erase(fp); // completed; no longer a suspect
            if (result.error.empty()) {
                store.put(fp, result.run);
                deliver(fp, &result.run, "");
            } else {
                ++stats.failed;
                deliver(fp, nullptr, result.error);
            }
        }
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
        if (run != nullptr)
            cit->second.outbuf +=
                jobResultLine(waiter.index, fp, *run);
        else
            cit->second.outbuf += jobErrorLine(
                waiter.index, fp, error_message);
        Ticket &ticket = tit->second;
        if (++ticket.delivered == ticket.jobs) {
            cit->second.outbuf +=
                doneLine(waiter.ticket, ticket.jobs);
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
            requeueWorkerJobs(slot, death_reason);
            unmapWorkerChannel(worker.channel);
            worker.channel = nullptr;
            close(worker.jobWake);
            worker.jobWake = -1;
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
        // A requeued attempt never lands in the service-time
        // histogram; only delivered results do.
        dispatched_ms.erase(*it);
        const auto idit = id_to_fp.find(*it);
        if (idit == id_to_fp.end())
            continue;
        const std::string fp = idit->second;
        id_to_fp.erase(idit);
        auto eit = execs.find(fp);
        if (eit == execs.end())
            continue;
        eit->second.worker = -1;
        eit->second.id = 0;
        const std::uint64_t tried = attempts[fp];
        if (opts.maxJobAttempts > 0 &&
            tried >= opts.maxJobAttempts) {
            quarantineJob(fp,
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
Dispatcher::quarantineJob(const std::string &fp,
                          const std::string &reason)
{
    ++stats.failed;
    ++stats.quarantined;
    quarantine[fp] = reason;
    logLine("job %s %s", fp.c_str(), reason.c_str());
    // Delivered as a per-job error row, exactly like a job whose
    // simulation threw: every attached waiter unblocks, nothing is
    // stored, and later submits of this fingerprint fail fast.
    deliver(fp, nullptr, reason);
}

void
Dispatcher::checkHeartbeats()
{
    const std::uint64_t now = nowMs();
    const std::uint64_t limit =
        static_cast<std::uint64_t>(opts.heartbeatTimeoutSec) *
        1000u;
    for (std::size_t slot = 0; slot < workers.size(); ++slot) {
        Worker &worker = workers[slot];
        if (!worker.alive || worker.channel == nullptr)
            continue;
        const std::uint64_t beat =
            worker.channel->heartbeat.load(
                std::memory_order_relaxed);
        if (beat != worker.lastBeat) {
            worker.lastBeat = beat;
            worker.lastBeatAtMs = now;
            continue;
        }
        if (now - worker.lastBeatAtMs > limit) {
            logLine("worker %zu (pid %d): no heartbeat for %us; "
                    "killing",
                    slot, static_cast<int>(worker.pid),
                    opts.heartbeatTimeoutSec);
            worker.wedged = true;
            kill(worker.pid, SIGKILL);
            // reapWorkers() requeues its jobs and respawns.
            worker.lastBeatAtMs = now;
        }
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
        if (!worker.alive || worker.channel == nullptr)
            continue;
        while (!pending.empty() &&
               worker.inflight.size() < max_inflight_per_worker) {
            const std::string fp = pending.front();
            auto it = execs.find(fp);
            if (it == execs.end()) {
                pending.pop_front();
                continue; // cancelled/completed meanwhile
            }
            const std::uint64_t id = ++exec_seq;
            const std::string frame =
                workerJobLine(id, it->second.job);
            if (!worker.channel->jobs.tryPush(frame))
                break; // ring full; try again next tick
            postWake(worker.jobWake);
            pending.pop_front();
            it->second.worker = static_cast<int>(slot);
            it->second.id = id;
            id_to_fp.emplace(id, fp);
            dispatched_ms.emplace(id, nowMs());
            worker.inflight.push_back(id);
            ++attempts[fp];
        }
    }
}

void
Dispatcher::flushClients()
{
    std::vector<int> to_close;
    for (auto &[fd, client] : clients) {
        while (!client.outbuf.empty()) {
            const ssize_t sent =
                faultSend(fd, client.outbuf.data(),
                          client.outbuf.size(), MSG_NOSIGNAL);
            if (sent > 0) {
                client.outbuf.erase(
                    0, static_cast<std::size_t>(sent));
                continue;
            }
            if (sent < 0 && errno == EINTR)
                continue;
            if (sent < 0 &&
                (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            to_close.push_back(fd);
            client.outbuf.clear();
            break;
        }
        if (client.closing && client.outbuf.empty())
            to_close.push_back(fd);
    }
    for (int fd : to_close)
        closeClient(fd);
}

void
Dispatcher::closeClient(int fd)
{
    clients.erase(fd);
    close(fd);
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
    for (Worker &worker : workers) {
        if (worker.channel != nullptr)
            worker.channel->stop.store(
                true, std::memory_order_release);
        if (worker.jobWake >= 0)
            postWake(worker.jobWake);
    }
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
    for (Worker &worker : workers) {
        unmapWorkerChannel(worker.channel);
        worker.channel = nullptr;
        if (worker.jobWake >= 0)
            close(worker.jobWake);
        worker.jobWake = -1;
    }
    workers.clear();
}

} // namespace serve
} // namespace nosq
