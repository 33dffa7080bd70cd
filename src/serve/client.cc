/**
 * @file
 * Sweep client implementation (see client.hh).
 */

#include "serve/client.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <random>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/fault.hh"
#include "serve/protocol.hh"
#include "sim/journal.hh"
#include "sim/report.hh"

namespace nosq {
namespace serve {

namespace {

int
connectTo(const std::string &socket_path, std::string &error)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        error = "socket path '" + socket_path +
                "' exceeds the AF_UNIX limit";
        return -1;
    }
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = "cannot create a socket: " +
                std::string(std::strerror(errno));
        return -1;
    }
    for (;;) {
        if (faultConnect(fd,
                         reinterpret_cast<struct sockaddr *>(&addr),
                         sizeof(addr)) == 0)
            return fd;
        if (errno == EINTR)
            continue;
        // A connect interrupted by a signal may have completed
        // anyway; the retry then reports EISCONN.
        if (errno == EISCONN)
            return fd;
        error = "cannot connect to '" + socket_path +
                "': " + std::strerror(errno) +
                " (is nosq_sweepd running?)";
        close(fd);
        return -1;
    }
}

/** Send @p data on the blocking @p link. */
bool
sendAll(LineChannel &link, const std::string &data, std::string &error)
{
    link.queue(data);
    if (link.flush() == LineChannel::Io::Done)
        return true;
    error = "send failed: " + std::string(std::strerror(errno));
    return false;
}

/** Block until the next line arrives on @p link. */
bool
readLine(LineChannel &link, std::string &line, std::string &error)
{
    switch (link.readLine(line)) {
      case LineChannel::Io::Done:
        return true;
      case LineChannel::Io::Closed:
        error = "server closed the connection mid-stream";
        return false;
      default:
        error = "read failed: " + std::string(std::strerror(errno));
        return false;
    }
}

/** One request line out, one reply line back, on a fresh
 * connection. */
bool
requestReply(const std::string &socket_path, const std::string &request,
             std::string &reply, std::string &error)
{
    const int fd = connectTo(socket_path, error);
    if (fd < 0)
        return false;
    LineChannel link(fd, faultRead, faultSend);
    return sendAll(link, request, error) && readLine(link, reply, error);
}

enum class Attempt {
    Done,  ///< every job delivered
    Retry, ///< transient failure; reconnect and resubmit
    Fatal, ///< protocol-level rejection; do not retry
};

/**
 * One connect + submit + stream pass. Results land in
 * @p out.results under @p have bookkeeping, so a later pass only
 * fills what this one missed.
 */
Attempt
attemptSweep(const std::string &socket_path,
             const std::string &request,
             const std::vector<SweepJob> &jobs, ClientOutcome &out,
             std::vector<char> &have, std::size_t &delivered,
             std::string &error, const SweepProgress &progress)
{
    const int fd = connectTo(socket_path, error);
    if (fd < 0)
        return Attempt::Retry;
    LineChannel link(fd, faultRead, faultSend);
    std::string line;
    // Ack first.
    if (!sendAll(link, request, error) || !readLine(link, line, error))
        return Attempt::Retry;
    JsonValue ack;
    std::string reason;
    switch (checkReplyLine(line, ack, reason)) {
      case ReplyCheck::Malformed:
        error = "unparseable server reply: " + line;
        return Attempt::Fatal;
      case ReplyCheck::Refused:
        if (reason.empty())
            reason = line;
        error = "server refused the sweep: " + reason;
        // Load shedding and shutdown are the daemon's way of
        // saying "not now" -- back off and try again.
        return reason.rfind("draining", 0) == 0 ||
                       reason.rfind("overloaded", 0) == 0
                   ? Attempt::Retry
                   : Attempt::Fatal;
      case ReplyCheck::Ok:
        break;
    }
    if (const JsonValue *t = ack.find("ticket");
        t != nullptr && t->kind == JsonValue::Kind::String)
        out.ticket = t->string;
    std::uint64_t n = 0;
    if (const JsonValue *c = ack.find("cached");
        c != nullptr && jsonExactCounter(*c, n))
        out.cached = static_cast<std::size_t>(n);
    if (const JsonValue *s = ack.find("shared");
        s != nullptr && jsonExactCounter(*s, n))
        out.shared = static_cast<std::size_t>(n);

    // Stream until every job (across all attempts) is in.
    while (delivered < jobs.size()) {
        if (!readLine(link, line, error))
            return Attempt::Retry;
        JobResult result;
        std::string parse_error;
        if (!parseJobResultLine(line, result, parse_error) ||
            !result.index || *result.index >= jobs.size()) {
            error = "bad server stream line (" +
                    (parse_error.empty() ? "job index" : parse_error) +
                    "): " + line;
            return Attempt::Fatal;
        }
        const std::size_t index = *result.index;
        if (have[index])
            continue; // duplicate delivery; first wins
        if (result.error.empty()) {
            out.results[index] = std::move(result.run);
        } else {
            out.results[index] = labelledResult(jobs[index], false);
            out.failures.push_back(std::to_string(index) + ": " +
                                   result.error);
        }
        have[index] = 1;
        ++delivered;
        if (progress)
            progress(delivered, jobs.size(),
                     static_cast<std::size_t>(index));
    }
    return Attempt::Done;
}

void
backoffSleep(std::size_t attempt, const RetryPolicy &retry,
             std::minstd_rand &rng)
{
    const unsigned base = retry.base_backoff_ms > 0
                              ? retry.base_backoff_ms
                              : 1;
    std::uint64_t ms = base;
    for (std::size_t i = 1; i < attempt && ms < retry.max_backoff_ms;
         ++i)
        ms *= 2;
    if (ms > retry.max_backoff_ms)
        ms = retry.max_backoff_ms;
    ms += rng() % base; // jitter desynchronizes retrying clients
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(ms / 1000);
    ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
    while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
}

} // anonymous namespace

bool
runSweepOnServer(const std::string &socket_path,
                 const std::vector<SweepJob> &jobs,
                 ClientOutcome &out, std::string &error,
                 const SweepProgress &progress,
                 const RetryPolicy &retry)
{
    out = ClientOutcome();
    if (jobs.empty()) {
        error = "no jobs to submit";
        return false;
    }

    std::string request_error;
    const std::string request =
        submitRequestLine(jobs, &request_error);
    if (request.empty()) {
        error = "unserializable sweep: " + request_error;
        return false;
    }

    std::vector<char> have(jobs.size(), 0);
    out.results.assign(jobs.size(), RunResult());
    std::size_t delivered = 0;
    const std::size_t attempts =
        retry.attempts > 0 ? retry.attempts : 1;
    std::minstd_rand rng(
        static_cast<unsigned>(getpid()) * 2654435761u + 1u);

    for (std::size_t attempt = 1; attempt <= attempts; ++attempt) {
        if (attempt > 1) {
            std::fprintf(stderr,
                         "server: retrying (attempt %zu/%zu): %s\n",
                         attempt, attempts, error.c_str());
            backoffSleep(attempt - 1, retry, rng);
        }
        switch (attemptSweep(socket_path, request, jobs, out, have,
                             delivered, error, progress)) {
        case Attempt::Done:
            return true;
        case Attempt::Fatal:
            return false;
        case Attempt::Retry:
            break;
        }
    }
    error = "sweep failed after " + std::to_string(attempts) +
            " attempt(s): " + error;
    return false;
}

bool
fetchServerStatus(const std::string &socket_path,
                  std::string &reply, std::string &error)
{
    return requestReply(socket_path, statusRequestLine(), reply, error);
}

bool
fetchServerMetrics(const std::string &socket_path,
                   std::string &exposition, std::string &error)
{
    std::string reply;
    return requestReply(socket_path, metricsRequestLine(), reply,
                        error) &&
           parseMetricsReplyLine(reply, exposition, error);
}

} // namespace serve
} // namespace nosq
