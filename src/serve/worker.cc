/**
 * @file
 * Sweep worker process body (see worker.hh).
 */

#include "serve/worker.hh"

#include <cerrno>
#include <exception>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "serve/fault.hh"
#include "serve/protocol.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

namespace nosq {
namespace serve {

namespace {

/** Read from @p fd until @p inbuf holds a whole line, and move it
 * (without its '\n') into @p line.
 * @return false once the daemon has closed its end */
bool
readLine(int fd, std::string &inbuf, std::string &line)
{
    std::size_t scanned = 0;
    std::size_t nl;
    while ((nl = inbuf.find('\n', scanned)) == std::string::npos) {
        scanned = inbuf.size();
        char buffer[1 << 16];
        const ssize_t got = read(fd, buffer, sizeof(buffer));
        if (got > 0)
            inbuf.append(buffer, static_cast<std::size_t>(got));
        else if (got == 0 || errno != EINTR)
            return false;
    }
    line.assign(inbuf, 0, nl);
    inbuf.erase(0, nl + 1);
    return true;
}

/** Write all of @p frame to @p fd; no SIGPIPE if the daemon is gone.
 * @return false once the daemon has closed its end */
bool
writeAll(int fd, const std::string &frame)
{
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t n = send(fd, frame.data() + sent,
                               frame.size() - sent, MSG_NOSIGNAL);
        if (n > 0)
            sent += static_cast<std::size_t>(n);
        else if (n == 0 || errno != EINTR)
            return false;
    }
    return true;
}

} // anonymous namespace

int
workerMain(int fd)
{
    // Re-tag the forked child so NOSQ_LOG_PREFIX attributes its
    // lines to the worker, not the daemon it inherited from.
    setLogRole("worker");
    std::string inbuf;
    std::string line;
    // EOF is the stop signal and the orphan check in one: the daemon
    // closed its end on shutdown, or died and the kernel closed it.
    while (readLine(fd, inbuf, line)) {
        SweepJob job;
        FaultAction fault = FaultAction::None;
        std::string error;
        if (!parseWorkerJobLine(line, job, fault, error)) {
            // The daemon never produces a malformed frame; seeing
            // one means this stream is not trustworthy. Exit and let
            // the daemon respawn a clean worker.
            return 2;
        }
        const std::string fp = jobFingerprint(job);

        std::string reply;
        switch (fault) {
        case FaultAction::Wedge:
            // A genuinely hung job: no result and no further read.
            // Only the daemon's --heartbeat-timeout (SIGKILL) ends
            // this worker.
            for (;;)
                pause();
        case FaultAction::Crash:
            _exit(42);
        case FaultAction::Fail:
            reply = jobErrorLine(std::nullopt, fp,
                                 "injected fault: worker.job fail");
            break;
        default:
            break;
        }
        if (reply.empty()) try {
            const RunResult run = runSweepJob(job);
            reply = jobResultLine(std::nullopt, fp, run);
        } catch (const std::exception &e) {
            reply = jobErrorLine(std::nullopt, fp, e.what());
        } catch (...) {
            reply = jobErrorLine(std::nullopt, fp, "unknown error");
        }
        if (!writeAll(fd, reply))
            return 0;
    }
    return 0;
}

} // namespace serve
} // namespace nosq
