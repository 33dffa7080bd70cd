/**
 * @file
 * Sweep worker process body (see worker.hh).
 */

#include "serve/worker.hh"

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

int
workerMain(int fd)
{
    // Re-tag the forked child so NOSQ_LOG_PREFIX attributes its
    // lines to the worker, not the daemon it inherited from.
    setLogRole("worker");
    // Plain read/send: fault plans count client I/O only.
    LineChannel link(fd, read, send);
    std::string line;
    // EOF is the stop signal and the orphan check in one: the daemon
    // closed its end on shutdown, or died and the kernel closed it.
    while (link.readLine(line) == LineChannel::Io::Done) {
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
        link.queue(reply);
        if (link.flush() != LineChannel::Io::Done)
            return 0;
    }
    return 0;
}

} // namespace serve
} // namespace nosq
