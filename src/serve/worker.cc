/**
 * @file
 * Sweep worker process body (see worker.hh).
 */

#include "serve/worker.hh"

#include <exception>
#include <string>

#include <time.h>
#include <unistd.h>

#include "common/logging.hh"
#include "serve/fault.hh"
#include "serve/protocol.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

namespace nosq {
namespace serve {

namespace {

void
napMillis(long ms)
{
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = (ms % 1000) * 1000000L;
    nanosleep(&ts, nullptr);
}

} // anonymous namespace

int
workerMain(WorkerChannel *channel, int job_wake, int result_wake)
{
    // Re-tag the forked child so NOSQ_LOG_PREFIX attributes its
    // lines to the worker, not the daemon it inherited from.
    setLogRole("worker");
    const pid_t daemon = getppid();
    std::string line;
    while (!channel->stop.load(std::memory_order_acquire)) {
        if (FaultInjector::global().check(FaultSite::WorkerBeat) !=
            FaultAction::Fail)
            channel->heartbeat.fetch_add(1,
                                         std::memory_order_relaxed);
        if (!channel->jobs.tryPop(line)) {
            // Orphan check: if the daemon died without setting the
            // stop flag (SIGKILL), nobody will ever read a result
            // again -- exit instead of spinning forever on fds
            // (including any inherited pipe) we keep open.
            if (getppid() != daemon)
                return 0;
            // Sleep until the daemon pushes a job (or sets stop),
            // bounded so the stop, orphan and heartbeat checks above
            // keep their 2ms cadence.
            awaitWake(job_wake, 2);
            continue;
        }

        std::uint64_t id = 0;
        SweepJob job;
        std::string error;
        if (!parseWorkerJobLine(line, id, job, error)) {
            // The daemon never produces a malformed frame; seeing
            // one means this ring is not trustworthy. Exit and let
            // the daemon respawn a clean worker.
            return 2;
        }
        const std::string fp = jobFingerprint(job);

        std::string reply;
        switch (FaultInjector::global().check(FaultSite::WorkerJob)) {
        case FaultAction::Wedge:
            // A genuinely hung job: no heartbeat, no result, no
            // reaction to stop. Only the daemon's heartbeat
            // timeout (SIGKILL) ends this worker.
            for (;;)
                napMillis(50);
        case FaultAction::Crash:
            _exit(42);
        case FaultAction::Fail:
            reply = workerErrorLine(
                id, fp, "injected fault: worker.job fail");
            break;
        default:
            break;
        }
        if (reply.empty()) try {
            const RunResult run = runSweepJob(job);
            reply = workerResultLine(id, fp, run);
        } catch (const std::exception &e) {
            reply = workerErrorLine(id, fp, e.what());
        } catch (...) {
            reply = workerErrorLine(id, fp, "unknown error");
        }

        // A full result ring only means the daemon has not drained
        // yet; keep the heartbeat moving while waiting.
        while (!channel->results.tryPush(reply)) {
            if (channel->stop.load(std::memory_order_acquire))
                return 0;
            channel->heartbeat.fetch_add(
                1, std::memory_order_relaxed);
            napMillis(2);
        }
        postWake(result_wake);
    }
    return 0;
}

} // namespace serve
} // namespace nosq
