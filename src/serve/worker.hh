/**
 * @file
 * The forked sweep worker: pops jobs off its shared-memory channel,
 * runs them through the engine's own runSweepJob() path, and pushes
 * the results back, waking the daemon through a pipe. See
 * dispatcher.hh for the parent side.
 */

#ifndef NOSQ_SERVE_WORKER_HH
#define NOSQ_SERVE_WORKER_HH

#include "serve/spsc_ring.hh"

namespace nosq {
namespace serve {

/**
 * Run the worker loop until @p channel->stop is set. Never throws:
 * a job that throws becomes a worker error frame; a malformed job
 * frame (the daemon never sends one) makes the worker exit nonzero
 * so the daemon respawns it.
 * @param job_wake read end of this worker's wake pipe: an idle
 *        worker sleeps on it until the daemon pushes a job or sets
 *        stop (spsc_ring.hh, "wake pipes")
 * @param result_wake write end of the daemon's shared result wake
 *        pipe, posted after every pushed result
 * @return the process exit code
 */
int workerMain(WorkerChannel *channel, int job_wake, int result_wake);

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_WORKER_HH
