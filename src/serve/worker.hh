/**
 * @file
 * The forked sweep worker: reads job frames off its end of a
 * socketpair with the daemon, runs them through the engine's own
 * runSweepJob() path, and writes the result frames back. See
 * dispatcher.hh for the parent side.
 */

#ifndef NOSQ_SERVE_WORKER_HH
#define NOSQ_SERVE_WORKER_HH

namespace nosq {
namespace serve {

/**
 * Serve job frames on @p fd, this worker's end of its socketpair
 * with the daemon, until the daemon closes its end (or dies): a read
 * that returns 0 ends the loop with exit code 0. Never throws: a job
 * that throws becomes a worker error frame; a malformed job frame
 * (the daemon never sends one) makes the worker exit nonzero so the
 * daemon respawns it.
 * @return the process exit code
 */
int workerMain(int fd);

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_WORKER_HH
