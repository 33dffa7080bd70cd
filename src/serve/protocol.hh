/**
 * @file
 * nosq-serve-v1: the sweep-serving line protocol.
 *
 * Everything the daemon (nosq_sweepd), its forked workers, and sweep
 * clients (nosq_sim --server) say to each other is one JSON document
 * per '\n'-terminated line, built and parsed here so the three
 * parties can never drift apart. Two layers share the format:
 *
 * Client <-> daemon (Unix-domain socket). Requests:
 *
 *   {"schema": "nosq-serve-v1", "op": "submit", "jobs": [<job>...]}
 *   {"schema": "nosq-serve-v1", "op": "status"}
 *   {"schema": "nosq-serve-v1", "op": "results", "fp": "<hex16>"}
 *   {"schema": "nosq-serve-v1", "op": "cancel", "ticket": "<id>"}
 *
 * Replies. Every request is answered; a request the daemon cannot
 * parse or honour gets {"ok": false, "error": "..."} and never
 * crashes or hangs the daemon. A submit is acknowledged with
 *
 *   {"ok": true, "ticket": "t<n>", "jobs": N,
 *    "cached": K, "shared": S}
 *
 * followed by one line per job index as results become available
 * (cache hits stream back immediately, order is completion order):
 *
 *   {"job": <index>, "fp": "<hex16>", "run": {<journal record>}}
 *   {"job": <index>, "fp": "<hex16>", "error": "..."}
 *
 * and, once every index has been delivered,
 *
 *   {"done": true, "ticket": "t<n>", "jobs": N}
 *
 * The <job> wire form serializes the full SweepJob tuple -- every
 * field that jobFingerprint() (sim/journal.hh) hashes, the
 * UarchParams enumerated field by field under the journal's own key
 * names -- so the daemon reconstructs exactly the tuple the client
 * built and both sides agree on the fingerprint, the cache key, and
 * (by the determinism contract) the result bytes. The "run" payload
 * is the store's record (runResultRecord()), which restores
 * bit-identically; a client-side report assembled from these lines
 * is byte-identical to a local runSweep() report.
 *
 * Daemon <-> worker (shared-memory SPSC rings, serve/spsc_ring.hh):
 *
 *   {"id": <u64>, "job": {<job>}}                      (job ring)
 *   {"id": <u64>, "fp": "<hex16>", "run": {...}}       (result ring)
 *   {"id": <u64>, "fp": "<hex16>", "error": "..."}
 *
 * Custom-runner jobs (SweepJob::runner) cannot cross a process
 * boundary and are rejected at serialization time.
 */

#ifndef NOSQ_SERVE_PROTOCOL_HH
#define NOSQ_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/serve_stats.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace nosq {
namespace obs {
class MetricsRegistry;
} // namespace obs

namespace serve {

constexpr const char *serve_schema = "nosq-serve-v1";

/**
 * Hard ceiling on one request line (a submit carries a whole job
 * list: ~1.5 KB per job, so this admits sweeps far larger than any
 * builder constructs). The daemon answers an oversized line with an
 * error reply and closes the connection -- mid-line resync is not
 * reliable -- instead of buffering without bound.
 */
constexpr std::size_t max_request_bytes = 16u * 1024 * 1024;

/** Jobs per submit, a sanity bound (the full 47-benchmark x 20-
 * config cross product is ~1k jobs). */
constexpr std::size_t max_jobs_per_submit = 65536;

// --- job wire form ----------------------------------------------------------

/**
 * Serialize @p job to its one-line wire object.
 * @return empty string with @p error set for jobs that cannot cross
 *         a process boundary (custom runner, unknown workload)
 */
std::string jobToWire(const SweepJob &job, std::string *error);

/**
 * Rebuild a SweepJob from a parsed wire object. Strict: every field
 * must be present, well-typed, in range, and known (an unknown
 * params key means the two ends disagree about UarchParams and MUST
 * not silently half-apply), and the workload must exist in this
 * binary. The rebuilt job fingerprints identically to the one that
 * was serialized.
 * @return false with @p error set on any violation
 */
bool jobFromWire(const JsonValue &v, SweepJob &out,
                 std::string &error);

// --- client requests --------------------------------------------------------

struct Request
{
    enum class Op { Submit, Status, Results, Cancel, Metrics };

    Op op = Op::Status;
    std::vector<SweepJob> jobs; ///< submit
    std::string fp;             ///< results
    std::string ticket;         ///< cancel
};

/**
 * Parse one request line (without the trailing newline). Malformed,
 * truncated, wrong-schema, or oversized input fails cleanly.
 * @return false with @p error set (the daemon's error reply)
 */
bool parseRequestLine(const std::string &line, Request &out,
                      std::string &error);

/** Build a submit request; empty with @p error set if any job is
 * unserializable. */
std::string submitRequestLine(const std::vector<SweepJob> &jobs,
                              std::string *error);

std::string statusRequestLine();
std::string resultsRequestLine(const std::string &fp);
std::string cancelRequestLine(const std::string &ticket);
std::string metricsRequestLine();

// --- daemon replies ---------------------------------------------------------

/** {"ok": false, "error": "..."} */
std::string errorReplyLine(const std::string &message);

/** Render @p status as the one-line status reply (see
 * serve_stats.hh). */
std::string statusReplyLine(const ServerStatus &status);

/** Set the series of every serve_stat_rows row in @p metrics from
 * @p status, registering any missing one. */
void setServeMetrics(obs::MetricsRegistry &metrics,
                     const ServerStatus &status);

/** The submit acknowledgment (see the file comment). */
std::string submitAckLine(const std::string &ticket,
                          std::size_t jobs, std::size_t cached,
                          std::size_t shared);

/**
 * The metrics reply: the Prometheus text exposition (obs/metrics.hh)
 * JSON-escaped into a one-line envelope so it travels the line
 * protocol like every other reply:
 *
 *   {"ok": true, "format": "prometheus-text-0.0.4",
 *    "metrics": "# HELP ...\n..."}
 *
 * parseMetricsReplyLine() is the client-side inverse; the unescaped
 * text is what `nosq_sim --server-metrics` prints verbatim.
 */
std::string metricsReplyLine(const std::string &exposition);

/** @return false with @p error set on a malformed or not-ok reply */
bool parseMetricsReplyLine(const std::string &line,
                           std::string &exposition,
                           std::string &error);

/** One delivered job result / failure, and the stream terminator. */
std::string jobResultLine(std::size_t index, const std::string &fp,
                          const RunResult &run);
std::string jobErrorLine(std::size_t index, const std::string &fp,
                         const std::string &message);
std::string doneLine(const std::string &ticket, std::size_t jobs);

// --- worker channel framing -------------------------------------------------

std::string workerJobLine(std::uint64_t id, const SweepJob &job);

/** @return false on malformed input (the daemon never produces it;
 * a worker that sees it exits and is respawned) */
bool parseWorkerJobLine(const std::string &line, std::uint64_t &id,
                        SweepJob &out, std::string &error);

std::string workerResultLine(std::uint64_t id, const std::string &fp,
                             const RunResult &run);
std::string workerErrorLine(std::uint64_t id, const std::string &fp,
                            const std::string &message);

/** A parsed result-ring record; `error` empty means `run` is set. */
struct WorkerResult
{
    std::uint64_t id = 0;
    std::string fp;
    RunResult run;
    std::string error;
};

bool parseWorkerResultLine(const std::string &line,
                           WorkerResult &out, std::string &error);

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_PROTOCOL_HH
