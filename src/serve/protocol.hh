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
 *   {"schema": "nosq-serve-v1", "op": "metrics"}
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
 * Daemon <-> worker (one socketpair per worker, one frame per line,
 * no size cap; dispatcher.hh):
 *
 *   {"job": {<job>}}                                   (to the worker)
 *   {"fault": "wedge", "job": {<job>}}
 *   {"fp": "<hex16>", "run": {...}}                    (to the daemon)
 *   {"fp": "<hex16>", "error": "..."}
 *
 * A result frame is the client's result line without "job": one
 * builder pair and one parser serve both hops. The fingerprint, which
 * the worker computes from the job it was sent, is the frame's only
 * key. A job frame carries "fault" only when the daemon's fault plan
 * fired its worker.job site for this dispatch (fault.hh); the worker
 * acts it out. Custom-runner jobs (SweepJob::runner) cannot cross a
 * process boundary and are rejected at serialization time.
 */

#ifndef NOSQ_SERVE_PROTOCOL_HH
#define NOSQ_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "serve/fault.hh"
#include "serve/serve_stats.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace nosq {
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
    enum class Op { Submit, Status, Metrics };

    Op op = Op::Status;
    std::vector<SweepJob> jobs; ///< submit
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
std::string metricsRequestLine();

// --- daemon replies ---------------------------------------------------------

/** {"ok": false, "error": "..."} */
std::string errorReplyLine(const std::string &message);

/** Render @p status as the one-line status reply (see
 * serve_stats.hh). */
std::string statusReplyLine(const ServerStatus &status);

/**
 * Render the `metrics` scrape of @p status as Prometheus text: every
 * family of forEachServeMetric(), in that order, each under one
 * HELP/TYPE header. The fault families carry one `site`-labelled
 * sample per site @p faults plans and are absent with no plan; the
 * histogram families render @p submit_latency and @p service_time.
 */
std::string metricsExposition(const ServerStatus &status,
                              const FaultInjector &faults,
                              const obs::Histogram &submit_latency,
                              const obs::Histogram &service_time);

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

/** What checkReplyLine() found. */
enum class ReplyCheck {
    Ok,        ///< a JSON object with "ok": true
    Refused,   ///< an object whose "ok" is missing or not true
    Malformed, ///< not a JSON object
};

/**
 * Parse the daemon reply @p line into @p reply and read its "ok"
 * flag: the one check behind a submit's acknowledgment and the
 * metrics reply. On Refused, @p detail is the reply's "error"
 * string ("" when it carries none); on Malformed, why @p line is
 * not a JSON object.
 */
ReplyCheck checkReplyLine(const std::string &line, JsonValue &reply,
                          std::string &detail);

/**
 * One delivered job result / failure: the client stream line when
 * @p index is set, the worker's result frame when it is not.
 */
std::string jobResultLine(std::optional<std::size_t> index,
                          const std::string &fp, const RunResult &run);
std::string jobErrorLine(std::optional<std::size_t> index,
                         const std::string &fp,
                         const std::string &message);
/** The stream terminator. */
std::string doneLine(const std::string &ticket, std::size_t jobs);

/** A parsed result line; `error` empty means `run` is set. */
struct JobResult
{
    std::optional<std::uint64_t> index; ///< "job"; unset in a frame
    std::string fp;
    RunResult run;
    std::string error;
};

/** Parse a jobResultLine()/jobErrorLine() line (either hop).
 * @return false with @p error set on malformed input */
bool parseJobResultLine(const std::string &line, JobResult &out,
                        std::string &error);

// --- worker job frames ------------------------------------------------------

/** @p fault: the worker.job action the worker must act out */
std::string workerJobLine(const SweepJob &job,
                          FaultAction fault = FaultAction::None);

/** @return false on malformed input (the daemon never produces it;
 * a worker that sees it exits and is respawned) */
bool parseWorkerJobLine(const std::string &line, SweepJob &out,
                        FaultAction &fault, std::string &error);

// --- framing ----------------------------------------------------------------

/**
 * One end of a newline-framed stream, and the only code that moves
 * protocol bytes through a socket. It owns its fd (closed on
 * destruction) and buffers both directions:
 *
 *  - input: fill() appends one read; nextLine() hands out each
 *    complete line once, resuming its '\n' search where the last
 *    call stopped. The bytes of handed-out lines are dropped in one
 *    move at the next fill(), not one per line.
 *  - output: queue() appends; flush() sends until the buffer is
 *    empty or the socket would block, and then drops the sent bytes
 *    in one move.
 *
 * The daemon's poll() loop drives non-blocking ends (fill() until
 * Again, flush() when writable); the client and the worker block in
 * readLine() and flush(). Whoever builds a channel picks its I/O
 * functions: client sockets pass faultRead/faultSend (the sock.read
 * and sock.write fault sites), worker links plain read/send.
 */
class LineChannel
{
  public:
    using ReadFn = ssize_t (*)(int, void *, std::size_t);
    using SendFn = ssize_t (*)(int, const void *, std::size_t, int);

    enum class Io {
        Done,   ///< fill(): bytes arrived; readLine(): a line;
                ///< flush(): everything queued is sent
        Again,  ///< the non-blocking socket would block
        Closed, ///< the peer closed its end (fill(), readLine())
        Error,  ///< a hard error; errno says which
    };

    LineChannel() = default;
    LineChannel(int fd, ReadFn read, SendFn send)
        : fd_(fd), read_(read), send_(send)
    {}
    ~LineChannel() { close(); }
    LineChannel(LineChannel &&other) noexcept { *this = std::move(other); }
    LineChannel &operator=(LineChannel &&other) noexcept;

    int
    fd() const
    {
        return fd_;
    }

    bool
    open() const
    {
        return fd_ >= 0;
    }

    /** Close the fd now (idempotent). Buffered input stays readable
     * through nextLine(). */
    void close();

    /** One read into the input buffer, retrying EINTR. */
    Io fill();

    /** Move the next complete line, without its '\n', into @p line.
     * @return false when no whole line is buffered */
    bool nextLine(std::string &line);

    /** Bytes buffered and not yet handed out as lines. */
    std::size_t
    partialBytes() const
    {
        return in_.size() - consumed_;
    }

    /** Drop all buffered input. */
    void discardInput();

    /** Block until a whole line is buffered and move it into
     * @p line. @return Done, or what the failed fill() returned */
    Io readLine(std::string &line);

    void
    queue(std::string_view bytes)
    {
        out_ += bytes;
    }

    bool
    hasOutput() const
    {
        return !out_.empty();
    }

    /** Send queued output, retrying EINTR; a blocking end returns
     * only when all of it is sent or on an error. */
    Io flush();

  private:
    int fd_ = -1;
    ReadFn read_ = nullptr;
    SendFn send_ = nullptr;
    std::string in_;
    /** in_[0, consumed_) was handed out as lines. */
    std::size_t consumed_ = 0;
    /** in_[consumed_, scanned_) holds no '\n'. */
    std::size_t scanned_ = 0;
    std::string out_;
};

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_PROTOCOL_HH
