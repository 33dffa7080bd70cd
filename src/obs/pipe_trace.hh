/**
 * @file
 * Pipeline trace export in the Chrome trace_event JSON format.
 *
 * A PipeTracer is hooked into the out-of-order core's stage seams
 * (fetch, rename, issue, backend entry, commit, squash) plus the
 * NoSQ-specific decision points (bypass prediction, SSBF filter
 * outcome, forwarding verification, re-execution) and writes one
 * trace_event per hook, loadable directly into chrome://tracing,
 * Perfetto, or speedscope:
 *
 *   {"traceEvents": [
 *     {"name": "fetch", "cat": "pipe", "ph": "i", "s": "t",
 *      "ts": <cycle>, "pid": 0, "tid": 1,
 *      "args": {"seq": 42, "pc": "0x40a1c8"}},
 *     {"name": "bypass_pred", "cat": "nosq", ...,
 *      "args": {"seq": 57, "pc": "0x40a1d0", "hit": true,
 *               "bypass": true, "dist": 3, "decision": "bypass"}},
 *     ...
 *   ], "displayTimeUnit": "ns"}
 *
 * Timestamps are core cycles (one "microsecond" per cycle in the
 * viewer) and are nondecreasing in file order because hooks fire in
 * simulation order. The tid lane separates the pipeline stages from
 * the NoSQ event stream so the two render as parallel tracks.
 *
 * Windowing keeps traces bounded: a `FILE[:skip:count]` spec traces
 * only instructions with dynamic seq in [skip+1, skip+count] (seq is
 * 1-based). Squashed instructions inside the window ARE traced --
 * wrong-path visibility is half the point -- each closed by a
 * "squash" event. `count = 0` is an explicitly empty window: the
 * file is still a valid (empty) trace document.
 *
 * Cost contract: a null tracer pointer costs the core exactly one
 * predicted branch per hook, so default-off runs keep the golden
 * statistics byte-identical. The tracer itself never touches
 * simulation state.
 */

#ifndef NOSQ_OBS_PIPE_TRACE_HH
#define NOSQ_OBS_PIPE_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace nosq {
namespace obs {

/** Parsed `FILE[:skip:count]` trace spec. */
struct PipeTraceConfig
{
    std::string path;
    /** Instructions skipped before the window opens. */
    std::uint64_t skip = 0;
    /** Window length in instructions; 0 traces nothing (the default
     * below keeps an unbounded run's trace bounded). */
    std::uint64_t count = 50000;
};

/**
 * Parse @p spec ("FILE", "FILE:skip:count") into @p out; the
 * window fields are decimal digits only (cli::parseNumber()).
 * @return false with @p error set on a malformed spec (missing
 *         file, non-numeric or lone window fields)
 */
bool parsePipeTraceSpec(const std::string &spec, PipeTraceConfig &out,
                        std::string &error);

/** Event-lane tids (trace-viewer tracks). */
enum class TraceLane : unsigned {
    Fetch = 1,
    Rename = 2,
    Issue = 3,
    Backend = 4,
    Commit = 5,
    Nosq = 6, ///< bypass_pred / ssbf / verify / reexec events
};

class PipeTracer
{
  public:
    explicit PipeTracer(PipeTraceConfig config);
    ~PipeTracer();
    PipeTracer(const PipeTracer &) = delete;
    PipeTracer &operator=(const PipeTracer &) = delete;

    /** Open the output file and write the document header.
     * @return false with @p error set on I/O failure */
    bool open(std::string &error);

    /** True when instruction @p seq (1-based) is inside the trace
     * window. The core calls this per hook; keep it trivial. */
    bool
    inWindow(std::uint64_t seq) const
    {
        return seq > cfg.skip && seq - cfg.skip <= cfg.count;
    }

    /**
     * Emit one event. @p extra_args, when nonempty, is a prebuilt
     * JSON fragment appended inside "args" (e.g.
     * "\"dist\":3,\"confident\":true"); the caller owns its
     * validity. Events outside the window are dropped here, so call
     * sites may skip the inWindow() pre-check when they need no
     * argument formatting.
     */
    void event(TraceLane lane, const char *cat, const char *name,
               std::uint64_t cycle_ts, std::uint64_t seq,
               std::uint64_t pc, const std::string &extra_args = "");

    /** Close the JSON document and the file. Idempotent; the
     * destructor calls it. @return false with @p error set on a
     * short write (the trace would be torn) */
    bool finish(std::string &error);

    std::uint64_t
    events() const
    {
        return emitted;
    }

    const PipeTraceConfig &
    config() const
    {
        return cfg;
    }

  private:
    PipeTraceConfig cfg;
    std::FILE *out = nullptr;
    std::uint64_t emitted = 0;
    bool failed = false;
};

} // namespace obs
} // namespace nosq

#endif // NOSQ_OBS_PIPE_TRACE_HH
