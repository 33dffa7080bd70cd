/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded from the benchmark's own code, around calls
 * into a simulator layer's public functions (nothing inside the
 * simulator is instrumented). Each span carries a name, a start and
 * end on the steady clock, the span that caused it, the recording
 * thread and the repetition it belongs to. They stay in memory until
 * the run ends, when writeChromeTrace() dumps them as a Chrome
 * trace_event file and selfTimes() folds them into per-name self
 * time (a span's duration minus the part its children cover).
 *
 * With recording off every Scope is one predicted branch, so the
 * untraced runs that give the end-to-end metrics pay nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since the process started. */
std::uint64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::uint64_t start, std::uint64_t end)
{
    return static_cast<double>(end - start) * 1e-9;
}

inline constexpr int no_span = -1;

struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = no_span;
    unsigned thread = 0;
    unsigned rep = 0;

    double ms() const { return static_cast<double>(endNs - startNs) * 1e-6; }
};

class SpanRecorder
{
  public:
    /** Turn recording on or off (from the main thread, while no
     * other thread records). */
    void setEnabled(bool enable) { on = enable; }
    bool enabled() const { return on; }

    /** Repetition index stamped on spans begun from now on. */
    void setRep(unsigned r) { rep = r; }

    /**
     * Open a span. @p parent defaults to the innermost span open on
     * this thread; pass one explicitly for work handed to another
     * thread. @return the span id, or no_span when recording is off.
     */
    int begin(const char *name, int parent = no_span);
    void end(int id);

    /** The innermost span open on the calling thread. */
    int current() const;

    /** Every recorded span (call after all threads have joined). */
    const std::vector<Span> &spans() const { return all; }

    /** Durations (ms) of every span named @p name, of repetition
     * @p rep only when it is not negative. */
    std::vector<double> durationsMs(const std::string &name,
                                    int rep = -1) const;
    /** Sum of durationsMs(). */
    double totalMs(const std::string &name, int rep = -1) const;

    /** Per-name total self time in ms: duration minus the union of
     * the intervals its children cover. */
    std::map<std::string, double> selfTimes() const;

    /**
     * Write the spans as Chrome trace_event JSON to @p path, with
     * @p metadata (a JSON object literal) under "otherData".
     * @return false if the file cannot be written
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &run_id,
                          const std::string &metadata) const;

  private:
    bool on = false;
    unsigned rep = 0;
    mutable std::mutex mutex;
    std::vector<Span> all;
};

/** The process-wide recorder. */
SpanRecorder &spans();

/** RAII span around one call. */
class Scope
{
  public:
    explicit Scope(const char *name, int parent = no_span)
        : id(spans().enabled() ? spans().begin(name, parent) : no_span)
    {}
    ~Scope()
    {
        if (id != no_span)
            spans().end(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int spanId() const { return id; }

  private:
    int id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
