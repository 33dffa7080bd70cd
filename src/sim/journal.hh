/**
 * @file
 * Durable sweep checkpoint/resume journal.
 *
 * Long multi-configuration sweeps (the paper's Figures 2-5 regenerated
 * at full instruction counts) can be interrupted -- CI timeouts,
 * preempted machines, plain SIGKILL. The journal makes a sweep
 * restartable: every completed SweepJob is put() into a result store
 * (serve::JobStore, serve/job_store.hh), flushed per record, so an
 * interrupted sweep loses at most the jobs that were in flight when
 * it died. The file is an ordinary "nosq-store-v1" store: a
 * checkpoint can back nosq_sweepd, and a daemon's store can be
 * resumed.
 *
 * SweepJournal is a per-sweep view over that store. It maps each job
 * index to its jobFingerprint() -- a hash of the full job tuple
 * (benchmark, suite, config name, seed, instruction counts, and every
 * UarchParams field), exactly the tuple the engine's determinism
 * contract says the result depends on. A stored result is therefore
 * bit-identical to what re-running the job would produce, so a
 * resume reuses every record whose fingerprint matches a job --
 * whatever sweep wrote it -- and the merged report is byte-identical
 * to an uninterrupted run's. Loading, salvage of corrupt files,
 * compaction and the appends all belong to the store; the journal
 * adds the store's lock (serve::StoreLock), the label check, and
 * the serialized record() path.
 */

#ifndef NOSQ_SIM_JOURNAL_HH
#define NOSQ_SIM_JOURNAL_HH

#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/job_store.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace nosq {

/**
 * Fingerprint of one job's full tuple as 16 lowercase hex digits
 * (FNV-1a 64 over a canonical field-by-field serialization; no raw
 * struct bytes, so padding and ABI never leak in). Custom-runner
 * jobs hash a runner-presence marker plus SweepJob::runnerTag
 * instead of the callable itself -- set distinct tags for runners
 * that compute different statistics over identical tuples.
 */
std::string jobFingerprint(const SweepJob &job);

// --- record (de)serialization seams -----------------------------------------
//
// The result store (serve/job_store.hh) persists, and the serving
// protocol transports, completed RunResults in this one record
// shape.

/**
 * toJson(RunResult) on one JSONL-safe line, the emitter's spacing
 * kept (JsonSpacing::OneLine): a stable text of every counter, for
 * comparing and digesting results.
 */
std::string runResultJsonLine(const RunResult &run);

/**
 * The compact record of a result: toJson(RunResult) with no
 * whitespace between tokens (JsonSpacing::Compact), about 20% fewer
 * bytes than runResultJsonLine(). It is the store record, the
 * worker -> daemon result frame and the daemon -> client result
 * line.
 */
std::string runResultRecord(const RunResult &run);

/**
 * Rebuild a RunResult from a parsed record "run" object: the inverse
 * of runResultRecord() and runResultJsonLine() alike (older stores
 * hold the spaced form). Counters are exact (integral and below
 * 2^53 through the parser's double) and the sampled/multicore
 * summaries round-trip bit-identically, so a restored result is
 * indistinguishable from the freshly computed one.
 * @return false on any shape violation
 */
bool runResultFromJson(const JsonValue &v, RunResult &out);

/**
 * A JSON number that is exactly one of the emitter's integer
 * counters: integral, non-negative, and strictly below 2^53 (the
 * double-exact range). Anything else fails -- never an undefined or
 * silently truncating cast.
 */
bool jsonExactCounter(const JsonValue &v, std::uint64_t &out);

/**
 * Unusable-journal error: a fresh checkpoint would overwrite results
 * of this very sweep, another process (a sweep or a daemon) holds
 * the store, or journal I/O failed outright (unwritable path).
 * Salvageable corruption never throws this; it is reported through
 * SweepJournal::warnings() instead.
 */
class JournalError : public std::runtime_error
{
  public:
    explicit JournalError(const std::string &message)
        : std::runtime_error("journal: " + message)
    {}
};

/**
 * The checkpoint/resume journal for one sweep.
 *
 * Lifecycle: construct via create() (fresh checkpoint) or resume()
 * (reuse an existing store), then bind() to the freshly built job
 * list before running. bind() opens the store and matches its
 * records to job indices by fingerprint. During the sweep, record()
 * puts one result per completed job and flushes it immediately;
 * record() is thread-safe (runSweep calls it from worker threads).
 */
class SweepJournal
{
  public:
    /** Start a fresh checkpoint at @p path (emptied at bind()). */
    static SweepJournal create(std::string path);

    /**
     * Resume from @p path: bind() reuses its matching records. A
     * missing or empty file degrades to a fresh store with a
     * warning.
     */
    static SweepJournal resume(std::string path);

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Bind to the sweep's job list: lock the journal, fingerprint
     * every job, and open the store at path(). A resume marks every
     * job whose fingerprint has a stored result as done -- unless
     * the result's benchmark, suite, config or memsys labels
     * disagree with the job, in which case the record is dropped
     * from the store and the job re-runs. A fresh checkpoint starts
     * from an empty store.
     *
     * @throws JournalError when a fresh checkpoint's file already
     *         holds a result for any job of this sweep, another
     *         process holds the store, or the file cannot be
     *         written
     */
    void bind(const std::vector<SweepJob> &jobs);

    /** True once bind() has run. runSweep() binds lazily, so a
     * caller that wants the resume summary (doneCount etc.) before
     * the sweep starts can bind() first; the engine then skips its
     * own bind instead of tripping the bound-twice assertion. */
    bool
    isBound() const
    {
        return bound;
    }

    /** The store's salvage diagnostics plus bind()'s own. */
    const std::vector<std::string> &
    warnings() const
    {
        return warns;
    }

    /** Jobs already completed by a previous run (after bind()). */
    std::size_t
    doneCount() const
    {
        return done_count;
    }

    /**
     * True when job @p index has a stored result (after bind(): a
     * reusable one from a previous run). This and doneResult() read
     * the store unlocked, so call them before the sweep runs, not
     * alongside record().
     */
    bool
    isDone(std::size_t index) const
    {
        return index < fingerprints.size() &&
               store.has(fingerprints[index]);
    }

    /** The stored result for a done job. */
    const RunResult &
    doneResult(std::size_t index) const
    {
        return store.get(fingerprints[index]);
    }

    /**
     * Put job @p index's completed result into the store, which
     * flushes it to the OS so a SIGKILL cannot lose it. Thread-safe.
     * Invalid (failed) results are not stored -- a resumed sweep
     * must retry them. A failed append (disk full) loses only that
     * record; it is surfaced through writeError(), never by throwing
     * mid-sweep, and a resume re-runs the lost job.
     */
    void record(std::size_t index, const RunResult &run);

    /** Names the append failure, or empty when all appends
     * succeeded. */
    const std::string &
    writeError() const
    {
        return write_error;
    }

    const std::string &
    path() const
    {
        return file_path;
    }

  private:
    SweepJournal(std::string path_, bool resume_)
        : file_path(std::move(path_)), resuming(resume_)
    {}

    std::string file_path;
    bool resuming = false;
    bool bound = false;
    /** Taken at bind() and held until destruction: concurrent
     * writers of one store (another sweep, or a daemon serving it)
     * are refused. */
    serve::StoreLock lock;

    /** Guards store and write_error during the sweep: record() runs
     * on worker threads, and the store is not thread-safe. */
    std::mutex write_mutex;
    serve::JobStore store;
    std::string write_error;

    std::vector<std::string> fingerprints; // per job index
    std::size_t done_count = 0;
    std::vector<std::string> warns;
};

} // namespace nosq

#endif // NOSQ_SIM_JOURNAL_HH
