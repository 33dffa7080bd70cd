/**
 * @file
 * The persistent fingerprint -> result store: the one durable home
 * for completed sweep results.
 *
 * One JSONL file ("nosq-store-v1"), append-only while in use,
 * compacted on load. It is the warm cache behind nosq_sweepd and,
 * through SweepJournal (sim/journal.hh), the file `nosq_sim
 * --checkpoint`/`--resume` write and read, so a checkpoint file can
 * back a daemon and a daemon's store can be resumed:
 *
 *   {"schema":"nosq-store-v1"}
 *   {"fp":"<hex16>","run":{benchmark, suite, config, valid, stats}}
 *   ...
 *
 * Each "fp" is jobFingerprint() -- a hash of the full job tuple --
 * and each "run" is runResultRecord(), which runResultFromJson()
 * restores bit-identically. Records of older stores, spaced the way
 * the report emitter spaces them, load the same way.
 *
 * Durability: every put() is flushed to the OS immediately, so a
 * SIGKILL loses at most an in-flight record. open() salvages rather
 * than aborts: a torn final line is dropped, each record is
 * validated individually (malformed, invalid and duplicate records
 * are skipped with a warning; the first record of a fingerprint
 * wins), and a file whose header is missing or wrong is kept aside
 * at "<path>.corrupt" before the store starts fresh. The file is
 * then rewritten compacted via tmp + fsync + rename.
 */

#ifndef NOSQ_SERVE_JOB_STORE_HH
#define NOSQ_SERVE_JOB_STORE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/experiment.hh"

namespace nosq {
namespace serve {

class JobStore
{
  public:
    JobStore() = default;
    ~JobStore();
    JobStore(const JobStore &) = delete;
    JobStore &operator=(const JobStore &) = delete;

    /**
     * Open (creating if missing) the store at @p path, salvage its
     * records, compact, and keep the file open for appends.
     * Salvage diagnostics land in warnings().
     * @return false with @p error set when the path is unusable
     */
    bool open(const std::string &path, std::string &error);

    /** True when @p fp has a stored result. */
    bool has(const std::string &fp) const;

    /** The stored result for @p fp (has() must be true). */
    const RunResult &get(const std::string &fp) const;

    /**
     * Record @p run under @p fp and flush it to the OS. Results
     * that fail statsValid() are not persisted (a failed job must
     * re-run, and a record the emitter would mark invalid would be
     * skipped by every later load). Duplicate fingerprints
     * keep the first record. A failed append loses only that one
     * record on disk (the in-memory copy still serves; a restarted
     * daemon re-executes the job) and is counted in
     * appendFailures() -- later appends are attempted normally.
     */
    void put(const std::string &fp, const RunResult &run);

    /** Forget the result for @p fp (if any) in memory; the next
     * compact() drops it from the file. */
    void erase(const std::string &fp);

    /** Forget every result in memory; the next compact() leaves a
     * header-only file. */
    void clear();

    /**
     * Rewrite the live file as header + one record per result via
     * tmp + fsync + rename (the same idiom open() uses), then
     * reopen it for appends. Heals dropped appends and trims
     * whatever salvage tolerated. @return false with @p error set
     * when the rewrite fails (the old file stays in place)
     */
    bool compact(std::string &error);

    /** Appends that failed to reach the file (records lost on
     * disk until the next compact()). */
    std::uint64_t
    appendFailures() const
    {
        return append_failures;
    }

    std::size_t
    size() const
    {
        return results.size();
    }

    const std::vector<std::string> &
    warnings() const
    {
        return warns;
    }

    const std::string &
    path() const
    {
        return file_path;
    }

    /** The append descriptor; -1 when the file is not open. A
     * forked child that must not hold the store open closes it. */
    int
    descriptor() const
    {
        return file != nullptr ? fileno(file) : -1;
    }

  private:
    std::string file_path;
    std::FILE *file = nullptr;
    std::unordered_map<std::string, RunResult> results;
    std::vector<std::string> warns;
    std::uint64_t append_failures = 0;
};

/**
 * One process's exclusive claim on a store file: an flock()ed
 * "<path>.lock" sidecar, held from acquire() until destruction. A
 * store has one writer at a time -- a local checkpoint run or a
 * daemon -- because a second writer's compaction rename would orphan
 * the inode the first one appends to. The sidecar, not the store, is
 * locked because that rename replaces the store's inode.
 *
 * A process that forks children which must not outlive the claim
 * (nosq_sweepd's workers) closes descriptor() in each child.
 */
class StoreLock
{
  public:
    StoreLock() = default;
    ~StoreLock();
    StoreLock(const StoreLock &) = delete;
    StoreLock &operator=(const StoreLock &) = delete;

    /**
     * Lock the sidecar of the store at @p store_path. A holder that
     * was just SIGKILLed can take a few milliseconds to drop its
     * descriptors, so a held lock is retried for about a second
     * before giving up; a live holder keeps it far longer.
     * @return false with @p error set when another process holds the
     *         lock or the sidecar cannot be opened
     */
    bool acquire(const std::string &store_path, std::string &error);

    /** The locked sidecar's descriptor; -1 when not held. */
    int
    descriptor() const
    {
        return lock_fd;
    }

  private:
    std::string lock_path;
    int lock_fd = -1;
};

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_JOB_STORE_HH
