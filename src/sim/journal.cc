#include "sim/journal.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "memsys/coherence.hh"
#include "serve/job_store.hh"
#include "sim/report.hh"

namespace nosq {

namespace {

// --- fingerprinting --------------------------------------------------------

// The FNV-1a accumulator lives in common/fnv.hh (shared with the
// program cache); the byte-feeding discipline there must stay
// stable, because the fingerprints below are persisted in stores.

/** Every UarchParams field, nested component configs included. */
void
hashParams(Fnv &fnv, const UarchParams &p)
{
    // forEachUarchField owns the key names and the visit order, and
    // both are persisted in stored fingerprints: its contract (keys
    // stable, new fields appended) is what keeps old stores
    // resumable. The serve wire form iterates the same enumeration,
    // so a daemon-side fingerprint can never disagree with ours.
    forEachUarchField(p, [&fnv](const char *key, const auto &v) {
        fnv.field(key, static_cast<std::uint64_t>(v));
    });
}

} // anonymous namespace

// --- one-line record (de)serialization -------------------------------------
//
// Public (journal.hh): the result store persists, and the serving
// protocol transports, results in this exact record shape.

std::string
runResultJsonLine(const RunResult &run)
{
    std::string json = toJson(run);
    json.erase(std::remove(json.begin(), json.end(), '\n'),
               json.end());
    return json;
}

std::string
runResultRecord(const RunResult &run)
{
    // The emitter writes only spaces and newlines between tokens;
    // inside a string literal every byte is kept, so a label with
    // spaces survives.
    const std::string json = toJson(run);
    std::string out;
    out.reserve(json.size());
    bool in_string = false, escaped = false;
    for (const char c : json) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == ' ' || c == '\n') {
            continue;
        }
        out += c;
    }
    return out;
}

/**
 * Rejects a corrupt "-1", "1e300", or "123.5" so the record is
 * skipped and its job re-runs.
 */
bool
jsonExactCounter(const JsonValue &v, std::uint64_t &out)
{
    if (v.kind != JsonValue::Kind::Number)
        return false;
    const double d = v.number;
    // Strictly below 2^53: at exactly 2^53 the double may already
    // be a rounded 2^53+1, so the value is no longer provably the
    // one that was written.
    if (!(d >= 0.0) || d >= 9007199254740992.0 /* 2^53 */ ||
        d != std::floor(d))
        return false;
    out = static_cast<std::uint64_t>(d);
    return true;
}

namespace {

/**
 * Restore the stored rows of @p section from @p stats (keys prefixed
 * by @p prefix) into @p out. Derived rows are skipped: the accessors
 * recompute them. jsonNumber() emits shortest-round-trip doubles, so
 * a real row restores the exact bit pattern.
 */
template <typename Owner, std::size_t N>
bool
loadStatRows(const JsonValue &stats, const StatRow<Owner> (&rows)[N],
             StatSection section, const std::string &prefix,
             Owner &out)
{
    for (const StatRow<Owner> &row : rows) {
        if (row.section != section || row.key == nullptr ||
            row.derived != nullptr)
            continue;
        const JsonValue *field = stats.find(prefix + row.key);
        if (field == nullptr)
            return false;
        if (row.counter != nullptr) {
            if (!jsonExactCounter(*field, out.*row.counter))
                return false;
        } else if (field->kind == JsonValue::Kind::Number) {
            out.*row.real = field->number;
        } else {
            return false;
        }
    }
    return true;
}

} // anonymous namespace

/**
 * The counters are exact: they were emitted via std::to_string and
 * stay integral through the parser's double (all simulator counters
 * are far below 2^53). The derived statistics are ignored --
 * SimResult recomputes them.
 */
bool
runResultFromJson(const JsonValue &v, RunResult &out)
{
    if (v.kind != JsonValue::Kind::Object)
        return false;
    const JsonValue *benchmark = v.find("benchmark");
    const JsonValue *suite = v.find("suite");
    const JsonValue *config = v.find("config");
    const JsonValue *valid = v.find("valid");
    const JsonValue *stats = v.find("stats");
    if (!benchmark || benchmark->kind != JsonValue::Kind::String ||
        !suite || suite->kind != JsonValue::Kind::String ||
        !config || config->kind != JsonValue::Kind::String ||
        !valid || valid->kind != JsonValue::Kind::Bool ||
        !stats || stats->kind != JsonValue::Kind::Object)
        return false;
    out.benchmark = benchmark->string;
    if (!suiteFromName(suite->string, out.suite))
        return false;
    out.config = config->string;
    // Optional hierarchy label (memsys sweeps): must round-trip, or
    // a resumed report would drop the field and no longer be
    // byte-identical to an uninterrupted run's.
    const JsonValue *memsys = v.find("memsys");
    if (memsys != nullptr) {
        if (memsys->kind != JsonValue::Kind::String)
            return false;
        out.memsys = memsys->string;
    }
    out.valid = valid->boolean;

    // The same table the emitter and validator iterate, so a new
    // statistic cannot be silently dropped here. An optional section
    // is present when its first key is: records of runs without it
    // omit it whole, and a present section must restore every row
    // or a resumed report would no longer be byte-identical.
    for (const StatSection section : stat_sections) {
        const auto flag = statSectionFlag(section);
        if (flag != nullptr) {
            const auto first = std::find_if(
                std::begin(sim_stat_rows), std::end(sim_stat_rows),
                [&](const StatRow<SimResult> &row) {
                    return row.section == section &&
                           row.key != nullptr;
                });
            if (stats->find(first->key) == nullptr)
                continue;
            out.sim.*flag = true;
        }
        if (!loadStatRows(*stats, sim_stat_rows, section, "",
                          out.sim))
            return false;
    }
    if (!out.sim.multicore)
        return true;
    // A corrupt core count must skip the record, not size the
    // per-core breakdown.
    if (out.sim.numCores < 1 || out.sim.numCores > max_cores)
        return false;
    out.sim.perCore.assign(out.sim.numCores, {});
    for (std::size_t i = 0; i < out.sim.perCore.size(); ++i) {
        if (!loadStatRows(*stats, per_core_stat_rows,
                          StatSection::Multicore,
                          "core" + std::to_string(i) + "_",
                          out.sim.perCore[i]))
            return false;
    }
    return true;
}

std::string
jobFingerprint(const SweepJob &job)
{
    Fnv fnv;
    fnv.text("nosq-job-v1");
    fnv.text(job.profile ? job.profile->name : job.benchmark);
    fnv.text(suiteName(job.profile ? job.profile->suite
                                   : job.suite));
    fnv.text(job.config);
    fnv.field("seed", job.seed);
    fnv.field("insts", job.insts);
    fnv.field("warmup", job.warmup);
    fnv.field("cores", job.cores);
    fnv.field("qdepth", job.queueDepth);
    fnv.field("smp.on", job.sampling.enabled);
    fnv.field("smp.ff", job.sampling.ffLength);
    fnv.field("smp.warm", job.sampling.warmupLength);
    fnv.field("smp.int", job.sampling.interval);
    fnv.field("smp.n", job.sampling.intervals);
    fnv.field("smp.seed", job.sampling.seed);
    // The callable itself is unhashable; runnerTag is the caller's
    // stand-in identity for it (two studies with different runners
    // over identical tuples must not share a journal).
    fnv.field("runner", job.runner ? 1 : 0);
    fnv.text(job.runnerTag);
    fnv.text(job.memsysLabel);
    hashParams(fnv, job.params);
    return fnv.hex();
}

// --- SweepJournal ----------------------------------------------------------

SweepJournal
SweepJournal::create(std::string path)
{
    return SweepJournal(std::move(path), /*resume=*/false);
}

SweepJournal
SweepJournal::resume(std::string path)
{
    return SweepJournal(std::move(path), /*resume=*/true);
}

void
SweepJournal::bind(const std::vector<SweepJob> &jobs)
{
    nosq_assert(!bound, "journal bound twice");
    bound = true;

    // Inter-process exclusion before any read or rewrite: two
    // concurrent writers of one store would silently lose each
    // other's records (serve::StoreLock).
    std::string error;
    if (!lock.acquire(file_path, error))
        throw JournalError(error);

    fingerprints.clear();
    fingerprints.reserve(jobs.size());
    for (const SweepJob &job : jobs)
        fingerprints.push_back(jobFingerprint(job));
    done_count = 0;

    if (resuming) {
        struct stat st;
        if (::stat(file_path.c_str(), &st) != 0)
            warns.push_back("journal '" + file_path +
                            "' not found; starting fresh");
        else if (st.st_size == 0)
            warns.push_back("journal '" + file_path +
                            "' is empty; starting fresh");
    }
    if (!store.open(file_path, error))
        throw JournalError(error);
    warns.insert(warns.end(), store.warnings().begin(),
                 store.warnings().end());

    // Whether bind() dropped results the file still holds.
    bool dropped = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!store.has(fingerprints[i]))
            continue;
        // A fresh --checkpoint over results of this very sweep is
        // almost always a re-typed command that meant --resume;
        // emptying the file would silently destroy completed jobs.
        if (!resuming) {
            throw JournalError(
                "'" + file_path + "' already holds results of this "
                "sweep; resume it (--resume) instead of overwriting, "
                "or delete the file first");
        }
        // Identical job tuples produce identical results (the
        // engine's determinism contract), so one record serves every
        // job index sharing its fingerprint -- but a record whose
        // labels disagree with the job must never merge into the
        // report (it would land in the wrong reductions group).
        const RunResult &run = store.get(fingerprints[i]);
        const SweepJob &job = jobs[i];
        if (run.benchmark !=
                (job.profile ? job.profile->name : job.benchmark) ||
            run.suite != (job.profile ? job.profile->suite
                                      : job.suite) ||
            run.config != job.config ||
            run.memsys != job.memsysLabel) {
            warns.push_back("journal record " + fingerprints[i] +
                            " labels disagree with its job; the job "
                            "will re-run");
            store.erase(fingerprints[i]);
            dropped = true;
            continue;
        }
        ++done_count;
    }
    // Any other results at a fresh checkpoint's path are dropped as
    // requested.
    if (!resuming && store.size() != 0) {
        store.clear();
        dropped = true;
    }
    // Rewrite the file without the dropped records, so the re-run's
    // result is the first (and only) one a later load sees.
    if (dropped && !store.compact(error))
        throw JournalError(error);
}

void
SweepJournal::record(std::size_t index, const RunResult &run)
{
    nosq_assert(bound && index < fingerprints.size(),
                "record() before bind() or out of range");
    std::lock_guard<std::mutex> lock(write_mutex);
    // put() skips failed jobs (a resumed sweep must retry them) and
    // repeats of a fingerprint (duplicate tuples share one record).
    const std::uint64_t failures = store.appendFailures();
    store.put(fingerprints[index], run);
    if (store.appendFailures() != failures && write_error.empty()) {
        write_error = "journal append to '" + file_path +
            "' failed; --resume re-runs the unpersisted job(s)";
    }
}

} // namespace nosq
