/**
 * @file
 * JSON stats reporting for sweep results.
 *
 * Serializes RunResult/SimResult to a stable, versioned schema
 * ("nosq-sweep-v2") so external tooling can track benchmark
 * trajectories (BENCH_*.json) across commits, plus a small
 * self-contained JSON parser used by tests and the CI smoke check to
 * validate emitted output without external dependencies.
 *
 * Schema:
 * {
 *   "schema": "nosq-sweep-v2",
 *   "insts": <measured instructions per run>,
 *   "baseline": "<config the reductions normalize against>",
 *   "runs": [
 *     {
 *       "benchmark": "gcc",
 *       "suite": "SPECint",
 *       "config": "nosq/w128",
 *       "memsys": "l2-1M-lat10-mshr8",   // hierarchy label;
 *                                        // omitted when unset
 *       "valid": true,
 *       "stats": {   // one member per keyed row of sim_stat_rows
 *         ...        // (ooo/sim_stats.hh) in a present section,
 *       }            // then "core<i>_*" per-core rows
 *     }, ...
 *   ],
 *   "reductions": {
 *     "<suite|overall>": {
 *       "<config>": {
 *         "runs": <runs aggregated>,
 *         "rel_time": {"geomean": ..., "amean": ...},
 *         "cache_reads": {"geomean": ..., "amean": ...},
 *         "reexec_rate": {"geomean": ..., "amean": ...}
 *       }, ...
 *     }, ...
 *   }
 * }
 *
 * Invalid runs (valid == false) carry all-zero stats and are
 * excluded from every reduction. Non-finite statistics are emitted
 * as JSON null, never as a fake finite number.
 */

#ifndef NOSQ_SIM_REPORT_HH
#define NOSQ_SIM_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace nosq {

// --- reductions ------------------------------------------------------------

/**
 * The single validity predicate shared by the emitter (the per-run
 * "valid" flag), the reductions (which aggregate only valid runs),
 * and the journal (which must never append a record that would
 * serialize as invalid and be discarded on every resume). Today
 * ipc() is guarded against cycles == 0, so the finiteness check is
 * defense-in-depth for future derived statistics.
 */
bool statsValid(const RunResult &r);

/** Geomean/amean pair over one per-benchmark series. */
struct MeanPair
{
    double geomean = 0.0;
    double amean = 0.0;
};

/** Per-configuration aggregates within one suite (or overall). */
struct ReductionStats
{
    /** Valid runs aggregated into this cell. */
    std::size_t runs = 0;
    /** Execution time relative to the baseline config (NaN when the
     * group has no usable baseline run). */
    MeanPair relTime;
    /** Total data cache reads relative to the baseline config. */
    MeanPair cacheReads;
    /** Absolute re-execution rate (re-executed loads / loads). */
    MeanPair reexecRate;
};

/** Engine-computed per-suite and overall sweep reductions. */
struct SweepReductions
{
    /** Config every relative series normalizes against. */
    std::string baseline;
    /** (suite name or "overall") -> (config -> stats), in first-
     * appearance order; "overall" is always last. */
    std::vector<std::pair<
        std::string,
        std::vector<std::pair<std::string, ReductionStats>>>> groups;
};

/**
 * Reduce @p results per suite and overall. Relative series divide
 * each benchmark's stat by the same benchmark's run under
 * @p baseline_config (empty: the config of the first result). In a
 * window cross-product (config names ending "/wNNN") each run
 * normalizes against the baseline mode on its own machine size, so
 * the two machines are never mixed. Invalid runs (failed or
 * non-finite) and benchmarks without a valid baseline run are
 * excluded; a cell with no usable data reduces to NaN.
 */
SweepReductions
computeReductions(const std::vector<RunResult> &results,
                  const std::string &baseline_config = "");

// --- emission --------------------------------------------------------------

/**
 * Write @p contents to @p path, failing loudly on any short write
 * (full disk, quota): a truncated report would poison trajectory
 * tooling. On failure, prints a message to stderr naming @p path.
 * @return true on a complete, clean write
 */
bool writeTextFile(const std::string &path,
                   const std::string &contents);

/** Escape @p s for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Shortest round-tripping JSON literal for @p v. Non-finite values
 * serialize as "null" -- JSON has no NaN/Inf, and rewriting them to
 * a finite number would poison trajectory comparisons.
 */
std::string jsonNumber(double v);

/**
 * Serialize one SimResult as a JSON object: the rows of
 * sim_stat_rows (ooo/sim_stats.hh) that have a key, section by
 * section, then the per-core rows of a multicore result.
 */
std::string toJson(const SimResult &r, int indent = 0);

/** Serialize one RunResult (benchmark/suite/config + stats). */
std::string toJson(const RunResult &r, int indent = 0);

/**
 * Serialize a full sweep to the nosq-sweep-v2 schema, reductions
 * included.
 * @param insts the per-run measured instruction count recorded in
 *        the report header
 * @param baseline_config reduction baseline (empty: the config of
 *        the first result)
 */
std::string sweepReportJson(const std::vector<RunResult> &results,
                            std::uint64_t insts,
                            const std::string &baseline_config = "");

// --- parsing ---------------------------------------------------------------

/** A parsed JSON value (objects preserve key order). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Object member lookup; nullptr if absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** number, asserted integral-safe convenience accessor. */
    std::uint64_t
    asU64() const
    {
        return static_cast<std::uint64_t>(number);
    }
};

/**
 * Parse @p text as a single JSON document.
 *
 * Supports the full emitted subset: objects, arrays, strings with
 * escapes, numbers (including exponents), true/false/null.
 *
 * @return true on success; on failure @p error (if non-null) gets a
 *         position-annotated message
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

/**
 * Validate a parsed document against the nosq-sweep-v2 schema:
 * schema tag, header fields, per-run shape (benchmark/suite/config
 * strings, valid flag, numeric-or-null stats), and the reductions
 * section (per-group per-config cells with runs + the three
 * geomean/amean pairs).
 *
 * @return true if valid; on failure @p error (if non-null) explains
 *         the first violation
 */
bool validateSweepReport(const JsonValue &doc,
                         std::string *error = nullptr);

} // namespace nosq

#endif // NOSQ_SIM_REPORT_HH
