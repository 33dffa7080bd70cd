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
 *       "stats": {
 *         "cycles": ..., "insts": ..., "ipc": ...,
 *         "loads": ..., "stores": ..., "branches": ...,
 *         "comm_loads": ..., "partial_comm_loads": ...,
 *         "bypassed_loads": ..., "shift_uops": ...,
 *         "delayed_loads": ..., "bypass_mispredicts": ...,
 *         "reexec_loads": ..., "load_flushes": ...,
 *         "dcache_reads_core": ..., "dcache_reads_backend": ...,
 *         "dcache_writes": ..., "branch_mispredicts": ...,
 *         "sq_forwards": ..., "sq_stalls": ..., "ssn_wrap_drains": ...,
 *         "l1i_hits": ..., "l1i_misses": ...,
 *         "l1d_hits": ..., "l1d_misses": ..., "l1d_writebacks": ...,
 *         "l2_hits": ..., "l2_misses": ..., "l2_writebacks": ...,
 *         "itlb_hits": ..., "itlb_misses": ...,
 *         "dtlb_hits": ..., "dtlb_misses": ...,
 *         "mshr_merges": ..., "mshr_stalls": ...,
 *         "pref_issued": ..., "pref_useful": ..., "miss_cycles": ...,
 *         "l1d_mpki": ..., "l2_mpki": ...,
 *         "avg_miss_latency": ..., "pref_accuracy": ...,
 *         "sample_intervals": ..., "sample_ff_insts": ...,  // sampled
 *         "sample_ipc_mean": ..., "sample_ipc_ci95": ...    // runs only
 *       }
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
 * Visit every integer counter of a SimResult, in the emission order
 * of toJson(SimResult): fn(key, member). This is the single source
 * of truth for the counter set -- the JSON emitter, the schema
 * validator's key list, and the journal's record loader all iterate
 * it, so adding a SimResult counter means extending only this list
 * (derived statistics are listed by forEachDerivedStat()).
 */
template <typename SimResultT, typename Fn>
void
forEachSimCounter(SimResultT &r, Fn &&fn)
{
    fn("cycles", r.cycles);
    fn("insts", r.insts);
    fn("loads", r.loads);
    fn("stores", r.stores);
    fn("branches", r.branches);
    fn("comm_loads", r.commLoads);
    fn("partial_comm_loads", r.partialCommLoads);
    fn("bypassed_loads", r.bypassedLoads);
    fn("shift_uops", r.shiftUops);
    fn("delayed_loads", r.delayedLoads);
    fn("bypass_mispredicts", r.bypassMispredicts);
    fn("reexec_loads", r.reexecLoads);
    fn("load_flushes", r.loadFlushes);
    fn("dcache_reads_core", r.dcacheReadsCore);
    fn("dcache_reads_backend", r.dcacheReadsBackend);
    fn("dcache_writes", r.dcacheWrites);
    fn("branch_mispredicts", r.branchMispredicts);
    fn("sq_forwards", r.sqForwards);
    fn("sq_stalls", r.sqStalls);
    fn("ssn_wrap_drains", r.ssnWrapDrains);
    fn("l1i_hits", r.l1iHits);
    fn("l1i_misses", r.l1iMisses);
    fn("l1d_hits", r.l1dHits);
    fn("l1d_misses", r.l1dMisses);
    fn("l1d_writebacks", r.l1dWritebacks);
    fn("l2_hits", r.l2Hits);
    fn("l2_misses", r.l2Misses);
    fn("l2_writebacks", r.l2Writebacks);
    fn("itlb_hits", r.itlbHits);
    fn("itlb_misses", r.itlbMisses);
    fn("dtlb_hits", r.dtlbHits);
    fn("dtlb_misses", r.dtlbMisses);
    fn("mshr_merges", r.mshrMerges);
    fn("mshr_stalls", r.mshrStalls);
    fn("pref_issued", r.prefIssued);
    fn("pref_useful", r.prefUseful);
    fn("miss_cycles", r.missCycles);
}

/**
 * Visit every derived statistic of a SimResult, in the emission
 * order of toJson(SimResult): fn(key, value). The single source of
 * truth for the derived keys, as forEachSimCounter is for the
 * counters: the emitter, the validator's key lists and the docs
 * drift gate all iterate it. "ipc" is a required key, the rest are
 * additive-optional.
 */
template <typename Fn>
void
forEachDerivedStat(const SimResult &r, Fn &&fn)
{
    fn("ipc", r.ipc());
    fn("l1d_mpki", r.l1dMpki());
    fn("l2_mpki", r.l2Mpki());
    fn("avg_miss_latency", r.avgMissLatency());
    fn("pref_accuracy", r.prefetchAccuracy());
}

/**
 * Visit the coherence counters of a multicore SimResult, in emission
 * order: fn(key, member). Same single-source-of-truth contract as
 * forEachSimCounter, but for the additive-optional keys emitted only
 * when r.multicore is set -- the emitter, the validator's optional
 * list, the journal loader, and the docs drift gate all iterate it.
 * (Deliberately NOT folded into forEachSimCounter: that would emit
 * the keys on every single-core run and break the --cores=1
 * byte-identity guarantee.)
 */
template <typename SimResultT, typename Fn>
void
forEachCoherenceCounter(SimResultT &r, Fn &&fn)
{
    fn("coh_invalidations", r.cohInvalidations);
    fn("coh_c2c_transfers", r.cohC2cTransfers);
    fn("coh_upgrade_misses", r.cohUpgradeMisses);
}

/**
 * Visit the counters of one per-core breakdown entry, in emission
 * order: fn(key, member). Emitted (and journaled, and documented) as
 * "core<i>_<key>".
 */
template <typename PerCoreT, typename Fn>
void
forEachPerCoreCounter(PerCoreT &c, Fn &&fn)
{
    fn("cycles", c.cycles);
    fn("insts", c.insts);
    fn("loads", c.loads);
    fn("stores", c.stores);
    fn("bypassed_loads", c.bypassedLoads);
}

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

/** Serialize one SimResult as a JSON object. */
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
