/**
 * @file
 * End-of-run statistics reported by the timing core.
 */

#ifndef NOSQ_OOO_SIM_STATS_HH
#define NOSQ_OOO_SIM_STATS_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "memsys/hierarchy.hh"

namespace nosq {

/**
 * Aggregate counters for one simulation run. The memory-hierarchy
 * counters are its MemSysStats base (windowMemSysStats()).
 */
struct SimResult : MemSysStats
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;

    // --- oracle communication (Table 5 left columns) ------------------
    std::uint64_t commLoads = 0;
    std::uint64_t partialCommLoads = 0;

    // --- NoSQ behaviour -------------------------------------------------
    std::uint64_t bypassedLoads = 0;  // SMB short-circuited
    std::uint64_t shiftUops = 0;      // partial-word bypasses
    std::uint64_t delayedLoads = 0;   // confidence-delayed
    std::uint64_t bypassMispredicts = 0; // flushes from load values

    // --- verification ----------------------------------------------------
    std::uint64_t reexecLoads = 0;
    std::uint64_t loadFlushes = 0;

    // --- data cache traffic (Figure 4) -----------------------------------
    std::uint64_t dcacheReadsCore = 0;
    std::uint64_t dcacheReadsBackend = 0;
    std::uint64_t dcacheWrites = 0;

    // --- front end --------------------------------------------------------
    std::uint64_t branchMispredicts = 0;

    // --- baseline LSU -------------------------------------------------------
    std::uint64_t sqForwards = 0;
    std::uint64_t sqStalls = 0;

    // --- rare events --------------------------------------------------------
    std::uint64_t ssnWrapDrains = 0;

    // --- simulator diagnostics (a stats-table-only row of
    // --- sim_stat_rows: event skipping is a pure wall-clock
    // --- optimization and must not perturb report bytes) ------------
    /** Quiescent cycles fast-forwarded by event-driven skipping;
     * always included in `cycles`, so IPC is unaffected. */
    std::uint64_t skippedCycles = 0;

    // --- sampled-simulation estimate (OooCore::runSampled; the
    // --- Sampled section of sim_stat_rows, reported only when
    // --- `sampled` is set) ------------------------------------------
    /** True when the counters are sums over measured intervals of a
     * sampled run rather than one contiguous detailed region. */
    bool sampled = false;
    /** Measured intervals that contributed to the estimate. */
    std::uint64_t sampleIntervals = 0;
    /** Instructions functionally fast-forwarded between intervals. */
    std::uint64_t sampleFfInsts = 0;
    /** IPC estimate: reciprocal of the mean per-interval CPI (with
     * fixed-length intervals, mean CPI is exactly the aggregate
     * CPI, so this is consistent with insts/cycles). */
    double sampleIpcMean = 0.0;
    /** 95% confidence half-width of the IPC estimate (Student's t
     * on the per-interval CPIs, delta-method-propagated through the
     * reciprocal). */
    double sampleIpcCi95 = 0.0;

    // --- multi-core run (sim/system.hh; the Multicore section of
    // --- sim_stat_rows, reported only when `multicore` is set, so
    // --- single-core reports stay byte-identical) --------------------
    /** True when the counters are lockstep-aggregated over an N-core
     * System rather than one private core. */
    bool multicore = false;
    /** Cores in the System (0 for single-core runs). */
    std::uint64_t numCores = 0;
    /** Remote private-L1 copies dropped by exclusivity requests. */
    std::uint64_t cohInvalidations = 0;
    /** Misses served by a remote core's Modified line. */
    std::uint64_t cohC2cTransfers = 0;
    /** Writes that hit a locally Shared line and paid an
     * upgrade-invalidate round. */
    std::uint64_t cohUpgradeMisses = 0;
    /** Per-core breakdown (cycles are lockstep-identical across
     * cores; the rest differ). */
    struct PerCore
    {
        std::uint64_t cycles = 0;
        std::uint64_t insts = 0;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t bypassedLoads = 0;
    };
    std::vector<PerCore> perCore;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(insts) / cycles : 0.0;
    }

    /** Data-cache reads of the core and the back end together. */
    double
    dcacheReads() const
    {
        return static_cast<double>(dcacheReadsCore + dcacheReadsBackend);
    }

    double
    l1dMpki() const
    {
        return insts
            ? 1000.0 * static_cast<double>(l1dMisses) / insts : 0.0;
    }

    double
    l2Mpki() const
    {
        return insts
            ? 1000.0 * static_cast<double>(l2Misses) / insts : 0.0;
    }

    /** Mean end-to-end latency of L1D demand misses, in cycles. */
    double
    avgMissLatency() const
    {
        return l1dMisses
            ? static_cast<double>(missCycles) / l1dMisses : 0.0;
    }

    /** Fraction of prefetched lines that saw a demand hit. */
    double
    prefetchAccuracy() const
    {
        return prefIssued
            ? static_cast<double>(prefUseful) / prefIssued : 0.0;
    }

    double
    mispredictsPer10kLoads() const
    {
        return loads
            ? 10000.0 * static_cast<double>(bypassMispredicts) / loads
            : 0.0;
    }

    double
    pctLoadsDelayed() const
    {
        return loads
            ? 100.0 * static_cast<double>(delayedLoads) / loads
            : 0.0;
    }

    double
    pctCommLoads() const
    {
        return loads
            ? 100.0 * static_cast<double>(commLoads) / loads : 0.0;
    }

    double
    pctPartialCommLoads() const
    {
        return loads
            ? 100.0 * static_cast<double>(partialCommLoads) / loads
            : 0.0;
    }

    double
    reexecRate() const
    {
        return loads
            ? static_cast<double>(reexecLoads) / loads : 0.0;
    }
};

// --- the statistics table ----------------------------------------------------

/**
 * The report section a statistic belongs to. Base rows describe every
 * result; the other sections appear only on results that set their
 * flag (statSectionFlag), so exact single-core reports never carry
 * them.
 */
enum class StatSection
{
    Base,
    Sampled,
    Multicore,
};

/** Every section, in report order. */
inline constexpr StatSection stat_sections[] = {
    StatSection::Base, StatSection::Sampled, StatSection::Multicore,
};

/** The flag marking section @p s present; nullptr for Base. */
constexpr bool SimResult::*
statSectionFlag(StatSection s)
{
    return s == StatSection::Sampled     ? &SimResult::sampled
           : s == StatSection::Multicore ? &SimResult::multicore
                                         : nullptr;
}

/**
 * One reported statistic of an @p Owner (a SimResult, or one of its
 * per-core entries). Exactly one of counter, real and derived is set:
 * counters and reals are restored from stored records, derived
 * values are recomputed from the counters.
 */
template <typename Owner>
struct StatRow
{
    /** Key in the nosq-sweep-v2 "stats" object; nullptr for a row
     * only the single-run stats table shows. */
    const char *key;
    /** Single-run stats-table label; nullptr for a JSON-only row. */
    const char *label;
    StatSection section;
    std::uint64_t Owner::*counter;
    double Owner::*real;
    double (Owner::*derived)() const;
    /** Stats-table decimals and multiplier of a non-counter row. */
    int precision;
    double scale;
    /** v2 has required the key since the schema was introduced;
     * every later key is additive-optional. */
    bool required;

    /** The value in @p o as a double (counters included). */
    double
    valueOf(const Owner &o) const
    {
        if (counter != nullptr)
            return static_cast<double>(o.*counter);
        return real != nullptr ? o.*real : (o.*derived)();
    }
};

/** The row owner of a counter of @p Member: SimResult for its own
 * counters and its MemSysStats base's. */
template <typename Member>
using StatOwner = std::conditional_t<std::is_base_of_v<Member, SimResult>,
                                     SimResult, Member>;

template <typename Member>
constexpr StatRow<StatOwner<Member>>
statCounter(const char *key, const char *label,
            std::uint64_t Member::*counter,
            StatSection section = StatSection::Base)
{
    return {key, label, section, counter, nullptr, nullptr, 0, 1.0,
            false};
}

constexpr StatRow<SimResult>
statReal(const char *key, const char *label, double SimResult::*real,
         int precision, StatSection section)
{
    return {key, label, section, nullptr, real, nullptr, precision,
            1.0, false};
}

constexpr StatRow<SimResult>
statDerived(const char *key, const char *label,
            double (SimResult::*derived)() const, int precision,
            double scale = 1.0)
{
    return {key, label, StatSection::Base, nullptr, nullptr, derived,
            precision, scale, false};
}

/** @p row, marked required since v2 was introduced. */
constexpr StatRow<SimResult>
v2Required(StatRow<SimResult> row)
{
    row.required = true;
    return row;
}

/**
 * Every statistic a SimResult reports, declared once. The JSON
 * emitter writes each present section's counter and real rows and
 * then its derived rows; the schema validator, the record loader,
 * the single-run stats table (the rows with a label, in this order)
 * and the docs/counters.md check all iterate this table. Keys are
 * persisted in stores: never rename one, only append.
 */
inline constexpr StatRow<SimResult> sim_stat_rows[] = {
    v2Required(statCounter("cycles", "cycles", &SimResult::cycles)),
    v2Required(statCounter("insts", "instructions", &SimResult::insts)),
    v2Required(statDerived("ipc", "IPC", &SimResult::ipc, 3)),
    v2Required(statCounter("loads", "loads", &SimResult::loads)),
    v2Required(statCounter("stores", "stores", &SimResult::stores)),
    v2Required(
        statCounter("branches", "branches", &SimResult::branches)),
    v2Required(
        statCounter("comm_loads", nullptr, &SimResult::commLoads)),
    v2Required(statCounter("partial_comm_loads", nullptr,
                           &SimResult::partialCommLoads)),
    statDerived(nullptr, "comm loads %", &SimResult::pctCommLoads, 1),
    statDerived(nullptr, "partial-word comm %",
                &SimResult::pctPartialCommLoads, 1),
    v2Required(statCounter("bypassed_loads", "bypassed loads",
                           &SimResult::bypassedLoads)),
    v2Required(statCounter("shift_uops", "shift&mask uops",
                           &SimResult::shiftUops)),
    v2Required(statCounter("delayed_loads", "delayed loads",
                           &SimResult::delayedLoads)),
    v2Required(statCounter("bypass_mispredicts", "bypass mispredicts",
                           &SimResult::bypassMispredicts)),
    statDerived(nullptr, "mispredicts /10k loads",
                &SimResult::mispredictsPer10kLoads, 2),
    v2Required(statCounter("reexec_loads", "load re-executions",
                           &SimResult::reexecLoads)),
    statDerived(nullptr, "re-execution rate %", &SimResult::reexecRate,
                3, 100.0),
    v2Required(statCounter("load_flushes", "load value flushes",
                           &SimResult::loadFlushes)),
    v2Required(statCounter("dcache_reads_core", "dcache reads (core)",
                           &SimResult::dcacheReadsCore)),
    v2Required(statCounter("dcache_reads_backend",
                           "dcache reads (backend)",
                           &SimResult::dcacheReadsBackend)),
    v2Required(statCounter("dcache_writes", "dcache writes",
                           &SimResult::dcacheWrites)),
    v2Required(statCounter("branch_mispredicts", "branch mispredicts",
                           &SimResult::branchMispredicts)),
    v2Required(statCounter("sq_forwards", "SQ forwards",
                           &SimResult::sqForwards)),
    v2Required(statCounter("sq_stalls", "SQ partial-overlap stalls",
                           &SimResult::sqStalls)),
    v2Required(statCounter("ssn_wrap_drains", "SSN wrap drains",
                           &SimResult::ssnWrapDrains)),
    statCounter("l1i_hits", "L1I hits", &SimResult::l1iHits),
    statCounter("l1i_misses", "L1I misses", &SimResult::l1iMisses),
    statCounter("l1d_hits", "L1D hits", &SimResult::l1dHits),
    statCounter("l1d_misses", "L1D misses", &SimResult::l1dMisses),
    statCounter("l1d_writebacks", "L1D writebacks",
                &SimResult::l1dWritebacks),
    statDerived("l1d_mpki", "L1D MPKI", &SimResult::l1dMpki, 2),
    statCounter("l2_hits", "L2 hits", &SimResult::l2Hits),
    statCounter("l2_misses", "L2 misses", &SimResult::l2Misses),
    statCounter("l2_writebacks", "L2 writebacks",
                &SimResult::l2Writebacks),
    statDerived("l2_mpki", "L2 MPKI", &SimResult::l2Mpki, 2),
    statCounter("itlb_hits", nullptr, &SimResult::itlbHits),
    statCounter("itlb_misses", "ITLB misses", &SimResult::itlbMisses),
    statCounter("dtlb_hits", nullptr, &SimResult::dtlbHits),
    statCounter("dtlb_misses", "DTLB misses", &SimResult::dtlbMisses),
    statDerived("avg_miss_latency", "avg L1D miss latency",
                &SimResult::avgMissLatency, 1),
    statCounter("mshr_merges", "MSHR secondary merges",
                &SimResult::mshrMerges),
    statCounter("mshr_stalls", "MSHR occupancy stalls",
                &SimResult::mshrStalls),
    statCounter("pref_issued", "prefetch fills", &SimResult::prefIssued),
    statCounter("pref_useful", "prefetch useful",
                &SimResult::prefUseful),
    statDerived("pref_accuracy", "prefetch accuracy %",
                &SimResult::prefetchAccuracy, 1, 100.0),
    statCounter("miss_cycles", nullptr, &SimResult::missCycles),
    statCounter(nullptr, "cycles skipped (events)",
                &SimResult::skippedCycles),

    statCounter("sample_intervals", "sample intervals",
                &SimResult::sampleIntervals, StatSection::Sampled),
    statCounter("sample_ff_insts", "fast-forwarded insts",
                &SimResult::sampleFfInsts, StatSection::Sampled),
    statReal("sample_ipc_mean", "sampled IPC mean",
             &SimResult::sampleIpcMean, 3, StatSection::Sampled),
    statReal("sample_ipc_ci95", "sampled IPC 95% CI +/-",
             &SimResult::sampleIpcCi95, 3, StatSection::Sampled),

    statCounter("cores", "cores", &SimResult::numCores,
                StatSection::Multicore),
    statCounter("coh_invalidations", "coherence invalidations",
                &SimResult::cohInvalidations, StatSection::Multicore),
    statCounter("coh_c2c_transfers", "cache-to-cache transfers",
                &SimResult::cohC2cTransfers, StatSection::Multicore),
    statCounter("coh_upgrade_misses", "coherence upgrade misses",
                &SimResult::cohUpgradeMisses, StatSection::Multicore),
};

/**
 * The rows of each per-core entry of a multicore result, reported
 * as "core<i>_<key>" after the Multicore section's rows.
 */
inline constexpr StatRow<SimResult::PerCore> per_core_stat_rows[] = {
    statCounter("cycles", nullptr, &SimResult::PerCore::cycles,
                StatSection::Multicore),
    statCounter("insts", nullptr, &SimResult::PerCore::insts,
                StatSection::Multicore),
    statCounter("loads", nullptr, &SimResult::PerCore::loads,
                StatSection::Multicore),
    statCounter("stores", nullptr, &SimResult::PerCore::stores,
                StatSection::Multicore),
    statCounter("bypassed_loads", nullptr,
                &SimResult::PerCore::bypassedLoads,
                StatSection::Multicore),
};

/** The rows forEachSimCounter visits and addSimCounters sums: the
 * reported counters every result carries. */
constexpr bool
isSimCounter(const StatRow<SimResult> &row)
{
    return row.section == StatSection::Base && row.key != nullptr &&
           row.counter != nullptr;
}

/**
 * Visit every reported base counter of a SimResult, in emission
 * order: fn(key, member).
 */
template <typename SimResultT, typename Fn>
void
forEachSimCounter(SimResultT &r, Fn &&fn)
{
    for (const StatRow<SimResult> &row : sim_stat_rows)
        if (isSimCounter(row))
            fn(row.key, r.*row.counter);
}

/** Add every reported base counter of @p from into @p into. */
inline void
addSimCounters(SimResult &into, const SimResult &from)
{
    for (const StatRow<SimResult> &row : sim_stat_rows)
        if (isSimCounter(row))
            into.*row.counter += from.*row.counter;
}

/**
 * Set the hierarchy counters of @p res to those accrued between the
 * MemHierarchy::stats() snapshots @p base and @p now. The reported
 * counter rows do the subtraction; the other counters of the
 * subtrahend are zero.
 */
inline void
windowMemSysStats(SimResult &res, const MemSysStats &now,
                  const MemSysStats &base)
{
    SimResult since;
    static_cast<MemSysStats &>(since) = base;
    static_cast<MemSysStats &>(res) = now;
    for (const StatRow<SimResult> &row : sim_stat_rows)
        if (isSimCounter(row))
            res.*row.counter -= since.*row.counter;
}

/**
 * Deterministic counts of the host work a run did. They reproduce
 * exactly run to run (unlike wall time), so the perf harness reports
 * them and CI gates on them. They are not simulated statistics and
 * stay out of SimResult, so reports never change with them.
 */
struct WorkCounters
{
    /** Cycles actually ticked (skipped cycles excluded). */
    std::uint64_t ticks = 0;
    /** Issue-candidate entries doIssue tested for issue. */
    std::uint64_t issueCandidatesExamined = 0;
    /** Instructions the functional simulator produced. */
    std::uint64_t traceInstsProduced = 0;

    WorkCounters &
    operator+=(const WorkCounters &o)
    {
        ticks += o.ticks;
        issueCandidatesExamined += o.issueCandidatesExamined;
        traceInstsProduced += o.traceInstsProduced;
        return *this;
    }
};

} // namespace nosq

#endif // NOSQ_OOO_SIM_STATS_HH
