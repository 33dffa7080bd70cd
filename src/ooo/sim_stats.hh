/**
 * @file
 * End-of-run statistics reported by the timing core.
 */

#ifndef NOSQ_OOO_SIM_STATS_HH
#define NOSQ_OOO_SIM_STATS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace nosq {

/** Aggregate counters for one simulation run. */
struct SimResult
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

    // --- memory hierarchy (per-level, memsys/hierarchy.hh) ----------------
    std::uint64_t l1iHits = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1dWritebacks = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2Writebacks = 0;
    std::uint64_t itlbHits = 0;
    std::uint64_t itlbMisses = 0;
    std::uint64_t dtlbHits = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t mshrMerges = 0;    // secondary misses merged
    std::uint64_t mshrStalls = 0;    // file/target-full waits
    std::uint64_t prefIssued = 0;    // prefetch line fills
    std::uint64_t prefUseful = 0;    // demand hits on prefetched lines
    std::uint64_t missCycles = 0;    // total L1D demand-miss latency

    // --- simulator diagnostics (deliberately NOT in the
    // --- forEachSimCounter enumeration: event skipping is a pure
    // --- wall-clock optimization and must not perturb report bytes) --
    /** Quiescent cycles fast-forwarded by event-driven skipping;
     * always included in `cycles`, so IPC is unaffected. */
    std::uint64_t skippedCycles = 0;

    // --- sampled-simulation estimate (OooCore::runSampled; also not
    // --- in forEachSimCounter -- the report emits these as additive
    // --- optional keys only when `sampled` is set) -------------------
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

    // --- multi-core run (sim/system.hh; also not in
    // --- forEachSimCounter -- the report emits these as additive
    // --- optional keys only when `multicore` is set, so single-core
    // --- reports stay byte-identical) --------------------------------
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
