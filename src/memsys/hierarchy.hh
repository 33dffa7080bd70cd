/**
 * @file
 * The composed timing memory system.
 *
 * MemHierarchy wires the per-level tag models (memsys/cache.hh), the
 * non-blocking-L1D MSHR file (memsys/mshr.hh), the DRAM bandwidth
 * model (memsys/bus.hh), and the stream prefetcher
 * (memsys/prefetch.hh) into the L1D/L2/memory path the core drives
 * for loads, stores, and instruction fetch. Every access returns an
 * end-to-end latency the core consumes exactly as before.
 *
 * All of the new machinery is opt-in via MemSysParams: with
 * `mshrs == 0`, `prefetchDegree == 0`, and `busContention == false`
 * (the defaults) the hierarchy computes bit-identical latencies to
 * the pre-split blocking model, which is what keeps the PR 4
 * golden-stats gate byte-identical.
 */

#ifndef NOSQ_MEMSYS_HIERARCHY_HH
#define NOSQ_MEMSYS_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "memsys/bus.hh"
#include "memsys/cache.hh"
#include "memsys/mshr.hh"
#include "memsys/prefetch.hh"
#include "sim/events.hh"

namespace nosq {

class SharedL2;

/** Two-level hierarchy timing parameters (Section 4.1). */
struct MemSysParams
{
    CacheParams l1i{"l1i", 64 * 1024, 2, 64, 1};
    CacheParams l1d{"l1d", 64 * 1024, 2, 64, 3};
    CacheParams l2{"l2", 1024 * 1024, 8, 64, 10};
    TlbParams itlb;
    TlbParams dtlb;
    /** DRAM access latency in cycles. */
    Cycle memoryLatency = 150;
    /** Line transfer: 64B line / 16B bus at quarter frequency. */
    Cycle busTransfer = 16;

    // --- opt-in timing machinery (defaults preserve the legacy
    // --- blocking model bit for bit) --------------------------------
    /** L1D miss-status holding registers; 0 disables the
     * non-blocking model (legacy flat-latency misses). */
    unsigned mshrs = 0;
    /** Secondary misses mergeable into one in-flight fill. */
    unsigned mshrTargets = 4;
    /** Model DRAM-bus occupancy (queueing) instead of the flat
     * busTransfer constant. */
    bool busContention = false;
    /** Stream-prefetcher lines per trigger; 0 disables it. */
    unsigned prefetchDegree = 0;
    /** Stream table entries. */
    unsigned prefetchStreams = 8;

    // --- multi-core coherence latencies (consumed by the SharedL2
    // --- a multi-core System attaches; inert for a private
    // --- hierarchy) -------------------------------------------------
    /** Cache-to-cache transfer latency for lines a remote core holds
     * Modified. */
    Cycle cohC2cLatency = 25;
    /** Upgrade-invalidate round latency paid to drop remote sharers
     * before a write proceeds. */
    Cycle cohUpgradeLatency = 12;
};

/**
 * Validate the whole parameter block: every cache and TLB geometry,
 * nonzero memory/bus latencies, and consistent MSHR/prefetcher
 * knobs.
 *
 * @throws std::invalid_argument naming the offending field
 */
void validateMemSysParams(const MemSysParams &params);

/**
 * Aggregate hierarchy counters, declared once: SimResult derives
 * from this struct, so the core exports a (warmup-windowed) snapshot
 * as one slice assignment, and the reported rows of sim_stat_rows
 * (ooo/sim_stats.hh) name these fields.
 */
struct MemSysStats
{
    std::uint64_t l1iHits = 0, l1iMisses = 0;
    std::uint64_t l1dHits = 0, l1dMisses = 0, l1dWritebacks = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0, l2Writebacks = 0;
    std::uint64_t itlbHits = 0, itlbMisses = 0;
    std::uint64_t dtlbHits = 0, dtlbMisses = 0;
    std::uint64_t mshrMerges = 0;    // secondary misses merged
    std::uint64_t mshrStalls = 0;    // file/target-full waits
    std::uint64_t prefIssued = 0;    // prefetch line fills
    std::uint64_t prefUseful = 0;    // demand hits on prefetched lines
    /** Total end-to-end latency of L1D demand misses (for the
     * average-miss-latency statistic). */
    std::uint64_t missCycles = 0;
};

/**
 * The L1D/L2/memory path used by the core for loads, stores, and
 * instruction fetch. Returns end-to-end latencies and keeps counts;
 * port contention is enforced by the core's issue rules, while MSHR
 * occupancy and DRAM-bus bandwidth (when enabled) are enforced here.
 */
class MemHierarchy
{
  public:
    /** @throws std::invalid_argument on invalid parameters */
    explicit MemHierarchy(const MemSysParams &params);

    /**
     * Data read at cycle @p now: @return total latency in cycles.
     * Reads allocate MSHRs (when enabled) and trigger the
     * prefetcher on misses.
     */
    Cycle dataRead(Addr addr, Cycle now);

    /**
     * Data write (store commit) at cycle @p now: @return total
     * latency. Writes are drained through a write buffer in this
     * model: they consume DRAM-bus bandwidth on misses but never
     * occupy MSHRs.
     */
    Cycle dataWrite(Addr addr, Cycle now);

    /** Instruction fetch at cycle @p now: @return total latency. */
    Cycle instFetch(Addr addr, Cycle now);

    /**
     * Functional warming (sampled simulation): apply the
     * architectural metadata effects of a data access -- TLB, tag,
     * LRU, and dirty state through L1D and L2 -- without any of the
     * timing machinery (no MSHRs, bus slots, prefetch streams, or
     * event publication). Fast-forward drives this per skipped load
     * and store so the cache image tracks the program and a short
     * detailed warmup suffices before each measured interval.
     * Counters still tick; measured windows subtract a post-warmup
     * stats() snapshot, so warming never leaks into measured
     * statistics.
     */
    void warmDataAccess(Addr addr, bool write);

    /** Functional warming of the instruction-fetch path (ITLB, L1I,
     * L2), same contract as warmDataAccess(). */
    void warmInstFetch(Addr addr);

    /** Full counter snapshot (monotonic; windowMemSysStats()
     * subtracts two to window a measurement). */
    MemSysStats stats() const;

    /**
     * Install a next-event sink: every miss publishes its absolute
     * completion cycle (MSHR fill ready-at, bus-slot-delayed line
     * arrival, I-cache fill) so the core's event-driven skip can
     * fast-forward quiescent stretches. Null (the default) disables
     * publication.
     */
    void setEventSink(EventHorizon *sink) { events = sink; }

    /**
     * Redirect the L2-and-below path to a shared L2 + coherence
     * directory (multi-core System). The private L1s, TLBs, MSHRs,
     * and prefetcher keep operating unchanged; only fillFromL2() and
     * the write-hit coherence check route through @p shared as core
     * @p core. The private l2Cache goes unused (its counters stay 0;
     * the System reports the shared cache's instead). Null (the
     * default) keeps the legacy private path bit-identical.
     */
    void
    attachSharedL2(SharedL2 *shared, unsigned core)
    {
        sharedL2 = shared;
        coreId = core;
    }

    Cache &l1d() { return l1dCache; }
    Cache &l1i() { return l1iCache; }
    Cache &l2() { return l2Cache; }
    Tlb &dtlb() { return dataTlb; }
    Bus &bus() { return memBus; }

    std::uint64_t dataReads() const { return numDataReads; }
    std::uint64_t dataWrites() const { return numDataWrites; }

  private:
    /** L2-and-below fill latency for a request leaving L1 at
     * @p now. */
    Cycle fillFromL2(Addr addr, bool write, Cycle now);
    /**
     * Complete a secondary access against in-flight fill @p m:
     * merge when a target is free (the access finishes with the
     * fill), otherwise stall past it and retry the cache once the
     * data has landed. @return the absolute completion cycle, at
     * least @p earliest.
     */
    Cycle mergeCompletion(Mshr &m, Cycle earliest);
    /** Stream-event hook (demand miss or prefetched-line hit):
     * stride detection + prefetch fills. */
    void streamEvent(Addr line);
    /** Publish an absolute completion cycle to the event sink. */
    void
    publishCompletion(Cycle when)
    {
        if (events != nullptr)
            events->publish(when);
    }

    MemSysParams params;
    EventHorizon *events = nullptr;
    SharedL2 *sharedL2 = nullptr;
    unsigned coreId = 0;
    Cache l1iCache;
    Cache l1dCache;
    Cache l2Cache;
    Tlb instTlb;
    Tlb dataTlb;
    MshrFile mshrFile;
    Bus memBus;
    StreamPrefetcher prefetcher;
    std::vector<Addr> prefQueue; // scratch, avoids per-miss allocs
    std::uint64_t numDataReads = 0;
    std::uint64_t numDataWrites = 0;
    std::uint64_t numMshrMerges = 0;
    std::uint64_t numMshrStalls = 0;
    std::uint64_t numMissCycles = 0;
};

} // namespace nosq

#endif // NOSQ_MEMSYS_HIERARCHY_HH
