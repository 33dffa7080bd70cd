#include "memsys/hierarchy.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"
#include "memsys/coherence.hh"

namespace nosq {

void
validateMemSysParams(const MemSysParams &params)
{
    validateCacheParams(params.l1i);
    validateCacheParams(params.l1d);
    validateCacheParams(params.l2);
    validateTlbParams(params.itlb);
    validateTlbParams(params.dtlb);
    if (params.memoryLatency == 0)
        throw std::invalid_argument(
            "memsys: memory latency must be nonzero");
    if (params.busTransfer == 0)
        throw std::invalid_argument(
            "memsys: bus transfer time must be nonzero");
    if (params.mshrs > 0 && params.mshrTargets == 0)
        throw std::invalid_argument(
            "memsys: MSHR target count must be nonzero when MSHRs "
            "are enabled");
    if (params.prefetchDegree > 0 && params.prefetchStreams == 0)
        throw std::invalid_argument(
            "memsys: prefetch stream count must be nonzero when the "
            "prefetcher is enabled");
    if (params.l2.lineBytes != params.l1d.lineBytes ||
        params.l2.lineBytes != params.l1i.lineBytes)
        throw std::invalid_argument(
            "memsys: L1 and L2 line sizes must agree (line "
            "transfers are modeled whole)");
    if (params.cohC2cLatency == 0)
        throw std::invalid_argument(
            "memsys: cache-to-cache transfer latency must be "
            "nonzero");
    if (params.cohUpgradeLatency == 0)
        throw std::invalid_argument(
            "memsys: coherence upgrade latency must be nonzero");
}

MemHierarchy::MemHierarchy(const MemSysParams &params_)
    : params((validateMemSysParams(params_), params_)),
      l1iCache(params_.l1i), l1dCache(params_.l1d),
      l2Cache(params_.l2), instTlb(params_.itlb),
      dataTlb(params_.dtlb),
      mshrFile(params_.mshrs, params_.mshrTargets),
      memBus(params_.busTransfer, params_.busContention),
      prefetcher(params_.prefetchDegree, params_.prefetchStreams)
{
}

Cycle
MemHierarchy::mergeCompletion(Mshr &m, Cycle earliest)
{
    Cycle done;
    if (m.targets < mshrFile.targetCapacity()) {
        ++m.targets;
        ++numMshrMerges;
        done = std::max(earliest, m.readyAt);
    } else {
        // Merge targets exhausted: the access cannot register with
        // the fill and must retry the cache after the data lands,
        // paying one extra hit.
        ++numMshrStalls;
        done = std::max(earliest, m.readyAt + params.l1d.hitLatency);
    }
    publishCompletion(done);
    return done;
}

Cycle
MemHierarchy::fillFromL2(Addr addr, bool write, Cycle now)
{
    if (sharedL2 != nullptr)
        return sharedL2->fill(coreId, addr, write, now);
    if (l2Cache.access(addr, write))
        return params.l2.hitLatency;
    // L2 miss: the line transfer claims a DRAM-bus slot once the
    // request has traversed L2 and the DRAM access itself.
    return params.l2.hitLatency + params.memoryLatency +
        memBus.transferAt(now + params.l2.hitLatency +
                          params.memoryLatency);
}

void
MemHierarchy::streamEvent(Addr line)
{
    prefQueue.clear();
    prefetcher.observe(line, prefQueue);
    for (const Addr pline : prefQueue) {
        const Addr addr = pline * params.l1d.lineBytes;
        if (l1dCache.fillPrefetch(addr)) {
            // The prefetched line lands in both levels (inclusive
            // fill); prefetch traffic is modeled bandwidth-free at
            // this abstraction level.
            l2Cache.fillPrefetch(addr);
        }
    }
}

Cycle
MemHierarchy::dataRead(Addr addr, Cycle now)
{
    ++numDataReads;
    const Cycle tlb_lat = dataTlb.access(addr);
    const Addr line = addr / params.l1d.lineBytes;
    const std::uint64_t pref_hits_before =
        prefetcher.enabled() ? l1dCache.prefetchUseful() : 0;

    if (l1dCache.access(addr, false)) {
        // A demand hit on a prefetched line advances its stream.
        if (prefetcher.enabled() &&
            l1dCache.prefetchUseful() != pref_hits_before)
            streamEvent(line);
        // Completion in absolute time, so it composes with the
        // MSHR clock (readyAt is the absolute cycle fill data
        // arrives, TLB included).
        Cycle done = now + tlb_lat + params.l1d.hitLatency;
        if (mshrFile.enabled()) {
            // Tag hit on a line whose fill is still in flight: a
            // secondary miss, completing with the fill.
            if (Mshr *m = mshrFile.find(line, now))
                done = mergeCompletion(*m, done);
        }
        return done - now;
    }

    // L1D miss.
    Cycle lat;
    Mshr *inflight = nullptr;
    if (mshrFile.enabled())
        inflight = mshrFile.find(line, now);
    if (inflight != nullptr) {
        // The line's fill is still in flight but its tag was
        // evicted by intervening misses: this is a secondary miss
        // all the same -- complete with the existing fill (which
        // the tag access above just re-installed), never a fresh
        // memory round trip or a duplicate entry.
        const Cycle done = mergeCompletion(
            *inflight, now + tlb_lat + params.l1d.hitLatency);
        lat = done - now - tlb_lat;
    } else if (!mshrFile.enabled()) {
        lat = params.l1d.hitLatency +
            fillFromL2(addr, false, now + tlb_lat);
        publishCompletion(now + tlb_lat + lat);
    } else {
        const Cycle stall = mshrFile.stallUntilFree(now);
        if (stall > 0)
            ++numMshrStalls;
        lat = stall + params.l1d.hitLatency +
            fillFromL2(addr, false, now + tlb_lat + stall);
        // readyAt is the absolute completion of THIS access --
        // exactly when the returned latency elapses.
        mshrFile.allocate(line, now, now + tlb_lat + lat);
        publishCompletion(now + tlb_lat + lat);
    }
    numMissCycles += lat;
    if (prefetcher.enabled())
        streamEvent(line);
    return tlb_lat + lat;
}

Cycle
MemHierarchy::dataWrite(Addr addr, Cycle now)
{
    ++numDataWrites;
    const Cycle tlb_lat = dataTlb.access(addr);
    const Addr line = addr / params.l1d.lineBytes;
    const std::uint64_t pref_hits_before =
        prefetcher.enabled() ? l1dCache.prefetchUseful() : 0;
    if (l1dCache.access(addr, true)) {
        if (prefetcher.enabled() &&
            l1dCache.prefetchUseful() != pref_hits_before)
            streamEvent(line);
        Cycle lat = tlb_lat + params.l1d.hitLatency;
        // A write hit on a line other cores share still needs
        // exclusivity from the directory.
        if (sharedL2 != nullptr)
            lat += sharedL2->writeHit(coreId, addr, now);
        return lat;
    }
    // Write misses drain through a write buffer: they consume DRAM
    // bandwidth but never hold an MSHR against demand loads.
    const Cycle lat = params.l1d.hitLatency +
        fillFromL2(addr, true, now + tlb_lat);
    publishCompletion(now + tlb_lat + lat);
    numMissCycles += lat;
    if (prefetcher.enabled())
        streamEvent(line);
    return tlb_lat + lat;
}

Cycle
MemHierarchy::instFetch(Addr addr, Cycle now)
{
    const Cycle tlb_lat = instTlb.access(addr);
    if (l1iCache.access(addr, false))
        return tlb_lat + params.l1i.hitLatency;
    const Cycle lat = tlb_lat + params.l1i.hitLatency +
        fillFromL2(addr, false, now + tlb_lat);
    publishCompletion(now + lat);
    return lat;
}

void
MemHierarchy::warmDataAccess(Addr addr, bool write)
{
    // Mirror of dataRead/dataWrite metadata effects: the same TLB,
    // tag, LRU, and dirty updates (access() installs on miss), minus
    // MSHRs, bus slots, prefetch streams, and event publication.
    dataTlb.access(addr);
    if (!l1dCache.access(addr, write))
        l2Cache.access(addr, write);
}

void
MemHierarchy::warmInstFetch(Addr addr)
{
    instTlb.access(addr);
    if (!l1iCache.access(addr, false))
        l2Cache.access(addr, false);
}

MemSysStats
MemHierarchy::stats() const
{
    MemSysStats s;
    s.l1iHits = l1iCache.hits();
    s.l1iMisses = l1iCache.misses();
    s.l1dHits = l1dCache.hits();
    s.l1dMisses = l1dCache.misses();
    s.l1dWritebacks = l1dCache.writebacks();
    s.l2Hits = l2Cache.hits();
    s.l2Misses = l2Cache.misses();
    s.l2Writebacks = l2Cache.writebacks();
    s.itlbHits = instTlb.hits();
    s.itlbMisses = instTlb.misses();
    s.dtlbHits = dataTlb.hits();
    s.dtlbMisses = dataTlb.misses();
    s.mshrMerges = numMshrMerges;
    s.mshrStalls = numMshrStalls;
    s.prefIssued = l1dCache.prefetchFills();
    s.prefUseful = l1dCache.prefetchUseful();
    s.missCycles = numMissCycles;
    return s;
}

} // namespace nosq
