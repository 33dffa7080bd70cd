/**
 * @file
 * Set-associative cache tag model with LRU replacement, plus the TLB.
 *
 * Models hit/miss behaviour and replacement state only; data travels
 * through the simulator's committed memory image. Geometry follows
 * Section 4.1: 64KB 2-way L1s, 1MB 8-way L2, 64-byte lines.
 *
 * This file holds the tag/replacement layer only. Miss-status
 * holding registers live in memsys/mshr.hh, the bandwidth model in
 * memsys/bus.hh, the prefetcher in memsys/prefetch.hh, and the
 * MemHierarchy composing them all in memsys/hierarchy.hh.
 */

#ifndef NOSQ_MEMSYS_CACHE_HH
#define NOSQ_MEMSYS_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nosq {

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::size_t sizeBytes = 64 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = 64;
    Cycle hitLatency = 3;
};

/**
 * Reject impossible or silently-degenerate geometry with a clear
 * message: line size must be a nonzero power of two, associativity
 * nonzero and at most the line count, the set count a nonzero power
 * of two, and the hit latency nonzero.
 *
 * @throws std::invalid_argument naming the offending field
 */
void validateCacheParams(const CacheParams &params);

/** One cache level: tags + LRU state + statistics. */
class Cache
{
  public:
    /** @throws std::invalid_argument on invalid geometry */
    explicit Cache(const CacheParams &params);

    /**
     * Access the line containing @p addr.
     *
     * @param addr byte address
     * @param write true for stores (sets the dirty bit)
     * @return true on hit
     */
    bool access(Addr addr, bool write);

    /**
     * Install the line containing @p addr on behalf of the
     * prefetcher: no hit/miss accounting (the line was never
     * demanded), but a dirty victim still counts as a writeback and
     * the line is marked so a later demand hit counts as a useful
     * prefetch.
     *
     * @return true if the line was absent and has been filled
     */
    bool fillPrefetch(Addr addr);

    /** Hit check without changing replacement state (for tests). */
    bool probe(Addr addr) const;

    /**
     * Drop the line containing @p addr if resident (coherence
     * invalidation from a remote core's exclusivity request). Silent
     * with respect to counters: the data writeback, if any, is
     * accounted by the requester's cache-to-cache transfer.
     *
     * @return true if a line was dropped
     */
    bool invalidate(Addr addr);

    /** Invalidate everything (SSN-wrap drain does not need this, but
     * tests and resets do). */
    void clear();

    Cycle hitLatency() const { return params.hitLatency; }
    unsigned lineBytes() const { return params.lineBytes; }
    const CacheParams &config() const { return params; }

    std::uint64_t hits() const { return numHits; }
    std::uint64_t misses() const { return numMisses; }
    std::uint64_t writebacks() const { return numWritebacks; }
    /** Lines installed by fillPrefetch(). */
    std::uint64_t prefetchFills() const { return numPrefFills; }
    /** Demand hits on prefetched, not-yet-touched lines. */
    std::uint64_t prefetchUseful() const { return numPrefUseful; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        std::uint64_t lruStamp = 0;
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    /** LRU (or first invalid) way of the set at @p base. */
    unsigned victimWay(std::size_t base) const;

    CacheParams params;
    std::size_t numSets;
    std::vector<Line> lines; // numSets * assoc
    std::uint64_t stamp = 0;
    std::uint64_t numHits = 0;
    std::uint64_t numMisses = 0;
    std::uint64_t numWritebacks = 0;
    std::uint64_t numPrefFills = 0;
    std::uint64_t numPrefUseful = 0;
};

/** TLB geometry (Section 4.1: 128-entry, 4-way). */
struct TlbParams
{
    unsigned entries = 128;
    unsigned assoc = 4;
    unsigned pageBits = 12;
    Cycle missLatency = 30;
};

/**
 * Reject degenerate TLB geometry: entry count nonzero and a multiple
 * of a nonzero associativity, page bits sane, miss latency nonzero.
 *
 * @throws std::invalid_argument naming the offending field
 */
void validateTlbParams(const TlbParams &params);

/** A TLB modeled as a tiny set-associative cache of page numbers. */
class Tlb
{
  public:
    /** @throws std::invalid_argument on invalid geometry */
    explicit Tlb(const TlbParams &params);

    /** @return extra latency (0 on hit, missLatency on miss). */
    Cycle access(Addr addr);

    void clear();

    std::uint64_t hits() const { return numHits; }
    std::uint64_t misses() const { return numMisses; }

  private:
    struct Entry
    {
        Addr vpn = 0;
        bool valid = false;
        std::uint64_t lruStamp = 0;
    };

    TlbParams params;
    std::size_t numSets;
    std::vector<Entry> entries;
    std::uint64_t stamp = 0;
    std::uint64_t numHits = 0;
    std::uint64_t numMisses = 0;
};

} // namespace nosq

#endif // NOSQ_MEMSYS_CACHE_HH
