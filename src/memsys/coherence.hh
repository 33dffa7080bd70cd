/**
 * @file
 * Shared-L2 coherence: a MESI-style directory plus the SharedL2
 * aggregate that N private hierarchies attach to.
 *
 * The multi-core System (sim/system.hh) gives every core its own
 * MemHierarchy (private L1s + TLBs + MSHRs) and replaces the private
 * L2 path with one SharedL2: a single L2 tag array and DRAM bus in
 * front of a directory that tracks which core holds each line and in
 * what state. The directory is the timing arbiter for cross-core
 * store-load communication -- a read of a line another core has
 * Modified is served cache-to-cache (c2cLatency instead of the
 * L2/DRAM path), and a write to a line other cores share pays an
 * upgrade-invalidate round (upgradeLatency) and drops the line from
 * the remote private L1s.
 *
 * Address spaces: cores are separate programs with overlapping
 * virtual layouts, so SharedL2 maps private addresses to per-core
 * physical tags (no false sharing of stacks/heaps) while the shared
 * window [shared_window_base, shared_window_base+shared_window_size)
 * is common to all cores -- the producer/consumer queue kernels
 * (workload/multicore.hh) place their rings there.
 *
 * Data never moves here: like the rest of src/memsys/, this is a
 * tag/state timing model. Each core's functional memory image stays
 * private; coherence traffic arises purely from overlapping address
 * streams.
 */

#ifndef NOSQ_MEMSYS_COHERENCE_HH
#define NOSQ_MEMSYS_COHERENCE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "memsys/bus.hh"
#include "memsys/cache.hh"

namespace nosq {

/** Directory sharer state is a 64-bit mask: at most 64 cores. */
inline constexpr unsigned max_cores = 64;

/** Cross-core shared address window (see file comment). */
inline constexpr Addr shared_window_base = 0x2000'0000;
inline constexpr Addr shared_window_size = 0x1000'0000;

/** MESI line states as seen by one core. */
enum class CohState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

const char *cohStateName(CohState state);

/**
 * Directory counters, snapshot-subtractable. SimResult derives from
 * this struct, so a multicore run windows them as one slice
 * assignment, and the Multicore rows of sim_stat_rows
 * (ooo/sim_stats.hh) name these fields.
 */
struct CoherenceStats
{
    /** Remote private-L1 copies dropped by exclusivity requests. */
    std::uint64_t cohInvalidations = 0;
    /** Requests served by a remote core's Modified line. */
    std::uint64_t cohC2cTransfers = 0;
    /** Writes that hit a locally Shared line and had to invalidate
     * other sharers before proceeding. */
    std::uint64_t cohUpgradeMisses = 0;

    CoherenceStats operator-(const CoherenceStats &base) const;
};

/**
 * The MESI directory: line address -> (sharer mask, owner, dirty).
 *
 * Invariants (pinned by tests/test_coherence.cc against a reference
 * model):
 *  - single writer: an owner (Exclusive/Modified holder) is the only
 *    sharer of its line;
 *  - legal transitions only: a line is Modified only via a write,
 *    and leaves Modified only through a read (downgrade to Shared),
 *    a remote write (invalidate), or an eviction -- each of which
 *    surfaces the dirty data (c2c flag or evict() return) so no
 *    writeback is ever silently lost.
 */
class Directory
{
  public:
    /** @throws std::invalid_argument unless 1 <= cores <= max_cores */
    explicit Directory(unsigned cores);

    /** What one access did, for the caller's latency model. */
    struct Outcome
    {
        /** Served by a remote Modified copy (cache-to-cache). */
        bool c2c = false;
        /** Write found the line locally Shared (upgrade miss). */
        bool upgrade = false;
        /** Remote copies invalidated by this access. */
        unsigned invalidated = 0;
    };

    /** Core @p core reads the line numbered @p line. */
    Outcome read(unsigned core, Addr line);

    /** Core @p core writes the line numbered @p line. */
    Outcome write(unsigned core, Addr line);

    /**
     * Core @p core dropped the line from its private cache.
     * @return true if the dropped copy was Modified (the caller owes
     *         a writeback; dropping it would lose data).
     */
    bool evict(unsigned core, Addr line);

    /** @p core's view of the line's MESI state. */
    CohState stateOf(unsigned core, Addr line) const;

    unsigned cores() const { return numCores; }
    const CoherenceStats &stats() const { return counters; }

  private:
    struct Line
    {
        std::uint64_t sharers = 0;
        int owner = -1;     //!< Exclusive/Modified holder, -1 if none
        bool dirty = false; //!< owner's copy is Modified
    };

    unsigned numCores;
    CoherenceStats counters;
    std::unordered_map<Addr, Line> lines;
};

/** SharedL2 construction knobs (subset of MemSysParams, kept
 * separate so this header need not depend on hierarchy.hh). */
struct SharedL2Params
{
    CacheParams l2{"l2", 1024 * 1024, 8, 64, 10};
    Cycle memoryLatency = 150;
    Cycle busTransfer = 16;
    bool busContention = false;
    /** Cache-to-cache transfer latency (replaces the L2/DRAM path
     * when a remote core holds the line Modified). */
    Cycle c2cLatency = 25;
    /** Upgrade-invalidate round latency (added when remote sharers
     * must be dropped before a write proceeds). */
    Cycle upgradeLatency = 12;
};

/** @throws std::invalid_argument naming the offending field */
void validateSharedL2Params(const SharedL2Params &params);

/**
 * One shared L2 + DRAM bus + directory serving N private
 * hierarchies. MemHierarchy::attachSharedL2() redirects a core's
 * L2-and-below path here; fill() and writeHit() return latencies the
 * private hierarchy composes exactly like its own L2 path, so the
 * core consumes them unchanged.
 */
class SharedL2
{
  public:
    /** @throws std::invalid_argument on bad params or core count */
    SharedL2(const SharedL2Params &params, unsigned cores);

    /**
     * Register core @p core's private L1D so exclusivity requests
     * from other cores can drop its stale copies.
     */
    void attachL1d(unsigned core, Cache *l1d);

    /**
     * Serve a private-L1 miss leaving core @p core at cycle @p now.
     * Consults the directory, invalidates remote copies when the
     * access needs exclusivity, and returns the fill latency
     * (cache-to-cache, L2 hit, or L2+DRAM+bus).
     */
    Cycle fill(unsigned core, Addr addr, bool write, Cycle now);

    /**
     * Coherence check for a write that HIT core @p core's private
     * L1: if other cores share the line, pay the upgrade-invalidate
     * round and drop their copies. @return the extra latency (0 when
     * the line was already exclusive).
     */
    Cycle writeHit(unsigned core, Addr addr, Cycle now);

    /**
     * Per-core physical mapping: the shared window is common to all
     * cores; everything else is tagged per core so separate programs
     * with overlapping virtual layouts never falsely share.
     */
    Addr
    physical(unsigned core, Addr addr) const
    {
        if (addr >= shared_window_base &&
            addr < shared_window_base + shared_window_size)
            return addr;
        return addr | (Addr(core + 1) << 40);
    }

    CoherenceStats cohStats() const { return dir.stats(); }
    Directory &directory() { return dir; }
    Cache &l2() { return l2Cache; }
    const Cache &l2() const { return l2Cache; }
    Bus &bus() { return memBus; }

  private:
    /** Drop @p addr from every attached private L1D except
     * @p core's. */
    void invalidateRemote(unsigned core, Addr addr);

    SharedL2Params params;
    Directory dir;
    Cache l2Cache;
    Bus memBus;
    std::vector<Cache *> l1ds;
};

} // namespace nosq

#endif // NOSQ_MEMSYS_COHERENCE_HH
