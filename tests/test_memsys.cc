/**
 * @file
 * Unit and property tests for the timing memory system: tag/LRU
 * model, parameter validation, TLB, MSHR file, DRAM bus, stream
 * prefetcher, and the composed hierarchy (legacy identity + the
 * non-blocking behaviours).
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "memsys/bus.hh"
#include "memsys/cache.hh"
#include "memsys/hierarchy.hh"
#include "memsys/mshr.hh"
#include "memsys/prefetch.hh"
#include "ooo/sim_stats.hh"

namespace nosq {
namespace {

TEST(Cache, HitAfterFill)
{
    Cache c({"t", 1024, 2, 64, 3});
    EXPECT_FALSE(c.access(0x1000, false)); // cold miss
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1038, false)); // same 64B line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // 2 sets, 2 ways, 64B lines: lines 0x0000/0x0080/0x0100 map to
    // set 0.
    Cache c({"t", 256, 2, 64, 3});
    c.access(0x0000, false);
    c.access(0x0100, false);
    c.access(0x0000, false);  // touch to make 0x0100 the LRU
    c.access(0x0200, false);  // evicts 0x0100
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0100));
    EXPECT_TRUE(c.probe(0x0200));
}

TEST(Cache, DirtyWritebackCounted)
{
    Cache c({"t", 128, 1, 64, 3}); // 2 sets, direct mapped
    c.access(0x0000, true);        // dirty
    c.access(0x0080, false);       // evicts dirty line
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache c({"t", 256, 2, 64, 3});
    c.access(0x0000, false);
    c.access(0x0040, false); // set 1
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x0040));
}

TEST(Cache, ClearInvalidatesAll)
{
    Cache c({"t", 1024, 2, 64, 3});
    c.access(0x1000, false);
    c.clear();
    EXPECT_FALSE(c.probe(0x1000));
}

// --- parameter validation --------------------------------------------------

TEST(CacheValidation, RejectsBadGeometry)
{
    EXPECT_THROW(validateCacheParams({"t", 1024, 2, 48, 3}),
                 std::invalid_argument); // line not a power of two
    EXPECT_THROW(validateCacheParams({"t", 1024, 2, 0, 3}),
                 std::invalid_argument); // zero line
    EXPECT_THROW(validateCacheParams({"t", 1024, 0, 64, 3}),
                 std::invalid_argument); // zero assoc
    EXPECT_THROW(validateCacheParams({"t", 128, 4, 64, 3}),
                 std::invalid_argument); // assoc > lines held
    EXPECT_THROW(validateCacheParams({"t", 0, 2, 64, 3}),
                 std::invalid_argument); // zero size
    EXPECT_THROW(validateCacheParams({"t", 64 * 3, 1, 64, 3}),
                 std::invalid_argument); // 3 sets: not a power of two
    EXPECT_THROW(validateCacheParams({"t", 1024, 2, 64, 0}),
                 std::invalid_argument); // zero latency
    EXPECT_NO_THROW(validateCacheParams({"t", 1024, 2, 64, 3}));
    // The constructor enforces the same contract.
    EXPECT_THROW(Cache({"t", 1024, 3, 64, 3}),
                 std::invalid_argument); // 1024/(64*3) not integral
}

TEST(CacheValidation, ErrorNamesTheCache)
{
    try {
        validateCacheParams({"weird", 1024, 2, 48, 3});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("weird"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("line"),
                  std::string::npos);
    }
}

TEST(TlbValidation, RejectsBadGeometry)
{
    EXPECT_THROW(validateTlbParams({0, 4, 12, 30}),
                 std::invalid_argument); // zero entries
    EXPECT_THROW(validateTlbParams({128, 0, 12, 30}),
                 std::invalid_argument); // zero assoc
    EXPECT_THROW(validateTlbParams({10, 4, 12, 30}),
                 std::invalid_argument); // entries % assoc != 0
    EXPECT_THROW(validateTlbParams({128, 4, 0, 30}),
                 std::invalid_argument); // zero page bits
    EXPECT_THROW(validateTlbParams({128, 4, 12, 0}),
                 std::invalid_argument); // zero miss latency
    EXPECT_NO_THROW(validateTlbParams({128, 4, 12, 30}));
}

TEST(MemSysValidation, RejectsInconsistentKnobs)
{
    MemSysParams p;
    p.memoryLatency = 0;
    EXPECT_THROW(validateMemSysParams(p), std::invalid_argument);

    p = MemSysParams();
    p.busTransfer = 0;
    EXPECT_THROW(validateMemSysParams(p), std::invalid_argument);

    p = MemSysParams();
    p.mshrs = 4;
    p.mshrTargets = 0;
    EXPECT_THROW(validateMemSysParams(p), std::invalid_argument);

    p = MemSysParams();
    p.prefetchDegree = 2;
    p.prefetchStreams = 0;
    EXPECT_THROW(validateMemSysParams(p), std::invalid_argument);

    p = MemSysParams();
    p.l2.lineBytes = 128; // disagrees with 64B L1 lines
    EXPECT_THROW(validateMemSysParams(p), std::invalid_argument);

    EXPECT_NO_THROW(validateMemSysParams(MemSysParams()));
    // The hierarchy constructor enforces the same contract.
    p = MemSysParams();
    p.l1d.assoc = 0;
    EXPECT_THROW(MemHierarchy{p}, std::invalid_argument);
}

// --- LRU / writeback property tests ----------------------------------------

/**
 * Reference model: per-set recency list + dirty map, the textbook
 * definition the tag array must agree with access for access.
 */
class RefCache
{
  public:
    RefCache(std::size_t sets, unsigned assoc, unsigned line)
        : numSets(sets), numWays(assoc), lineBytes(line),
          recency(sets)
    {}

    /** @return hit? */
    bool
    access(Addr addr, bool write)
    {
        const Addr line = addr / lineBytes;
        auto &set = recency[line % numSets];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                Entry e = *it;
                e.dirty |= write;
                set.erase(it);
                set.push_front(e); // most recent first
                return true;
            }
        }
        if (set.size() == numWays) {
            if (set.back().dirty)
                ++numWritebacks;
            set.pop_back(); // least recent last
        }
        set.push_front({line, write});
        return false;
    }

    bool
    resident(Addr addr) const
    {
        const Addr line = addr / lineBytes;
        for (const Entry &e : recency[line % numSets])
            if (e.line == line)
                return true;
        return false;
    }

    std::uint64_t writebacks() const { return numWritebacks; }

  private:
    struct Entry
    {
        Addr line;
        bool dirty;
    };

    std::size_t numSets;
    unsigned numWays;
    unsigned lineBytes;
    std::vector<std::deque<Entry>> recency;
    std::uint64_t numWritebacks = 0;
};

TEST(CacheProperty, LruAndWritebacksMatchReferenceModel)
{
    // Small geometry (4 sets x 4 ways, 64B lines) so a 20k-access
    // seeded stream exercises eviction constantly.
    const CacheParams params{"t", 1024, 4, 64, 3};
    Cache cache(params);
    RefCache ref(4, 4, 64);
    Rng rng(12345);

    for (int i = 0; i < 20000; ++i) {
        // 64 lines' worth of addresses over 4 sets: heavy conflict.
        const Addr addr = rng.below(64 * 64);
        const bool write = rng.chance(0.3);
        const bool hit = cache.access(addr, write);
        const bool ref_hit = ref.access(addr, write);
        ASSERT_EQ(hit, ref_hit) << "access " << i << " addr 0x"
                                << std::hex << addr;
        ASSERT_EQ(cache.writebacks(), ref.writebacks())
            << "access " << i;
    }

    // Final residency agrees line for line.
    for (Addr line = 0; line < 64; ++line)
        EXPECT_EQ(cache.probe(line * 64), ref.resident(line * 64));
}

TEST(TlbProperty, MissLatencyMatchesReferenceModel)
{
    // Fully associative single-set reference for an assoc ==
    // entries TLB.
    const TlbParams params{8, 8, 12, 30};
    Tlb tlb(params);
    std::deque<Addr> ref; // recency order, most recent first
    Rng rng(999);

    for (int i = 0; i < 5000; ++i) {
        const Addr addr = rng.below(32) << 12 | rng.below(4096);
        const Addr vpn = addr >> 12;
        bool ref_hit = false;
        for (auto it = ref.begin(); it != ref.end(); ++it) {
            if (*it == vpn) {
                ref.erase(it);
                ref.push_front(vpn);
                ref_hit = true;
                break;
            }
        }
        if (!ref_hit) {
            if (ref.size() == 8)
                ref.pop_back();
            ref.push_front(vpn);
        }
        const Cycle lat = tlb.access(addr);
        ASSERT_EQ(lat, ref_hit ? 0u : params.missLatency)
            << "access " << i << " vpn " << vpn;
    }
}

TEST(Tlb, HitAndMissLatency)
{
    Tlb tlb({16, 4, 12, 30});
    EXPECT_EQ(tlb.access(0x1000), 30u); // cold
    EXPECT_EQ(tlb.access(0x1fff), 0u);  // same page
    EXPECT_EQ(tlb.access(0x2000), 30u); // next page
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 2u);
}

// --- MSHR file --------------------------------------------------------------

TEST(MshrFile, MergesSecondaryMisses)
{
    MshrFile mshrs(2, 4);
    EXPECT_TRUE(mshrs.enabled());
    EXPECT_EQ(mshrs.find(0x10, 100), nullptr);
    // Fill in flight until cycle 150.
    mshrs.allocate(0x10, 100, 150);
    Mshr *m = mshrs.find(0x10, 100);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->readyAt, 150u);
    EXPECT_EQ(m->targets, 0u);
    // After the fill returns the entry is free and never matches.
    EXPECT_EQ(mshrs.find(0x10, 150), nullptr);
}

TEST(MshrFile, OccupancyStallsWhenFull)
{
    MshrFile mshrs(2, 4);
    EXPECT_EQ(mshrs.stallUntilFree(100), 0u);
    mshrs.allocate(0x10, 100, 180);
    mshrs.allocate(0x20, 100, 150);
    EXPECT_EQ(mshrs.inFlight(100), 2u);
    // Both busy: the earliest completion (150) gates a new miss.
    EXPECT_EQ(mshrs.stallUntilFree(100), 50u);
    // At 150 the second entry freed.
    EXPECT_EQ(mshrs.stallUntilFree(150), 0u);
    EXPECT_EQ(mshrs.inFlight(150), 1u);
    // A new allocation recycles the freed (earliest) entry.
    mshrs.allocate(0x30, 200, 400);
    EXPECT_NE(mshrs.find(0x30, 200), nullptr);
    EXPECT_NE(mshrs.find(0x10, 170), nullptr); // still in flight
}

TEST(MshrFile, FullFileReplacementKeepsVictimWindow)
{
    MshrFile mshrs(2, 4);
    mshrs.allocate(0x10, 100, 300);
    mshrs.allocate(0x20, 100, 250);
    // Full at 120: the victim (0x20, earliest completion) is
    // displaced but its fill is still in flight -- its merge
    // window must survive until the fill returns.
    mshrs.allocate(0x30, 120, 400);
    EXPECT_NE(mshrs.find(0x30, 200), nullptr);
    EXPECT_NE(mshrs.find(0x10, 200), nullptr);
    EXPECT_NE(mshrs.find(0x20, 200), nullptr); // retiring window
    EXPECT_EQ(mshrs.find(0x20, 250), nullptr); // expired with fill
    mshrs.clear();
    EXPECT_EQ(mshrs.find(0x20, 200), nullptr);
}

TEST(MshrFile, ManyDisplacementsLoseNoMergeWindow)
{
    // More displaced fills concurrently in flight than the file has
    // entries: every window must still survive to its completion.
    MshrFile mshrs(2, 4);
    mshrs.allocate(0x10, 100, 300);
    mshrs.allocate(0x20, 100, 310);
    mshrs.allocate(0x30, 101, 320); // parks 0x10
    mshrs.allocate(0x40, 102, 330); // parks 0x20
    mshrs.allocate(0x50, 103, 340); // parks 0x30
    for (const Addr line : {0x10, 0x20, 0x30, 0x40, 0x50})
        EXPECT_NE(mshrs.find(line, 200), nullptr) << line;
    EXPECT_EQ(mshrs.find(0x10, 300), nullptr); // expires on time
    EXPECT_NE(mshrs.find(0x50, 339), nullptr);
}

TEST(MshrFile, DisabledFileAndBadTargets)
{
    MshrFile off(0, 4);
    EXPECT_FALSE(off.enabled());
    EXPECT_THROW(MshrFile(4, 0), std::invalid_argument);
}

// --- bus --------------------------------------------------------------------

TEST(Bus, FlatModeIsConstant)
{
    Bus bus(16, /*model_occupancy=*/false);
    EXPECT_EQ(bus.transferAt(100), 16u);
    EXPECT_EQ(bus.transferAt(100), 16u); // no queueing state
    EXPECT_EQ(bus.queuedCycles(), 0u);
    EXPECT_EQ(bus.transfers(), 2u);
}

TEST(Bus, OccupancyQueuesConcurrentTransfers)
{
    Bus bus(16, /*model_occupancy=*/true);
    EXPECT_EQ(bus.transferAt(100), 16u);  // idle bus
    EXPECT_EQ(bus.transferAt(100), 32u);  // queued behind the first
    EXPECT_EQ(bus.transferAt(100), 48u);  // and the second
    EXPECT_EQ(bus.queuedCycles(), 16u + 32u);
    // After the backlog drains the bus is idle again.
    EXPECT_EQ(bus.transferAt(1000), 16u);
    EXPECT_THROW(Bus(0, true), std::invalid_argument);
}

// --- prefetcher -------------------------------------------------------------

TEST(Prefetch, NextLinesOnStreamStart)
{
    StreamPrefetcher pf(2, 4);
    std::vector<Addr> out;
    pf.observe(100, out);
    EXPECT_EQ(out, (std::vector<Addr>{101, 102}));
}

TEST(Prefetch, LocksOntoStride)
{
    StreamPrefetcher pf(3, 4);
    std::vector<Addr> out;
    pf.observe(100, out); // stream start: next lines
    out.clear();
    pf.observe(104, out); // learns stride 4, no emission yet
    EXPECT_TRUE(out.empty());
    pf.observe(108, out); // stride confirmed
    EXPECT_EQ(out, (std::vector<Addr>{112, 116, 120}));
    out.clear();
    pf.observe(112, out); // keeps running ahead
    EXPECT_EQ(out, (std::vector<Addr>{116, 120, 124}));
}

TEST(Prefetch, BackwardStrideWorks)
{
    StreamPrefetcher pf(2, 4);
    std::vector<Addr> out;
    pf.observe(1000, out);
    out.clear();
    pf.observe(998, out); // learns stride -2
    EXPECT_TRUE(out.empty());
    pf.observe(996, out);
    EXPECT_EQ(out, (std::vector<Addr>{994, 992}));
}

TEST(Prefetch, DisabledEmitsNothing)
{
    StreamPrefetcher pf(0, 8);
    EXPECT_FALSE(pf.enabled());
    std::vector<Addr> out;
    pf.observe(100, out);
    EXPECT_TRUE(out.empty());
    EXPECT_THROW(StreamPrefetcher(2, 0), std::invalid_argument);
}

// --- hierarchy: legacy (default-parameter) model ----------------------------

TEST(Hierarchy, L1HitLatency)
{
    MemSysParams p;
    MemHierarchy mem(p);
    mem.dataRead(0x1000, 0);           // cold: fills TLB + caches
    const Cycle lat = mem.dataRead(0x1008, 1);
    EXPECT_EQ(lat, p.l1d.hitLatency);  // pure L1 hit
}

TEST(Hierarchy, MissLatenciesCompose)
{
    MemSysParams p;
    MemHierarchy mem(p);
    const Cycle cold = mem.dataRead(0x10000, 0);
    // TLB miss + L1 miss + L2 miss + memory + bus.
    EXPECT_EQ(cold, p.dtlb.missLatency + p.l1d.hitLatency +
              p.l2.hitLatency + p.memoryLatency + p.busTransfer);
    // Second touch on the same line: everything hits.
    EXPECT_EQ(mem.dataRead(0x10000, 1), p.l1d.hitLatency);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemSysParams p;
    p.l1d = {"l1d", 128, 1, 64, 3}; // tiny L1: 2 sets direct-mapped
    MemHierarchy mem(p);
    mem.dataRead(0x0000, 0);
    mem.dataRead(0x0080, 1); // evicts 0x0000 from L1 (same set)
    const Cycle lat = mem.dataRead(0x0000, 2);
    EXPECT_EQ(lat, p.l1d.hitLatency + p.l2.hitLatency); // L2 hit
}

TEST(Hierarchy, CountsReadsAndWrites)
{
    MemHierarchy mem(MemSysParams{});
    mem.dataRead(0x1000, 0);
    mem.dataRead(0x2000, 1);
    mem.dataWrite(0x3000, 2);
    EXPECT_EQ(mem.dataReads(), 2u);
    EXPECT_EQ(mem.dataWrites(), 1u);
}

TEST(Hierarchy, StatsSnapshotSubtraction)
{
    MemSysParams p;
    MemHierarchy mem(p);
    mem.dataRead(0x1000, 0);
    const MemSysStats base = mem.stats();
    mem.dataRead(0x1000, 1); // L1D hit
    mem.dataRead(0x9000, 2); // fresh miss
    SimResult d;
    d.insts = 7;
    windowMemSysStats(d, mem.stats(), base);
    EXPECT_EQ(d.insts, 7u); // the core's own counters are untouched
    EXPECT_EQ(d.l1dHits, 1u);
    EXPECT_EQ(d.l1dMisses, 1u);
    EXPECT_EQ(base.l1dMisses, 1u);
    EXPECT_GT(d.missCycles, 0u);
}

/**
 * The legacy path must be time-invariant: with MSHRs, prefetch, and
 * bus occupancy all off, the latency of an access stream cannot
 * depend on the cycle numbers it is issued at (this is exactly the
 * property that keeps the golden-stats gate byte-identical).
 */
TEST(HierarchyProperty, LegacyLatencyIgnoresTime)
{
    MemSysParams p;
    MemHierarchy a(p);
    MemHierarchy b(p);
    Rng rng(7);
    Cycle tb = 0;
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = rng.below(1 << 22);
        const bool write = rng.chance(0.3);
        tb += rng.below(50);
        const Cycle la = write ? a.dataWrite(addr, 0)
                               : a.dataRead(addr, 0);
        const Cycle lb = write ? b.dataWrite(addr, tb)
                               : b.dataRead(addr, tb);
        ASSERT_EQ(la, lb) << "access " << i;
    }
}

// --- hierarchy: non-blocking (MSHR) model -----------------------------------

namespace {

/** MSHR-enabled params with a tiny L1D so misses are easy to hit. */
MemSysParams
mshrParams()
{
    MemSysParams p;
    p.mshrs = 2;
    p.mshrTargets = 2;
    return p;
}

} // anonymous namespace

TEST(HierarchyMshr, SecondaryMissMergesIntoInflightFill)
{
    MemSysParams p = mshrParams();
    MemHierarchy mem(p);
    // Warm the TLB page, then evict nothing: 0x10000 line is cold.
    mem.dataRead(0x10040, 0);
    const Cycle primary = mem.dataRead(0x10000, 100);
    // Same line one cycle later: tag-hits, but the fill is still in
    // flight, so it completes with the fill, one cycle sooner.
    const Cycle secondary = mem.dataRead(0x10008, 101);
    EXPECT_EQ(secondary, primary - 1);
    const MemSysStats s = mem.stats();
    EXPECT_EQ(s.mshrMerges, 1u);
    // Long after the fill returned, the line is a plain hit.
    EXPECT_EQ(mem.dataRead(0x10000, 5000), p.l1d.hitLatency);
}

TEST(HierarchyMshr, FileFullStallsNewMiss)
{
    MemSysParams p = mshrParams(); // 2 MSHRs
    MemHierarchy mem(p);
    // Warm TLB pages for three distinct lines' pages.
    mem.dataRead(0x10000, 0);
    mem.dataRead(0x20000, 0);
    mem.dataRead(0x30000, 0);
    // Pick fresh lines in the warmed pages.
    const Cycle m1 = mem.dataRead(0x10400, 1000);
    mem.dataRead(0x20400, 1000);
    // Third concurrent miss: both MSHRs busy, must wait.
    const Cycle m3 = mem.dataRead(0x30400, 1000);
    EXPECT_GT(m3, m1);
    const MemSysStats s = mem.stats();
    EXPECT_GE(s.mshrStalls, 1u);
}

TEST(HierarchyMshr, TargetOverflowStallsPastTheFill)
{
    MemSysParams p = mshrParams(); // 2 targets per entry
    MemHierarchy mem(p);
    mem.dataRead(0x10040, 0); // warm page
    mem.dataRead(0x10000, 100);          // primary miss
    mem.dataRead(0x10000, 101);          // merge 1
    const Cycle merge_lat = mem.dataRead(0x10008, 102); // merge 2
    const MemSysStats before = mem.stats();
    EXPECT_EQ(before.mshrMerges, 2u);
    // Targets exhausted: the access cannot register with the fill,
    // waits it out, and retries the (now filled) cache -- strictly
    // more expensive than a merge would have been.
    const Cycle over_lat = mem.dataRead(0x10010, 103);
    EXPECT_EQ(over_lat, (merge_lat - 1) + p.l1d.hitLatency);
    const MemSysStats after = mem.stats();
    EXPECT_EQ(after.mshrMerges, 2u);
    EXPECT_EQ(after.mshrStalls, before.mshrStalls + 1);
}

TEST(HierarchyMshr, EvictedInflightLineStillMergesWithItsFill)
{
    MemSysParams p = mshrParams();
    p.l1d = {"l1d", 128, 1, 64, 3}; // 2 sets direct-mapped
    MemHierarchy mem(p);
    mem.dataRead(0x0040, 0); // warm the TLB page
    // Line 0x0000 misses: fill in flight for ~memoryLatency.
    const Cycle primary = mem.dataRead(0x0000, 1000);
    // A conflicting miss evicts 0x0000's tag (same set, 2 sets
    // direct-mapped)...
    mem.dataRead(0x0080, 1001);
    // ...so re-accessing 0x0000 is a tag miss -- but its fill is
    // still in flight: it must merge, not pay a fresh round trip.
    const MemSysStats before = mem.stats();
    const Cycle again = mem.dataRead(0x0000, 1002);
    const MemSysStats after = mem.stats();
    EXPECT_EQ(after.mshrMerges, before.mshrMerges + 1);
    EXPECT_LT(again, primary); // bounded by the in-flight fill
    EXPECT_EQ(1002 + again, 1000 + primary); // same completion
}

TEST(HierarchyMshr, DisplacedFillKeepsMergeWindow)
{
    MemSysParams p = mshrParams(); // 2 MSHRs
    MemHierarchy mem(p);
    for (const Addr warm : {0x10000, 0x20000, 0x30000})
        mem.dataRead(warm, 0);
    const Cycle a = mem.dataRead(0x10400, 1000); // entry A
    mem.dataRead(0x20400, 1000);                 // entry B
    mem.dataRead(0x30400, 1001); // full: displaces A's entry
    // A's line is still being filled; an access well inside its
    // flight completes with A's fill, never as a plain hit.
    const MemSysStats before = mem.stats();
    const Cycle lat = mem.dataRead(0x10408, 1005);
    EXPECT_GT(lat, p.l1d.hitLatency);
    EXPECT_EQ(1005 + lat, 1000 + a); // A's completion, preserved
    EXPECT_EQ(mem.stats().mshrMerges, before.mshrMerges + 1);
}

TEST(HierarchyMshr, FillWindowIncludesTlbLatency)
{
    MemSysParams p = mshrParams();
    MemHierarchy mem(p);
    // Fully cold access: dTLB miss + L1 miss + L2 miss + DRAM. The
    // in-flight window must cover the WHOLE returned latency, TLB
    // included -- an access late in the window still completes with
    // the fill, never before it.
    const Cycle primary = mem.dataRead(0x10000, 100);
    EXPECT_GT(primary, p.dtlb.missLatency);
    const Cycle late = primary - 10;
    const Cycle secondary = mem.dataRead(0x10008, 100 + late);
    EXPECT_EQ(secondary, 10u); // completes exactly at the fill
    EXPECT_EQ(mem.stats().mshrMerges, 1u);
}

TEST(HierarchyMshr, BusOccupancySerializesConcurrentFills)
{
    MemSysParams flat = mshrParams();
    MemSysParams queued = mshrParams();
    queued.busContention = true;
    MemHierarchy a(flat);
    MemHierarchy b(queued);
    for (const Addr warm : {0x10000, 0x20000}) {
        a.dataRead(warm, 0);
        b.dataRead(warm, 0);
    }
    // Two concurrent DRAM-bound misses: with the flat bus both pay
    // the same; with occupancy the second queues a transfer slot.
    const Cycle a1 = a.dataRead(0x10400, 1000);
    const Cycle a2 = a.dataRead(0x20400, 1000);
    EXPECT_EQ(a1, a2);
    const Cycle b1 = b.dataRead(0x10400, 1000);
    const Cycle b2 = b.dataRead(0x20400, 1000);
    EXPECT_EQ(b1, a1);
    EXPECT_EQ(b2, b1 + queued.busTransfer);
}

TEST(HierarchyPrefetch, StreamPrefetchTurnsMissesIntoHits)
{
    MemSysParams p;
    p.prefetchDegree = 2;
    MemHierarchy mem(p);
    Cycle now = 0;
    // Sequential walk: after the first miss in the region, the
    // prefetcher runs ahead of the stream.
    for (Addr addr = 0x40000; addr < 0x42000; addr += 64)
        mem.dataRead(addr, now += 10);
    const MemSysStats s = mem.stats();
    EXPECT_GT(s.prefIssued, 0u);
    EXPECT_GT(s.prefUseful, 0u);
    // The prefetched lines absorbed most of the walk's misses.
    EXPECT_LT(s.l1dMisses, 20u);
    // Accuracy bookkeeping stays within issued fills.
    EXPECT_LE(s.prefUseful, s.prefIssued);
}

} // anonymous namespace
} // namespace nosq
