/**
 * @file
 * Tests for the shared-L2 coherence layer (memsys/coherence.hh):
 * directed MESI transition checks, a property test driving random
 * per-core access interleavings against a reference directory model
 * (state-transition legality, single-writer invariant, no lost
 * writebacks), and the SharedL2 latency/invalidation behaviour.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "memsys/coherence.hh"

namespace nosq {
namespace {

// --- directed MESI transitions ---------------------------------------

TEST(Directory, FirstReadGrantsExclusive)
{
    Directory d(2);
    const auto out = d.read(0, 7);
    EXPECT_FALSE(out.c2c);
    EXPECT_EQ(out.invalidated, 0u);
    EXPECT_EQ(d.stateOf(0, 7), CohState::Exclusive);
    EXPECT_EQ(d.stateOf(1, 7), CohState::Invalid);
}

TEST(Directory, SilentExclusiveToModified)
{
    Directory d(2);
    d.read(0, 7);
    const auto out = d.write(0, 7);
    EXPECT_FALSE(out.c2c);
    EXPECT_FALSE(out.upgrade);
    EXPECT_EQ(out.invalidated, 0u);
    EXPECT_EQ(d.stateOf(0, 7), CohState::Modified);
    EXPECT_EQ(d.stats().cohInvalidations, 0u);
}

TEST(Directory, SecondReaderSharesAndDowngradesOwner)
{
    Directory d(2);
    d.read(0, 7); // core 0: E
    const auto out = d.read(1, 7);
    EXPECT_FALSE(out.c2c); // clean: no data transfer needed
    EXPECT_EQ(d.stateOf(0, 7), CohState::Shared);
    EXPECT_EQ(d.stateOf(1, 7), CohState::Shared);
}

TEST(Directory, ReadOfRemoteModifiedIsCacheToCache)
{
    Directory d(2);
    d.write(0, 7); // core 0: M
    const auto out = d.read(1, 7);
    EXPECT_TRUE(out.c2c);
    EXPECT_EQ(d.stateOf(0, 7), CohState::Shared);
    EXPECT_EQ(d.stateOf(1, 7), CohState::Shared);
    EXPECT_EQ(d.stats().cohC2cTransfers, 1u);
}

TEST(Directory, WriteToSharedUpgradesAndInvalidates)
{
    Directory d(3);
    d.read(0, 7);
    d.read(1, 7);
    d.read(2, 7); // all Shared
    const auto out = d.write(0, 7);
    EXPECT_TRUE(out.upgrade);
    EXPECT_EQ(out.invalidated, 2u);
    EXPECT_EQ(d.stateOf(0, 7), CohState::Modified);
    EXPECT_EQ(d.stateOf(1, 7), CohState::Invalid);
    EXPECT_EQ(d.stateOf(2, 7), CohState::Invalid);
    EXPECT_EQ(d.stats().cohInvalidations, 2u);
    EXPECT_EQ(d.stats().cohUpgradeMisses, 1u);
}

TEST(Directory, WriteOverRemoteModifiedTransfersAndInvalidates)
{
    Directory d(2);
    d.write(0, 7); // core 0: M
    const auto out = d.write(1, 7);
    EXPECT_TRUE(out.c2c);
    EXPECT_FALSE(out.upgrade); // writer held nothing
    EXPECT_EQ(out.invalidated, 1u);
    EXPECT_EQ(d.stateOf(0, 7), CohState::Invalid);
    EXPECT_EQ(d.stateOf(1, 7), CohState::Modified);
}

TEST(Directory, EvictReportsModifiedWriteback)
{
    Directory d(2);
    d.write(0, 7);
    EXPECT_TRUE(d.evict(0, 7)); // dropping an M copy owes a writeback
    EXPECT_EQ(d.stateOf(0, 7), CohState::Invalid);
    d.read(0, 8);
    EXPECT_FALSE(d.evict(0, 8)); // clean E copy: silent drop
    EXPECT_FALSE(d.evict(0, 9)); // never held: no-op
}

TEST(Directory, RejectsBadCoreCounts)
{
    EXPECT_THROW(Directory{0}, std::invalid_argument);
    EXPECT_THROW(Directory{max_cores + 1}, std::invalid_argument);
    EXPECT_NO_THROW(Directory{max_cores});
}

// --- property test vs a reference directory model --------------------

/**
 * Reference model: an explicit per-core MESI state vector per line,
 * updated by the textbook transition rules. The real Directory packs
 * the same information into a sharer mask + owner + dirty bit; the
 * property test checks the two stay equivalent under random
 * interleavings, and that every transition that surfaces dirty data
 * reports it (c2c flag, evict() return) so no writeback is lost.
 */
class RefDirectory
{
  public:
    explicit RefDirectory(unsigned cores) : numCores(cores) {}

    struct Outcome
    {
        bool c2c = false;
        bool upgrade = false;
        unsigned invalidated = 0;
    };

    Outcome
    read(unsigned core, Addr line)
    {
        auto &st = states(line);
        Outcome out;
        if (st[core] != CohState::Invalid)
            return out; // local hit, any of S/E/M
        bool any_other = false;
        for (unsigned i = 0; i < numCores; ++i) {
            if (i == core || st[i] == CohState::Invalid)
                continue;
            any_other = true;
            if (st[i] == CohState::Modified)
                out.c2c = true; // dirty data must be surfaced
            st[i] = CohState::Shared; // E/M downgrade
        }
        st[core] = any_other ? CohState::Shared : CohState::Exclusive;
        return out;
    }

    Outcome
    write(unsigned core, Addr line)
    {
        auto &st = states(line);
        Outcome out;
        if (st[core] == CohState::Modified)
            return out;
        if (st[core] == CohState::Exclusive) {
            st[core] = CohState::Modified; // silent upgrade
            return out;
        }
        out.upgrade = st[core] == CohState::Shared;
        for (unsigned i = 0; i < numCores; ++i) {
            if (i == core || st[i] == CohState::Invalid)
                continue;
            ++out.invalidated;
            if (st[i] == CohState::Modified)
                out.c2c = true; // dirty data must be surfaced
            st[i] = CohState::Invalid;
        }
        st[core] = CohState::Modified;
        return out;
    }

    /** @return true iff the dropped copy was Modified. */
    bool
    evict(unsigned core, Addr line)
    {
        auto &st = states(line);
        const bool was_m = st[core] == CohState::Modified;
        st[core] = CohState::Invalid;
        return was_m;
    }

    CohState
    stateOf(unsigned core, Addr line)
    {
        return states(line)[core];
    }

    /** Single-writer legality: an E/M holder is alone on its line. */
    void
    checkInvariants(Addr line)
    {
        auto &st = states(line);
        unsigned owners = 0, sharers = 0;
        for (unsigned i = 0; i < numCores; ++i) {
            if (st[i] == CohState::Exclusive ||
                st[i] == CohState::Modified)
                ++owners;
            else if (st[i] == CohState::Shared)
                ++sharers;
        }
        ASSERT_LE(owners, 1u);
        if (owners == 1) {
            ASSERT_EQ(sharers, 0u)
                << "single-writer invariant violated";
        }
    }

  private:
    std::vector<CohState> &
    states(Addr line)
    {
        auto it = lines.find(line);
        if (it == lines.end()) {
            it = lines.emplace(line,
                               std::vector<CohState>(
                                   numCores, CohState::Invalid))
                     .first;
        }
        return it->second;
    }

    unsigned numCores;
    std::map<Addr, std::vector<CohState>> lines;
};

TEST(DirectoryProperty, MatchesReferenceUnderRandomInterleavings)
{
    constexpr unsigned cores = 4;
    constexpr unsigned num_lines = 8;
    constexpr unsigned ops = 20000;

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Directory dut(cores);
        RefDirectory ref(cores);
        Rng rng(seed);

        for (unsigned op = 0; op < ops; ++op) {
            const unsigned core = unsigned(rng.below(cores));
            const Addr line = rng.below(num_lines);
            const unsigned kind = unsigned(rng.below(4));

            if (kind == 0) { // evict (rarer than accesses)
                const bool dut_wb = dut.evict(core, line);
                const bool ref_wb = ref.evict(core, line);
                ASSERT_EQ(dut_wb, ref_wb)
                    << "lost writeback on evict: seed " << seed
                    << " op " << op;
            } else if (kind == 1) {
                const auto d = dut.write(core, line);
                const auto r = ref.write(core, line);
                ASSERT_EQ(d.c2c, r.c2c) << "seed " << seed
                                        << " op " << op;
                ASSERT_EQ(d.upgrade, r.upgrade);
                ASSERT_EQ(d.invalidated, r.invalidated);
            } else {
                const auto d = dut.read(core, line);
                const auto r = ref.read(core, line);
                ASSERT_EQ(d.c2c, r.c2c) << "seed " << seed
                                        << " op " << op;
                ASSERT_EQ(d.upgrade, r.upgrade);
                ASSERT_EQ(d.invalidated, r.invalidated);
            }

            ref.checkInvariants(line);
            for (unsigned i = 0; i < cores; ++i) {
                ASSERT_EQ(dut.stateOf(i, line), ref.stateOf(i, line))
                    << "state diverged: seed " << seed << " op "
                    << op << " core " << i;
            }
        }
    }
}

// --- SharedL2 --------------------------------------------------------

SharedL2Params
smallParams()
{
    SharedL2Params p;
    p.l2 = {"l2", 16 * 1024, 4, 64, 10};
    p.memoryLatency = 100;
    p.busTransfer = 16;
    p.c2cLatency = 25;
    p.upgradeLatency = 12;
    return p;
}

TEST(SharedL2, PhysicalMappingSharedWindowIsCommon)
{
    SharedL2 s(smallParams(), 2);
    const Addr shared = shared_window_base + 0x100;
    EXPECT_EQ(s.physical(0, shared), s.physical(1, shared));
    const Addr priv = 0x1000;
    EXPECT_NE(s.physical(0, priv), s.physical(1, priv));
}

TEST(SharedL2, RemoteModifiedReadIsC2cLatency)
{
    SharedL2 s(smallParams(), 2);
    const Addr addr = shared_window_base;
    s.fill(0, addr, true, 0); // core 0 takes the line Modified
    const Cycle lat = s.fill(1, addr, false, 10);
    EXPECT_EQ(lat, smallParams().c2cLatency);
    EXPECT_EQ(s.cohStats().cohC2cTransfers, 1u);
}

TEST(SharedL2, ColdMissPaysMemoryPath)
{
    const SharedL2Params p = smallParams();
    SharedL2 s(p, 2);
    const Cycle lat = s.fill(0, shared_window_base, false, 0);
    // No contention modeling: flat L2 + DRAM + bus transfer.
    EXPECT_EQ(lat, p.l2.hitLatency + p.memoryLatency + p.busTransfer);
}

TEST(SharedL2, WriteHitOnSharedLinePaysUpgradeAndInvalidates)
{
    const SharedL2Params p = smallParams();
    SharedL2 s(p, 2);
    Cache l1a({"l1a", 1024, 2, 64, 3});
    Cache l1b({"l1b", 1024, 2, 64, 3});
    s.attachL1d(0, &l1a);
    s.attachL1d(1, &l1b);

    const Addr addr = shared_window_base;
    s.fill(0, addr, false, 0); // both cores read-share the line
    s.fill(1, addr, false, 0);
    l1a.access(addr, false);
    l1b.access(addr, false);
    ASSERT_TRUE(l1b.probe(addr));

    const Cycle extra = s.writeHit(0, addr, 0);
    EXPECT_EQ(extra, p.upgradeLatency);
    EXPECT_FALSE(l1b.probe(addr)) << "remote L1 copy must drop";
    EXPECT_TRUE(l1a.probe(addr)) << "writer's own copy survives";
    EXPECT_EQ(s.cohStats().cohInvalidations, 1u);

    // Exclusive now: further write hits are free.
    EXPECT_EQ(s.writeHit(0, addr, 0), 0u);
}

TEST(SharedL2, ValidatesParams)
{
    SharedL2Params p = smallParams();
    p.c2cLatency = 0;
    EXPECT_THROW(SharedL2(p, 2), std::invalid_argument);
    p = smallParams();
    p.upgradeLatency = 0;
    EXPECT_THROW(SharedL2(p, 2), std::invalid_argument);
    p = smallParams();
    EXPECT_THROW(SharedL2(p, 0), std::invalid_argument);
    EXPECT_THROW(SharedL2(p, max_cores + 1), std::invalid_argument);
}

} // anonymous namespace
} // namespace nosq
