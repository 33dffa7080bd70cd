/**
 * @file
 * Tests for kernels, profiles, and the benchmark synthesizer,
 * including a parameterized property sweep over all 47 profiles.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/fnv.hh"
#include "common/rng.hh"
#include "common/sparse_memory.hh"
#include "workload/functional.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace {

/** Measured communication behaviour of a trace prefix. */
struct CommStats
{
    std::uint64_t insts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t commLoads = 0;
    std::uint64_t partialCommLoads = 0;

    double commPct() const
    {
        return loads ? 100.0 * commLoads / loads : 0.0;
    }
    double partialPct() const
    {
        return loads ? 100.0 * partialCommLoads / loads : 0.0;
    }
};

/**
 * Measure in-window communication the way the paper's Table 5 does:
 * a 128-instruction window with no limit on the number of stores.
 */
CommStats
measure(const Program &prog, std::uint64_t max_insts)
{
    constexpr std::uint64_t window = 128;
    FunctionalSim sim(prog);
    CommStats cs;
    // Track sizes of recent stores by dynamic seq for partial checks.
    // This deliberately re-derives the classification from the
    // per-byte oracle detail instead of trusting the precomputed
    // DynInst::oraclePartial flag, so it stays an independent check.
    std::map<std::uint64_t, unsigned> store_sizes;
    DynInst di;
    OracleBytes bytes;
    while (cs.insts < max_insts && sim.step(di, &bytes)) {
        ++cs.insts;
        if (di.isStore()) {
            ++cs.stores;
            store_sizes[di.seq] = di.size;
            if (store_sizes.size() > 4 * window)
                store_sizes.erase(store_sizes.begin());
        } else if (di.isLoad()) {
            ++cs.loads;
            const std::uint64_t wseq = di.youngestWriterSeq();
            if (wseq != 0 && di.seq - wseq < window) {
                ++cs.commLoads;
                bool partial = di.size < 8;
                for (unsigned i = 0; i < di.size && !partial; ++i) {
                    const auto it =
                        store_sizes.find(bytes.writerSeq[i]);
                    if (it != store_sizes.end() && it->second < 8)
                        partial = true;
                }
                if (partial)
                    ++cs.partialCommLoads;
                EXPECT_EQ(partial, di.oraclePartial)
                    << "precomputed partial flag diverged at seq "
                    << di.seq;
            }
        }
    }
    return cs;
}

/** Build a single-kernel program for kernel-level checks. */
Program
singleKernelProgram(KernelKind kind, const KernelParams &params,
                    unsigned calls = 4)
{
    WorkloadBuilder wb(123);
    const auto id = wb.addKernel(kind, params);
    std::vector<std::size_t> schedule(calls, id);
    return wb.build(schedule);
}

/**
 * The pointer-chase image built the straightforward way: a 64-bit
 * Sattolo permutation scattered into a vector of words that is then
 * copied into the image whole. @p starts gets the four chain starts.
 */
SparseMemory
chaseScatterReference(std::uint64_t seed, unsigned footprint_log2,
                      std::vector<Addr> &starts)
{
    constexpr Addr base = 0x1000'0000; // the first data region
    Rng rng(seed);
    const std::size_t n = (std::size_t(1) << footprint_log2) / 8;
    std::vector<std::uint64_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    for (std::size_t i = n - 1; i > 0; --i) {
        const std::size_t j = rng.below(i);
        std::swap(perm[i], perm[j]);
    }
    std::vector<std::uint64_t> words(n);
    for (std::size_t i = 0; i < n; ++i)
        words[perm[i]] = base + perm[(i + 1) % n] * 8;
    SparseMemory image;
    image.writeBytes(base,
                     reinterpret_cast<const std::uint8_t *>(words.data()),
                     n * sizeof(std::uint64_t));
    starts = {base + perm[0] * 8, base + perm[n / 4] * 8,
              base + perm[n / 2] * 8, base + perm[3 * n / 4] * 8};
    return image;
}

/**
 * FNV-1a digest of a program: its code field by field (an
 * Instruction's raw bytes include padding), then its image's present
 * pages in address order.
 */
std::string
programDigest(const Program &p)
{
    Fnv h;
    h.field("entry", p.entryPc);
    h.field("insts", p.code.size());
    for (const Instruction &in : p.code) {
        h.field("op", static_cast<std::uint64_t>(in.op));
        h.field("rd", in.rd);
        h.field("ra", in.ra);
        h.field("rb", in.rb);
        h.field("imm", static_cast<std::uint64_t>(in.imm));
    }
    h.field("pages", p.image.numPages());
    p.image.forEachPage([&](Addr addr, const std::uint8_t *bytes) {
        h.field("page", addr);
        h.text(std::string_view(reinterpret_cast<const char *>(bytes),
                                SparseMemory::page_size));
    });
    return h.hex();
}

TEST(Kernels, StackSpillCommunicatesFullWord)
{
    Program p = singleKernelProgram(KernelKind::StackSpill, {});
    const CommStats cs = measure(p, 20000);
    ASSERT_GT(cs.loads, 0u);
    EXPECT_NEAR(cs.commPct(), 100.0, 1.0);
    EXPECT_EQ(cs.partialCommLoads, 0u);
}

TEST(Kernels, StructCopyIsMostlyPartial)
{
    Program p = singleKernelProgram(KernelKind::StructCopy, {});
    const CommStats cs = measure(p, 20000);
    ASSERT_GT(cs.loads, 0u);
    EXPECT_NEAR(cs.commPct(), 100.0, 1.0);
    // 4 of 5 loads per call are partial-word.
    EXPECT_NEAR(cs.partialPct(), 80.0, 5.0);
}

TEST(Kernels, MemcpyByteIsMultiWriter)
{
    Program p = singleKernelProgram(KernelKind::MemcpyByte, {});
    FunctionalSim sim(p);
    DynInst di;
    unsigned multi = 0, loads = 0;
    for (int i = 0; i < 5000 && sim.step(di); ++i) {
        if (di.isLoad() && di.youngestWriterSsn() != 0) {
            ++loads;
            if (!di.singleWriter())
                ++multi;
        }
    }
    ASSERT_GT(loads, 0u);
    EXPECT_EQ(multi, loads); // every comm load merges two+ stores
}

TEST(Kernels, LoopCarriedDistanceIsStable)
{
    // X[i] = A * X[i-2]: with one store per iteration, the writer of
    // X[i-2] is one completed store back at load time (distance
    // convention: 0 = most recent older store).
    KernelParams params;
    params.iters = 6;
    Program p = singleKernelProgram(KernelKind::LoopCarried, params);
    FunctionalSim sim(p);
    DynInst di;
    unsigned dist1 = 0, comm = 0;
    for (int i = 0; i < 30000 && sim.step(di); ++i) {
        if (di.isLoad() && di.singleWriter()) {
            ++comm;
            const SSN dist =
                sim.storeCount() - di.youngestWriterSsn();
            if (dist == 1)
                ++dist1;
        }
    }
    ASSERT_GT(comm, 100u);
    // Steady-state iterations (4+ of 6 per call) have one distance.
    EXPECT_GT(double(dist1) / comm, 0.6);
}

TEST(Kernels, StreamNeverCommunicates)
{
    KernelParams params;
    params.footprintLog2 = 14;
    Program p = singleKernelProgram(KernelKind::Stream, params);
    const CommStats cs = measure(p, 20000);
    ASSERT_GT(cs.loads, 0u);
    EXPECT_EQ(cs.commLoads, 0u);
}

TEST(Kernels, PointerChaseNeverCommunicatesAndChases)
{
    KernelParams params;
    params.footprintLog2 = 14;
    Program p = singleKernelProgram(KernelKind::PointerChase, params);
    FunctionalSim sim(p);
    DynInst di;
    std::uint64_t loads = 0;
    std::set<Addr> addrs;
    for (int i = 0; i < 20000 && sim.step(di); ++i) {
        if (di.isLoad()) {
            ++loads;
            addrs.insert(di.addr);
            EXPECT_EQ(di.youngestWriterSsn(), 0u);
        }
    }
    ASSERT_GT(loads, 500u);
    // The permutation cycle visits many distinct slots.
    EXPECT_GT(addrs.size(), 400u);
}

TEST(Kernels, ChaseImageMatchesTheScatterReference)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (unsigned log2 = 10; log2 <= 23; ++log2) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " footprint 2^" +
                         std::to_string(log2));
            KernelParams params;
            params.footprintLog2 = log2;
            WorkloadBuilder wb(seed);
            const auto id = wb.addKernel(KernelKind::PointerChase, params);
            const Program p = wb.build({id});
            std::vector<Addr> starts;
            EXPECT_TRUE(p.image == chaseScatterReference(seed, log2, starts));
            // The prologue loads the four chain starts first.
            for (std::size_t i = 0; i < starts.size(); ++i) {
                ASSERT_EQ(p.code[i].op, Opcode::LdImm);
                EXPECT_EQ(static_cast<Addr>(p.code[i].imm), starts[i]);
            }
        }
    }
}

TEST(Kernels, FpConvertRoundTripsThroughMemory)
{
    Program p = singleKernelProgram(KernelKind::FpConvert, {});
    FunctionalSim sim(p);
    DynInst di;
    unsigned partial = 0, loads = 0;
    for (int i = 0; i < 5000 && sim.step(di); ++i) {
        if (di.isLoad()) {
            ++loads;
            EXPECT_EQ(di.size, 4u);
            EXPECT_TRUE(di.singleWriter());
            ++partial;
        }
    }
    EXPECT_GT(loads, 0u);
    EXPECT_EQ(partial, loads);
}

TEST(Kernels, PathDepAlternatesDistance)
{
    Program p = singleKernelProgram(KernelKind::PathDep, {});
    FunctionalSim sim(p);
    DynInst di;
    std::vector<SSN> dists;
    for (int i = 0; i < 4000 && sim.step(di); ++i) {
        if (di.isLoad() && di.singleWriter())
            dists.push_back(sim.storeCount() -
                            di.youngestWriterSsn());
    }
    ASSERT_GT(dists.size(), 10u);
    // Odd path: writer is the most recent store (distance 0); even
    // path: one younger store intervenes (distance 1).
    unsigned zeros = 0, ones = 0;
    for (const auto d : dists) {
        zeros += d == 0;
        ones += d == 1;
    }
    EXPECT_GT(zeros, 0u);
    EXPECT_GT(ones, 0u);
    EXPECT_EQ(zeros + ones, dists.size());
}

TEST(Kernels, CallsiteDistanceDependsOnSite)
{
    Program p = singleKernelProgram(KernelKind::Callsite, {});
    FunctionalSim sim(p);
    DynInst di;
    std::map<SSN, unsigned> dist_counts;
    for (int i = 0; i < 4000 && sim.step(di); ++i) {
        if (di.isLoad() && di.singleWriter())
            ++dist_counts[sim.storeCount() -
                          di.youngestWriterSsn()];
    }
    // Same static load: distance 0 from site A (helper's store is
    // the most recent), distance 1 from site B (one intervening
    // store).
    EXPECT_GT(dist_counts[0], 0u);
    EXPECT_GT(dist_counts[1], 0u);
}

TEST(Generator, EveryProfileBuildsAndRuns)
{
    for (const auto &profile : allProfiles()) {
        Program p = synthesize(profile, 1);
        FunctionalSim sim(p);
        DynInst di;
        for (int i = 0; i < 2000; ++i)
            ASSERT_TRUE(sim.step(di)) << profile.name;
    }
}

TEST(Generator, DeterministicForSameSeed)
{
    const auto *profile = findProfile("gzip");
    ASSERT_NE(profile, nullptr);
    Program a = synthesize(*profile, 7);
    Program b = synthesize(*profile, 7);
    ASSERT_EQ(a.numInsts(), b.numInsts());
    for (std::size_t i = 0; i < a.numInsts(); ++i) {
        EXPECT_EQ(static_cast<int>(a.code[i].op),
                  static_cast<int>(b.code[i].op));
        EXPECT_EQ(a.code[i].imm, b.code[i].imm);
    }
}

TEST(Generator, EveryProgramIsPinned)
{
    // Every profile's code and data image at seed 1. Reports, golden
    // statistics and job fingerprints all follow from these bytes, so
    // a synthesis change that moves one must update this pin on
    // purpose.
    Fnv all;
    for (const auto &profile : allProfiles()) {
        all.text(profile.name);
        all.text(programDigest(synthesize(profile, 1)));
    }
    EXPECT_EQ(all.hex(), "0540abc81052b0c1");
}

TEST(Profiles, TableCoversAllSuites)
{
    const auto &all = allProfiles();
    EXPECT_EQ(all.size(), 47u);
    unsigned media = 0, ints = 0, fps = 0;
    for (const auto &p : all) {
        media += p.suite == Suite::Media;
        ints += p.suite == Suite::Int;
        fps += p.suite == Suite::Fp;
    }
    EXPECT_EQ(media, 18u);
    EXPECT_EQ(ints, 16u);
    EXPECT_EQ(fps, 13u);
}

TEST(Profiles, SelectedSubsetMatchesFigure3)
{
    const auto sel = selectedProfiles();
    EXPECT_EQ(sel.size(), 15u);
    EXPECT_STREQ(sel.front()->name, "g721.e");
    EXPECT_STREQ(sel.back()->name, "wupwise");
}

TEST(Profiles, FindByName)
{
    EXPECT_NE(findProfile("mcf"), nullptr);
    EXPECT_EQ(findProfile("nonesuch"), nullptr);
    EXPECT_EQ(findProfile("mcf")->suite, Suite::Int);
}

/**
 * Property sweep: for every benchmark profile, the synthesized
 * program's measured in-window communication rate must approximate
 * the Table 5 target.
 */
class ProfileCommunication
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ProfileCommunication, MatchesTable5Targets)
{
    const auto *profile = findProfile(GetParam());
    ASSERT_NE(profile, nullptr);
    Program p = synthesize(*profile, 1);
    const CommStats cs = measure(p, 400000);
    ASSERT_GT(cs.loads, 100u);

    const double tol_comm =
        std::max(2.0, 0.45 * profile->pctComm);
    EXPECT_NEAR(cs.commPct(), profile->pctComm, tol_comm)
        << profile->name;
    const double tol_part =
        std::max(1.5, 0.5 * profile->pctPartial);
    EXPECT_NEAR(cs.partialPct(), profile->pctPartial, tol_part)
        << profile->name;
}

std::vector<const char *>
profileNames()
{
    std::vector<const char *> names;
    for (const auto &p : allProfiles())
        names.push_back(p.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ProfileCommunication,
    ::testing::ValuesIn(profileNames()),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

} // anonymous namespace
} // namespace nosq
