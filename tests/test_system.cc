/**
 * @file
 * Tests for the multi-core System (sim/system.hh) and the
 * producer-consumer kernels (workload/multicore.hh): single-core
 * identity with OooCore::run, lockstep event-skip bit-identity,
 * cross-core coherence traffic on the queue kernels, and
 * construction validation.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ooo/core.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/multicore.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace {

constexpr std::uint64_t test_insts = 20000;
constexpr std::uint64_t test_warmup = 4000;

/** EXPECT_EQ every enumerated counter of two results. */
void
expectCountersEqual(const SimResult &a, const SimResult &b)
{
    std::vector<std::uint64_t> av;
    SimResult &ma = const_cast<SimResult &>(a);
    forEachSimCounter(ma, [&](const char *, std::uint64_t &v) {
        av.push_back(v);
    });
    std::size_t i = 0;
    SimResult &mb = const_cast<SimResult &>(b);
    forEachSimCounter(mb, [&](const char *name, std::uint64_t &v) {
        EXPECT_EQ(av[i], v) << "counter '" << name << "' diverged";
        ++i;
    });
}

TEST(System, SingleCoreMatchesOooCoreTiming)
{
    // A 1-core System routes L2-and-below through the SharedL2 with
    // a 1-core directory: no sharer ever exists, so every access
    // must cost exactly what the private path costs.
    for (const LsuMode mode : {LsuMode::SqStoreSets, LsuMode::Nosq}) {
        const UarchParams params = makeParams(mode, false);
        const BenchmarkProfile *profile = findProfile("gcc");
        ASSERT_NE(profile, nullptr);
        auto program = std::make_shared<const Program>(
            synthesize(*profile, 1));

        OooCore solo(params, program);
        const SimResult ref = solo.run(test_insts, test_warmup);

        System sys(params, {program});
        const SimResult got = sys.run(test_insts, test_warmup);

        expectCountersEqual(ref, got);
        EXPECT_TRUE(got.multicore);
        EXPECT_EQ(got.numCores, 1u);
        EXPECT_EQ(got.cohInvalidations, 0u);
        EXPECT_EQ(got.cohC2cTransfers, 0u);
        ASSERT_EQ(got.perCore.size(), 1u);
        EXPECT_EQ(got.perCore[0].cycles, ref.cycles);
        EXPECT_EQ(got.perCore[0].insts, ref.insts);
    }
}

TEST(System, LockstepSkipIsBitIdentical)
{
    // Collective skipping (all cores quiescent -> jump to the min
    // wake) must be a pure wall-clock optimization, exactly like the
    // single-core skip gate.
    for (const char *kernel : {"spsc-ring", "mpsc-queue"}) {
        SimResult results[2];
        for (const bool skip : {false, true}) {
            UarchParams params = makeParams(LsuMode::Nosq, false);
            params.eventSkip = skip;
            System sys(params,
                       buildMulticorePrograms(kernel, 2, 16, 1));
            results[skip ? 1 : 0] =
                sys.run(test_insts, test_warmup);
        }
        expectCountersEqual(results[0], results[1]);
        EXPECT_EQ(results[0].cohC2cTransfers,
                  results[1].cohC2cTransfers);
        EXPECT_EQ(results[0].cohInvalidations,
                  results[1].cohInvalidations);
        EXPECT_EQ(results[0].skippedCycles, 0u);
    }
}

TEST(System, SpscRingGeneratesCoherenceTraffic)
{
    const UarchParams params = makeParams(LsuMode::Nosq, false);
    System sys(params,
               buildMulticorePrograms("spsc-ring", 2, 16, 1));
    const SimResult r = sys.run(test_insts, test_warmup);

    EXPECT_TRUE(r.multicore);
    EXPECT_EQ(r.numCores, 2u);
    ASSERT_EQ(r.perCore.size(), 2u);
    // Lockstep: wall-clock cycles are identical on every core.
    EXPECT_EQ(r.perCore[0].cycles, r.perCore[1].cycles);
    EXPECT_EQ(r.cycles, r.perCore[0].cycles);
    // Each core ran its measured budget.
    EXPECT_GE(r.perCore[0].insts, test_insts);
    EXPECT_GE(r.perCore[1].insts, test_insts);
    // The producer's head publishes and the consumer's tail
    // publishes ping-pong ownership: real cross-core traffic.
    EXPECT_GT(r.cohC2cTransfers, 0u);
    EXPECT_GT(r.cohInvalidations, 0u);
    // The local store->load-back pairs give NoSQ bypass work.
    EXPECT_GT(r.bypassedLoads, 0u);
}

TEST(System, MpscQueueContendsHarderThanSpsc)
{
    const UarchParams params = makeParams(LsuMode::SqStoreSets,
                                          false);
    SimResult res[2];
    const char *kernels[2] = {"spsc-ring", "mpsc-queue"};
    for (int i = 0; i < 2; ++i) {
        System sys(params,
                   buildMulticorePrograms(kernels[i], 4, 16, 1));
        res[i] = sys.run(test_insts, test_warmup);
    }
    // All MPSC producers hammer one head word; the per-pair SPSC
    // rings spread their sharing out.
    EXPECT_GT(res[1].cohInvalidations, res[0].cohInvalidations);
}

/**
 * The 2-core grid of `nosq_sim --sweep=multicore --cores 2 --insts
 * 20000`: every run moves lines between the cores, NoSQ and the SQ
 * baseline differ at every point, and NoSQ wins at one point at
 * least. If the modes agreed, the multicore model would have stopped
 * mattering.
 */
TEST(System, MulticoreSweepSeparatesLsuModesAtEveryPoint)
{
    std::map<std::pair<std::string, std::string>, SimResult> runs;
    for (const SweepJob &job : buildMulticoreJobs(
             multicoreWorkloads(), multicoreConfigs({2}, {8, 64}),
             test_insts, test_insts / 3, /*seed=*/1)) {
        const RunResult r = runSweepJob(job);
        EXPECT_EQ(r.sim.numCores, 2u) << r.benchmark << " " << r.config;
        EXPECT_GT(r.sim.cohC2cTransfers, 0u)
            << "no coherence traffic: " << r.benchmark << " " << r.config;
        runs[{r.benchmark, r.config}] = r.sim;
    }
    unsigned pairs = 0, nosq_wins = 0;
    for (const auto &[key, sq] : runs) {
        const auto &[kernel, config] = key;
        if (config.rfind("sq/", 0) != 0)
            continue;
        const auto twin = runs.find({kernel, "nosq/" + config.substr(3)});
        ASSERT_NE(twin, runs.end()) << kernel << " " << config;
        ++pairs;
        EXPECT_NE(sq.cycles, twin->second.cycles)
            << "sq and nosq agree on " << kernel << " " << config;
        nosq_wins += twin->second.cycles < sq.cycles;
    }
    EXPECT_EQ(pairs, 4u);
    EXPECT_GT(nosq_wins, 0u) << "NoSQ never beat the SQ baseline";
}

TEST(System, RejectsBadCoreCounts)
{
    const UarchParams params = makeParams(LsuMode::Nosq, false);
    EXPECT_THROW(System(params, {}), std::invalid_argument);

    const BenchmarkProfile *profile = findProfile("gcc");
    ASSERT_NE(profile, nullptr);
    auto program = std::make_shared<const Program>(
        synthesize(*profile, 1));
    std::vector<std::shared_ptr<const Program>> too_many(
        max_cores + 1, program);
    EXPECT_THROW(System(params, too_many), std::invalid_argument);
}

TEST(MulticoreWorkload, ValidatesItsArguments)
{
    EXPECT_THROW(buildMulticorePrograms("no-such", 2, 16, 1),
                 std::invalid_argument);
    EXPECT_THROW(buildMulticorePrograms("spsc-ring", 3, 16, 1),
                 std::invalid_argument); // odd
    EXPECT_THROW(buildMulticorePrograms("mpsc-queue", 1, 16, 1),
                 std::invalid_argument); // too few
    EXPECT_THROW(buildMulticorePrograms("spsc-ring", 2, 0, 1),
                 std::invalid_argument); // depth zero
    EXPECT_THROW(buildMulticorePrograms("spsc-ring", 2, 24, 1),
                 std::invalid_argument); // not a power of two
    EXPECT_THROW(buildMulticorePrograms("spsc-ring", 2, 8192, 1),
                 std::invalid_argument); // over the bound
    EXPECT_EQ(buildMulticorePrograms("mpsc-queue", 3, 8, 7).size(),
              3u);
}

bool
programsEqual(const Program &a, const Program &b)
{
    if (a.code.size() != b.code.size())
        return false;
    for (std::size_t i = 0; i < a.code.size(); ++i) {
        const Instruction &x = a.code[i];
        const Instruction &y = b.code[i];
        if (x.op != y.op || x.rd != y.rd || x.ra != y.ra ||
            x.rb != y.rb || x.imm != y.imm)
            return false;
    }
    return true;
}

TEST(MulticoreWorkload, ProgramsAreSeedDeterministic)
{
    const auto a = buildMulticorePrograms("spsc-ring", 2, 16, 42);
    const auto b = buildMulticorePrograms("spsc-ring", 2, 16, 42);
    const auto c = buildMulticorePrograms("spsc-ring", 2, 16, 43);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(programsEqual(*a[i], *b[i]))
            << "same seed must rebuild the same program";
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_diff |= !programsEqual(*a[i], *c[i]);
    EXPECT_TRUE(any_diff) << "seed should vary the generated code";
}

} // anonymous namespace
} // namespace nosq
