/**
 * @file
 * Integration tests: full-stack runs (workload synthesis ->
 * functional sim -> timing core) with invariant checks, swept over
 * benchmarks and LSU modes with parameterized gtest.
 *
 * The strongest correctness property is implicit: the timing core
 * contains a hard assertion that every load skipping re-execution
 * committed the architecturally correct value, so *any* run that
 * completes has verified the SVW filter and the value plumbing on
 * every committed load.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "ooo/core.hh"
#include "sim/experiment.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace {

constexpr std::uint64_t sim_insts = 60000;
constexpr std::uint64_t sim_warmup = 25000;

/** All-mode sweep over a representative benchmark cross-section. */
using ModeCase = std::tuple<const char *, int>;

class ModeSweep : public ::testing::TestWithParam<ModeCase>
{
};

TEST_P(ModeSweep, RunsCleanWithSaneStats)
{
    const auto [bench, mode_int] = GetParam();
    const auto mode = static_cast<LsuMode>(mode_int);
    const auto *profile = findProfile(bench);
    ASSERT_NE(profile, nullptr);

    const Program program = synthesize(*profile, 1);
    OooCore core(makeParams(mode), program);
    const SimResult r = core.run(sim_insts, sim_warmup);

    EXPECT_EQ(r.insts, sim_insts);
    EXPECT_TRUE(core.renameConsistent());

    // Stat coherence.
    EXPECT_LE(r.loads + r.stores, r.insts);
    EXPECT_LE(r.commLoads, r.loads);
    EXPECT_LE(r.partialCommLoads, r.commLoads);
    EXPECT_LE(r.bypassedLoads, r.loads);
    EXPECT_LE(r.reexecLoads, r.loads);
    EXPECT_LE(r.shiftUops, r.bypassedLoads);
    EXPECT_GT(r.ipc(), 0.005);
    EXPECT_LE(r.ipc(), 4.0);

    if (mode == LsuMode::SqPerfect || mode == LsuMode::NosqPerfect) {
        EXPECT_EQ(r.loadFlushes, 0u);
    }
    UarchParams mode_only;
    mode_only.mode = mode;
    if (!mode_only.isNosq()) {
        EXPECT_EQ(r.bypassedLoads, 0u);
        // Every baseline load reads the cache; a few loads in flight
        // across the warm-up stat boundary may skew the counters.
        EXPECT_GE(r.dcacheReadsCore + 64, r.loads);
    }
}

std::vector<ModeCase>
modeCases()
{
    std::vector<ModeCase> cases;
    for (const char *bench :
         {"g721.e", "gs.d", "mesa.o", "mpeg2.d", "gzip", "mcf",
          "vortex", "gcc", "applu", "sixtrack", "lucas"}) {
        for (int mode = 0; mode < 4; ++mode)
            cases.emplace_back(bench, mode);
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, ModeSweep, ::testing::ValuesIn(modeCases()),
    [](const ::testing::TestParamInfo<ModeCase> &info) {
        std::string name = std::get<0>(info.param);
        for (auto &c : name)
            if (c == '.')
                c = '_';
        return name + "_mode" +
            std::to_string(std::get<1>(info.param));
    });

/** NoSQ-with-delay sweep over all 47 benchmarks. */
class NosqSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(NosqSweep, AccuracyAndFilterWithinPaperEnvelope)
{
    const auto *profile = findProfile(GetParam());
    ASSERT_NE(profile, nullptr);
    const Program program = synthesize(*profile, 1);
    OooCore core(makeParams(LsuMode::Nosq), program);
    const SimResult r = core.run(sim_insts, sim_warmup);

    EXPECT_EQ(r.insts, sim_insts);
    // Paper: no benchmark above 0.2% mis-predictions with delay;
    // allow a loose 1.5% envelope for the synthetic workloads at
    // this short (training-transient-heavy) run length.
    EXPECT_LT(r.mispredictsPer10kLoads(), 150.0) << profile->name;
    // Paper: ~0.7% of loads re-execute; allow a x20 envelope.
    EXPECT_LT(r.reexecRate(), 0.15) << profile->name;
    // Loads that communicate should mostly bypass once warmed.
    if (profile->pctComm > 5.0) {
        EXPECT_GT(r.bypassedLoads, 0u) << profile->name;
    }
    // NoSQ never reads the cache more than once per load in the
    // core (slack: loads in flight across the warm-up boundary).
    EXPECT_LE(r.dcacheReadsCore, r.loads + 64);
}

std::vector<const char *>
allNames()
{
    std::vector<const char *> names;
    for (const auto &p : allProfiles())
        names.push_back(p.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    All47, NosqSweep, ::testing::ValuesIn(allNames()),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// Cross-configuration properties
// ---------------------------------------------------------------------

TEST(Integration, NosqTracksBaselineCycles)
{
    // Paper headline: NoSQ performs within a few percent of the
    // conventional design (usually slightly better). Allow a
    // generous band for the synthetic substitution.
    for (const char *bench : {"gzip", "vortex", "applu", "g721.e"}) {
        const auto *profile = findProfile(bench);
        const Program program = synthesize(*profile, 1);
        OooCore base(makeParams(LsuMode::SqStoreSets), program);
        const auto rb = base.run(sim_insts, sim_warmup);
        OooCore nosq_core(makeParams(LsuMode::Nosq), program);
        const auto rn = nosq_core.run(sim_insts, sim_warmup);
        const double ratio =
            static_cast<double>(rn.cycles) / rb.cycles;
        EXPECT_GT(ratio, 0.80) << bench;
        EXPECT_LT(ratio, 1.20) << bench;
    }
}

TEST(Integration, PerfectSmbNeverLosesToRealisticNosq)
{
    for (const char *bench : {"mesa.o", "mpeg2.d", "vortex"}) {
        const auto *profile = findProfile(bench);
        const Program program = synthesize(*profile, 1);
        OooCore real(makeParams(LsuMode::Nosq), program);
        const auto rr = real.run(sim_insts, sim_warmup);
        OooCore ideal(makeParams(LsuMode::NosqPerfect), program);
        const auto ri = ideal.run(sim_insts, sim_warmup);
        EXPECT_LE(ri.cycles, rr.cycles * 101 / 100) << bench;
    }
}

TEST(Integration, DelayConfigurationMonotonicity)
{
    // With delay, mis-predictions must not exceed the no-delay
    // configuration (the whole point of Section 3.3's mechanism).
    for (const char *bench : {"g721.e", "gs.d", "mesa.o"}) {
        const auto *profile = findProfile(bench);
        const Program program = synthesize(*profile, 1);
        UarchParams nd = makeParams(LsuMode::Nosq);
        nd.nosqDelay = false;
        OooCore no_delay(nd, program);
        const auto rn = no_delay.run(sim_insts, sim_warmup);
        OooCore with_delay(makeParams(LsuMode::Nosq), program);
        const auto rd = with_delay.run(sim_insts, sim_warmup);
        EXPECT_LE(rd.bypassMispredicts, rn.bypassMispredicts)
            << bench;
    }
}

TEST(Integration, SvwFilterOffForcesFullReexecution)
{
    const auto *profile = findProfile("gzip");
    const Program program = synthesize(*profile, 1);
    UarchParams params = makeParams(LsuMode::Nosq);
    params.svwFilter = false;
    OooCore core(params, program);
    const SimResult r = core.run(sim_insts, sim_warmup);
    EXPECT_NEAR(static_cast<double>(r.reexecLoads),
                static_cast<double>(r.loads), 64.0);
    EXPECT_EQ(r.insts, sim_insts); // still architecturally correct

    OooCore filtered(makeParams(LsuMode::Nosq), program);
    const SimResult rf = filtered.run(sim_insts, sim_warmup);
    // Re-executing everything costs cycles (dcache port contention).
    EXPECT_GT(r.cycles, rf.cycles);
}

TEST(Integration, DeterministicAcrossIdenticalRuns)
{
    const auto *profile = findProfile("vpr.p");
    const Program pa = synthesize(*profile, 9);
    const Program pb = synthesize(*profile, 9);
    OooCore a(makeParams(LsuMode::Nosq), pa);
    OooCore b(makeParams(LsuMode::Nosq), pb);
    const auto ra = a.run(sim_insts, sim_warmup);
    const auto rb = b.run(sim_insts, sim_warmup);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.bypassedLoads, rb.bypassedLoads);
    EXPECT_EQ(ra.loadFlushes, rb.loadFlushes);
    EXPECT_EQ(ra.reexecLoads, rb.reexecLoads);
}

TEST(Integration, DifferentSeedsDifferentSchedulesSameTargets)
{
    const auto *profile = findProfile("gzip");
    const Program pa = synthesize(*profile, 1);
    const Program pb = synthesize(*profile, 2);
    OooCore a(makeParams(LsuMode::Nosq), pa);
    OooCore b(makeParams(LsuMode::Nosq), pb);
    const auto ra = a.run(sim_insts, sim_warmup);
    const auto rb = b.run(sim_insts, sim_warmup);
    // Communication targets hold across seeds.
    EXPECT_NEAR(ra.pctCommLoads(), rb.pctCommLoads(), 6.0);
}

TEST(Integration, BigWindowRaisesCommunicationPressure)
{
    const auto *profile = findProfile("mesa.o");
    const Program program = synthesize(*profile, 1);
    OooCore small(makeParams(LsuMode::NosqPerfect), program);
    const auto rs = small.run(sim_insts, sim_warmup);
    OooCore big(makeParams(LsuMode::NosqPerfect, true), program);
    const auto rb = big.run(sim_insts, sim_warmup);
    // More in-flight stores -> at least as many bypassed loads.
    EXPECT_GE(rb.bypassedLoads + rb.loads / 50, rs.bypassedLoads);
}

TEST(Integration, ExperimentHelperMeans)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
    EXPECT_NEAR(amean({1.0, 2.0, 3.0}), 2.0, 1e-9);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(amean({}), 0.0);
}

} // anonymous namespace
} // namespace nosq
