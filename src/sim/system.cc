#include "sim/system.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace nosq {

namespace {

SharedL2Params
sharedParamsFrom(const MemSysParams &m)
{
    SharedL2Params p;
    p.l2 = m.l2;
    p.memoryLatency = m.memoryLatency;
    p.busTransfer = m.busTransfer;
    p.busContention = m.busContention;
    p.c2cLatency = m.cohC2cLatency;
    p.upgradeLatency = m.cohUpgradeLatency;
    return p;
}

} // anonymous namespace

System::System(const UarchParams &params_,
               std::vector<std::shared_ptr<const Program>> programs)
    : params(params_),
      shared(sharedParamsFrom(params_.memsys),
             unsigned(programs.empty() ? 1 : programs.size()))
{
    if (programs.empty() || programs.size() > max_cores) {
        throw std::invalid_argument(
            "System: core count must be in [1, " +
            std::to_string(max_cores) + "], got " +
            std::to_string(programs.size()));
    }
    cores.reserve(programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
        cores.push_back(
            std::make_unique<OooCore>(params, programs[i]));
        cores.back()->memory().attachSharedL2(&shared, unsigned(i));
        shared.attachL1d(unsigned(i),
                         &cores.back()->memory().l1d());
    }
}

void
System::lockstepUntil(std::uint64_t target, std::uint64_t bound)
{
    // Exact-boundary barrier: every core stops retiring at the
    // target (early finishers stall until the phase ends), so each
    // phase begins and ends on precise per-core instruction counts.
    for (const auto &c : cores)
        c->setCommitBudget(target);
    const bool skip = cores.front()->eventSkipOn();
    for (;;) {
        bool all_done = true;
        for (const auto &c : cores) {
            if (c->committedInsts() < target && !c->drained()) {
                all_done = false;
                break;
            }
        }
        if (all_done)
            return;

        // Core 0 first every cycle: directory transitions (and thus
        // cache-to-cache/invalidate outcomes) are deterministic.
        bool any_work = false;
        for (const auto &c : cores) {
            c->tick();
            any_work |= !c->quiescentTick();
        }
        nosq_assert(cores.front()->now() < bound,
                    "multi-core simulation livelock suspected");

        if (skip && !any_work) {
            // Every core was quiescent: fast-forward all clocks to
            // the earliest wake anywhere, preserving lockstep.
            Cycle wake = EventHorizon::no_event;
            for (const auto &c : cores)
                wake = std::min(wake, c->nextWake());
            if (wake != EventHorizon::no_event) {
                for (const auto &c : cores)
                    c->skipTo(wake);
            }
        }
    }
}

SimResult
System::run(std::uint64_t max_insts, std::uint64_t warmup_insts)
{
    const std::uint64_t total = max_insts + warmup_insts;
    const std::uint64_t bound = OooCore::livelockBound(total);

    if (warmup_insts > 0)
        lockstepUntil(warmup_insts, bound);

    // Restart measurement on every core at the same global cycle
    // (cores past their warmup budget simply measured from here),
    // and window the shared-L2 and directory counters the same way.
    for (const auto &c : cores)
        c->beginInterval();
    const CoherenceStats coh_base = shared.cohStats();
    const std::uint64_t l2_hits_base = shared.l2().hits();
    const std::uint64_t l2_misses_base = shared.l2().misses();
    const std::uint64_t l2_wb_base = shared.l2().writebacks();

    lockstepUntil(total, bound);

    std::vector<SimResult> per;
    per.reserve(cores.size());
    for (const auto &c : cores)
        per.push_back(c->harvestInterval());

    // Aggregate every SimResult counter across cores...
    SimResult agg;
    for (const SimResult &r : per)
        addSimCounters(agg, r);

    // ...then fix up the rows summing is wrong for: cycles are
    // lockstep-identical (wall time, not core-seconds), and the L2
    // rows belong to the shared cache (the private l2Cache objects
    // read 0 behind the redirect).
    for (const SimResult &r : per) {
        nosq_assert(r.cycles == per.front().cycles,
                    "lockstep broken: per-core cycle counts differ");
    }
    agg.cycles = per.front().cycles;
    agg.skippedCycles = per.front().skippedCycles;
    agg.l2Hits = shared.l2().hits() - l2_hits_base;
    agg.l2Misses = shared.l2().misses() - l2_misses_base;
    agg.l2Writebacks = shared.l2().writebacks() - l2_wb_base;

    agg.multicore = true;
    agg.numCores = cores.size();
    static_cast<CoherenceStats &>(agg) = shared.cohStats() - coh_base;
    agg.perCore.reserve(per.size());
    for (const SimResult &r : per) {
        SimResult::PerCore pc;
        pc.cycles = r.cycles;
        pc.insts = r.insts;
        pc.loads = r.loads;
        pc.stores = r.stores;
        pc.bypassedLoads = r.bypassedLoads;
        agg.perCore.push_back(pc);
    }
    return agg;
}

} // namespace nosq
