/**
 * @file
 * Ablation (Section 2.2 / [17]): tagged vs untagged SSBF filtering.
 *
 * Both filters observe the committed store stream of each benchmark
 * and are tested by every committed load with the same SSNnvul
 * policy (non-speculative loads: SSNcommit at execution, which this
 * offline study approximates as the SSN of the youngest store older
 * than the load). The untagged filter aliases and therefore fires
 * spuriously; the tagged filter adds tags (and per-set FIFO with
 * eviction floors) to cut spurious re-executions, and is the only
 * one that can support NoSQ's equality test at all.
 *
 * This is a trace-driven study, not a timing simulation, so it runs
 * through the sweep engine's custom-runner hook: one parallel job
 * per benchmark replays the store/load stream once past both
 * filters and packs the comparison into the SimResult as
 *   loads               -> loads observed
 *   commLoads           -> truly vulnerable loads
 *   reexecLoads         -> tagged filter's spurious firings
 *   loadFlushes         -> tagged filter's missed vulnerable loads
 *   dcacheReadsBackend  -> untagged filter's spurious firings
 *   dcacheWrites        -> untagged filter's missed vulnerable loads
 * (missed counts must stay zero; both filters are safe-by-design).
 */

#include <cstdio>
#include <deque>
#include <vector>

#include "common/cli.hh"
#include "common/table.hh"
#include "nosq/ssbf.hh"
#include "nosq/tssbf.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "workload/functional.hh"
#include "workload/program_cache.hh"
#include "workload/profiles.hh"

using namespace nosq;

namespace {

struct FilterRates
{
    std::uint64_t loads = 0;
    std::uint64_t vulnerable = 0;        // truly needed re-execution
    std::uint64_t spuriousTagged = 0;    // filter fired needlessly
    std::uint64_t spuriousUntagged = 0;
    std::uint64_t missedTagged = 0;      // must stay zero (safety)
    std::uint64_t missedUntagged = 0;
};

FilterRates
compare(std::shared_ptr<const Program> program,
        std::uint64_t max_insts)
{
    FunctionalSim sim(std::move(program));
    Tssbf tagged({128, 4});       // 1KB (paper geometry)
    UntaggedSsbf untagged(1024);  // 8KB of SSNs

    // Model each load as having executed speculatively while the
    // stores of the preceding `window` instructions were still in
    // flight: SSNnvul is the youngest store older than that window.
    constexpr std::uint64_t window = 64;
    std::deque<std::pair<InstSeq, SSN>> recent_stores;

    FilterRates out;
    DynInst di;
    std::uint64_t insts = 0;
    while (insts++ < max_insts && sim.step(di)) {
        if (di.isStore()) {
            tagged.storeUpdate(di.addr, di.size, di.ssn);
            untagged.storeUpdate(di.addr, di.size, di.ssn);
            recent_stores.emplace_back(di.seq, di.ssn);
            while (recent_stores.size() > window)
                recent_stores.pop_front();
        } else if (di.isLoad()) {
            ++out.loads;
            SSN nvul = sim.storeCount();
            for (const auto &[seq, ssn] : recent_stores) {
                if (di.seq - seq < window) {
                    nvul = ssn - 1; // oldest in-window store
                    break;
                }
            }
            const bool truly_vulnerable =
                di.youngestWriterSsn() > nvul;
            out.vulnerable += truly_vulnerable;
            const bool ft = tagged.needsReexecInequality(
                di.addr, di.size, nvul);
            const bool fu = untagged.needsReexecInequality(
                di.addr, di.size, nvul);
            out.spuriousTagged += ft && !truly_vulnerable;
            out.spuriousUntagged += fu && !truly_vulnerable;
            out.missedTagged += truly_vulnerable && !ft;
            out.missedUntagged += truly_vulnerable && !fu;
        }
    }
    return out;
}

/**
 * One sweep job per benchmark: replay the trace once past both
 * filters (they are independent observers of the same stream) and
 * pack both filters' rates into the SimResult (see the file header
 * for the field mapping).
 */
SimResult
filterRunner(const SweepJob &job)
{
    const FilterRates r = compare(
        ProgramCache::global().get(*job.profile, job.seed),
        job.insts);
    SimResult sim;
    sim.loads = r.loads;
    sim.commLoads = r.vulnerable;
    sim.reexecLoads = r.spuriousTagged;
    sim.loadFlushes = r.missedTagged;
    sim.dcacheReadsBackend = r.spuriousUntagged;
    sim.dcacheWrites = r.missedUntagged;
    return sim;
}

} // anonymous namespace

int
main()
try {
    const std::uint64_t insts = defaultSimInsts();

    std::printf("Ablation: tagged (1KB T-SSBF) vs untagged (8KB "
                "SSBF) filter precision\n(spurious re-execution "
                "rate; lower is better)\n\n");

    std::vector<SweepJob> jobs;
    for (const auto *profile : selectedProfiles()) {
        SweepJob job;
        job.profile = profile;
        job.config = "tssbf-vs-ssbf";
        job.insts = insts;
        job.runner = filterRunner;
        jobs.push_back(std::move(job));
    }

    const std::vector<RunResult> results = runSweep(jobs);

    TextTable table;
    table.header({"bench", "vulnerable%", "tagged spurious%",
                  "untagged spurious%", "missed (must be 0)"});

    std::vector<double> tagged_rates, untagged_rates;
    for (const RunResult &result : results) {
        const SimResult &r = result.sim;
        const double tr = 100.0 * r.reexecLoads / r.loads;
        const double ur = 100.0 * r.dcacheReadsBackend / r.loads;
        tagged_rates.push_back(tr);
        untagged_rates.push_back(ur);
        table.row({result.benchmark,
                   fmtDouble(100.0 * r.commLoads / r.loads, 2),
                   fmtDouble(tr, 3), fmtDouble(ur, 3),
                   std::to_string(r.loadFlushes + r.dcacheWrites)});
    }

    std::fputs(table.render().c_str(), stdout);
    std::printf("\nMean spurious rate: tagged %s%%, untagged %s%%.\n"
                "Paper shape check: tags cut spurious re-executions "
                "by roughly an order of\nmagnitude at lower storage, "
                "and only the tagged filter supports the\nequality "
                "test bypassed loads require.\n",
                fmtDouble(amean(tagged_rates), 3).c_str(),
                fmtDouble(amean(untagged_rates), 3).c_str());
    return 0;
} catch (const cli::UsageError &e) {
    // A malformed NOSQ_SIM_INSTS or NOSQ_JOBS.
    std::fprintf(stderr, "bench_ablation_ssbf: %s\n", e.what());
    return 1;
}
