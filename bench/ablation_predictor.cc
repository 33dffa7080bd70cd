/**
 * @file
 * Ablation (Section 3.1): distance-based vs store-PC based
 * bypassing prediction.
 *
 * Both predictors observe the same dynamic trace and predict, for
 * every load, which in-window store (if any) it will bypass from.
 * The oracle is the functional simulator's byte-granular last-writer
 * annotation with a 64-store window (the reach of NoSQ's 6-bit
 * distance).
 *
 * The paper's argument: store-PC schemes name only the most recent
 * dynamic instance of a static store, so patterns like
 * X[i] = A*X[i-2] (LoopCarried) are structurally beyond them, while
 * a distance of two stores is trivially representable. Store-PC
 * schemes do carry implicit path sensitivity; the explicit path
 * history of the distance predictor recovers it.
 *
 * This is a trace-driven study, not a timing simulation, so it runs
 * through the sweep engine's custom-runner hook: one parallel job
 * per workload replays the trace once past both predictors and
 * packs the comparison into the SimResult as
 *   loads              -> loads observed
 *   bypassMispredicts  -> distance-scheme wrong predictions
 *   sqForwards         -> store-PC-scheme wrong predictions
 *                         (store-PC schemes name stores the way an
 *                         SQ forwards them, hence the field)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/table.hh"
#include "nosq/bypass_predictor.hh"
#include "nosq/path_history.hh"
#include "nosq/storepc_predictor.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "workload/functional.hh"
#include "workload/program_cache.hh"
#include "workload/kernels.hh"
#include "workload/profiles.hh"

using namespace nosq;

namespace {

constexpr unsigned window_stores = 64;

struct AccuracyResult
{
    std::uint64_t loads = 0;
    std::uint64_t distanceWrong = 0;
    std::uint64_t storePcWrong = 0;
};

/** Trace-driven accuracy comparison of the two predictor styles. */
AccuracyResult
comparePredictors(std::shared_ptr<const Program> program,
                  std::uint64_t max_insts)
{
    FunctionalSim sim(std::move(program));
    BypassPredictor distance(BypassPredictorParams{});
    StorePcBypassPredictor store_pc(StorePcPredictorParams{});
    PathHistory path;

    // Recent stores: SSN -> (pc) ring for oracle writer-PC lookup.
    std::vector<Addr> store_pc_by_ssn(1 << 16, 0);

    AccuracyResult out;
    DynInst di;
    for (std::uint64_t i = 0; i < max_insts && sim.step(di); ++i) {
        if (di.isBranch()) {
            if (isCondBranch(di.si.op))
                path.condBranch(di.taken);
            else if (di.si.op == Opcode::Call)
                path.call(di.pc);
            continue;
        }
        if (di.isStore()) {
            store_pc.storeRenamed(di.pc, di.ssn);
            store_pc_by_ssn[di.ssn % store_pc_by_ssn.size()] = di.pc;
            continue;
        }
        if (!di.isLoad())
            continue;

        const SSN ssn_rename = sim.storeCount();
        const SSN ssn_commit = ssn_rename > window_stores
            ? ssn_rename - window_stores : 0;

        // Oracle: the load bypasses iff one store wrote all its
        // bytes and that store is still in the window.
        const SSN writer = di.youngestWriterSsn();
        const bool should_bypass = di.singleWriter() &&
            writer > ssn_commit;
        const SSN correct_ssn = should_bypass ? writer : invalid_ssn;

        ++out.loads;

        // --- distance-based prediction -------------------------------
        const auto dp = distance.lookup(di.pc, path.raw());
        SSN dist_ssn = invalid_ssn;
        if (dp.bypass && dp.dist <= ssn_rename &&
            ssn_rename - dp.dist > ssn_commit) {
            dist_ssn = ssn_rename - dp.dist;
        }
        const bool dist_wrong = dist_ssn != correct_ssn;
        out.distanceWrong += dist_wrong;
        BypassTrainInfo info;
        info.shouldBypass = should_bypass;
        info.distKnown = writer != 0 &&
            ssn_rename - writer <= window_stores - 1;
        info.actualDist =
            static_cast<unsigned>(ssn_rename - writer);
        info.mispredicted = dist_wrong;
        distance.train(di.pc, path.raw(), info);

        // --- store-PC prediction ----------------------------------------
        const auto sp = store_pc.lookup(di.pc, ssn_commit);
        const SSN sp_ssn = sp.bypass ? sp.ssnByp : invalid_ssn;
        const bool sp_wrong = sp_ssn != correct_ssn;
        out.storePcWrong += sp_wrong;
        const Addr writer_pc = should_bypass
            ? store_pc_by_ssn[writer % store_pc_by_ssn.size()] : 0;
        store_pc.train(di.pc, writer_pc, sp_wrong);
    }
    return out;
}

Program
loopCarriedProgram()
{
    WorkloadBuilder wb(11);
    const auto lc = wb.addKernel(KernelKind::LoopCarried, {});
    const auto cp = wb.addKernel(KernelKind::Compute, {});
    std::vector<std::size_t> schedule;
    for (int i = 0; i < 4; ++i) {
        schedule.push_back(lc);
        schedule.push_back(cp);
    }
    return wb.build(schedule);
}

/**
 * One sweep job per workload: replay the trace once, train both
 * styles off the same oracle, and pack both error counts into the
 * SimResult (see the file header for the field mapping).
 */
SimResult
accuracyRunner(const SweepJob &job)
{
    const auto program = job.profile
        ? ProgramCache::global().get(*job.profile, job.seed)
        : std::make_shared<const Program>(loopCarriedProgram());
    const AccuracyResult r = comparePredictors(program, job.insts);
    SimResult sim;
    sim.loads = r.loads;
    sim.bypassMispredicts = r.distanceWrong;
    sim.sqForwards = r.storePcWrong;
    return sim;
}

} // anonymous namespace

int
main()
try {
    const std::uint64_t insts = defaultSimInsts();

    std::printf("Ablation: distance-based vs store-PC bypassing "
                "prediction\n(mis-predictions per 10k loads, "
                "64-store window)\n\n");

    // Loop-carried kernel + the selected profiles, one job each.
    std::vector<SweepJob> jobs;
    auto add_job = [&](const BenchmarkProfile *profile,
                       const std::string &label) {
        SweepJob job;
        job.profile = profile;
        job.benchmark = label;
        job.config = "distance-vs-storepc";
        job.insts = insts;
        job.runner = accuracyRunner;
        jobs.push_back(std::move(job));
    };
    add_job(nullptr, "X[i]=A*X[i-2] kernel");
    for (const auto *profile : selectedProfiles())
        add_job(profile, "");

    const std::vector<RunResult> results = runSweep(jobs);

    TextTable table;
    table.header({"workload", "distance mw/10k", "store-PC mw/10k"});
    for (std::size_t w = 0; w < results.size(); ++w) {
        const SimResult &r = results[w].sim;
        table.row({results[w].benchmark,
                   fmtDouble(1e4 * r.bypassMispredicts / r.loads, 1),
                   fmtDouble(1e4 * r.sqForwards / r.loads, 1)});
        if (w == 0)
            table.separator();
    }

    std::fputs(table.render().c_str(), stdout);
    std::printf("\nPaper shape check (Section 3.1): the store-PC "
                "scheme collapses on\nnon-most-recent-instance "
                "communication (the loop-carried kernel), while\n"
                "the distance scheme represents it exactly.\n");
    return 0;
} catch (const cli::UsageError &e) {
    // A malformed NOSQ_SIM_INSTS or NOSQ_JOBS.
    std::fprintf(stderr, "bench_ablation_predictor: %s\n", e.what());
    return 1;
}
