#include "sim/perf.hh"

#include <chrono>

#include "common/logging.hh"
#include "ooo/core.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/multicore.hh"
#include "workload/profiles.hh"
#include "workload/program_cache.hh"

namespace nosq {

namespace {

/** The reference perf workload's benchmark pair (see perf.hh). */
const char *const perf_benchmarks[] = {"gcc", "g721.e"};

/**
 * Stall-heavy configuration for the extension rows: tiny L1D and L2
 * in front of a slow memory, one MSHR, no prefetch. gcc lands near
 * CPI 27 here, so almost every cycle is a quiescent wait and the
 * event-driven skip (and sampling on top of it) is what the rows
 * measure.
 */
UarchParams
stallHeavyParams(bool event_skip)
{
    UarchParams params = makeParams(LsuMode::Nosq, false);
    params.memsys.memoryLatency = 2500;
    params.memsys.l2.sizeBytes = 32 * 1024;
    params.memsys.l2.hitLatency = 30;
    params.memsys.l1d.sizeBytes = 4 * 1024;
    params.memsys.mshrs = 1;
    params.memsys.prefetchDegree = 0;
    params.eventSkip = event_skip;
    return params;
}

/** One timed row: @p sim_insts over @p wall_ms, plus its work. */
PerfRun
timedRun(std::string benchmark, std::string config,
         std::uint64_t sim_insts, const SimResult &sim, double wall_ms,
         const WorkCounters &work)
{
    PerfRun run;
    run.benchmark = std::move(benchmark);
    run.config = std::move(config);
    run.simInsts = sim_insts;
    run.cycles = sim.cycles;
    run.wallMs = wall_ms;
    run.mips = wall_ms > 0.0
        ? static_cast<double>(run.simInsts) / wall_ms / 1e3
        : 0.0;
    run.work = work;
    return run;
}

/** One JSON row of the runs / extra_runs arrays. */
std::string
runJson(const PerfRun &run)
{
    return "{\"benchmark\": \"" + jsonEscape(run.benchmark) +
        "\", \"config\": \"" + jsonEscape(run.config) +
        "\", \"sim_insts\": " + std::to_string(run.simInsts) +
        ", \"cycles\": " + std::to_string(run.cycles) +
        ", \"wall_ms\": " + jsonNumber(run.wallMs) +
        ", \"mips\": " + jsonNumber(run.mips) +
        ", \"ticks\": " + std::to_string(run.work.ticks) +
        ", \"issue_candidates_examined\": " +
        std::to_string(run.work.issueCandidatesExamined) +
        ", \"trace_insts_produced\": " +
        std::to_string(run.work.traceInstsProduced) + "}";
}

} // anonymous namespace

PerfReport
runPerfHarness(std::uint64_t insts, std::uint64_t warmup)
{
    using clock = std::chrono::steady_clock;

    PerfReport report;
    nosq_assert(insts > 0, "the perf harness measures at least 1 inst");
    report.insts = insts;
    report.warmup = warmup == ~std::uint64_t(0) ? report.insts / 3
                                                : warmup;

    const std::vector<SweepConfig> configs =
        paperFigureConfigs(/*big_window=*/false);

    const auto harness_start = clock::now();
    for (const char *bench : perf_benchmarks) {
        const BenchmarkProfile *profile = findProfile(bench);
        nosq_assert(profile != nullptr,
                    "perf reference benchmark missing");
        const auto program =
            ProgramCache::global().get(*profile, /*seed=*/1);
        for (const SweepConfig &config : configs) {
            const auto start = clock::now();
            OooCore core(config.materialize(), program);
            const SimResult sim =
                core.run(report.insts, report.warmup);
            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    clock::now() - start).count();

            // sim.insts is the measured phase only; the warm-up
            // instructions were simulated (and paid for) too.
            report.runs.push_back(timedRun(
                profile->name, config.name, sim.insts + report.warmup,
                sim, wall_ms, core.workCounters()));
            report.totalSimInsts += report.runs.back().simInsts;
        }
    }
    report.totalWallMs =
        std::chrono::duration<double, std::milli>(
            clock::now() - harness_start).count();
    report.mips = report.totalWallMs > 0.0
        ? static_cast<double>(report.totalSimInsts) /
            report.totalWallMs / 1e3
        : 0.0;

    // Extension rows (kept out of the totals; see perf.hh): the
    // event-skip A/B and a sampled run on the stall-heavy config.
    {
        const BenchmarkProfile *profile = findProfile("gcc");
        nosq_assert(profile != nullptr,
                    "perf reference benchmark missing");
        const auto program =
            ProgramCache::global().get(*profile, /*seed=*/1);
        for (const bool skip : {false, true}) {
            const auto start = clock::now();
            OooCore core(stallHeavyParams(skip), program);
            const SimResult sim =
                core.run(report.insts, report.warmup);
            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    clock::now() - start).count();
            report.extraRuns.push_back(timedRun(
                profile->name, skip ? "stall-skip" : "stall-noskip",
                sim.insts + report.warmup, sim, wall_ms,
                core.workCounters()));
        }

        SamplingParams sp;
        sp.enabled = true;
        sp.ffLength = 18000;
        sp.warmupLength = 1000;
        sp.interval = 1000;
        sp.intervals = 100;
        const auto start = clock::now();
        OooCore core(stallHeavyParams(true), program);
        const SimResult sim = core.runSampled(sp);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                clock::now() - start).count();
        // Effective throughput: every traversed instruction
        // (fast-forwarded + warmup + measured) per wall second.
        report.extraRuns.push_back(timedRun(
            profile->name, "stall-sampled",
            sim.sampleFfInsts +
                (sp.warmupLength + sp.interval) * sim.sampleIntervals,
            sim, wall_ms, core.workCounters()));
    }

    // Multi-core extension row: a 2-core spsc-ring System under
    // NoSQ, so the lockstep + coherence overhead per simulated
    // instruction is tracked alongside the single-core trajectory.
    {
        const auto start = clock::now();
        System system(makeParams(LsuMode::Nosq, false),
                      buildMulticorePrograms(
                          "spsc-ring", 2, default_queue_depth,
                          /*seed=*/1));
        const SimResult sim =
            system.run(report.insts, report.warmup);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                clock::now() - start).count();
        WorkCounters work;
        for (unsigned i = 0; i < system.numCores(); ++i)
            work += system.core(i).workCounters();
        // Both cores simulate the full budget each.
        report.extraRuns.push_back(timedRun(
            "spsc-ring", "multicore-spsc", sim.insts + 2 * report.warmup,
            sim, wall_ms, work));
    }
    return report;
}

std::string
perfReportJson(const PerfReport &report)
{
    std::string out = "{\n";
    out += "  \"schema\": \"nosq-bench-core-v1\",\n";
    out += "  \"insts\": " + std::to_string(report.insts) + ",\n";
    out += "  \"warmup\": " + std::to_string(report.warmup) + ",\n";
    out += "  \"runs\": [\n";
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        out += "    " + runJson(report.runs[i]);
        out += i + 1 < report.runs.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
    // Additive key: the stall-heavy event-skip / sampling rows.
    // Excluded from "total" so trajectory deltas stay meaningful.
    out += "  \"extra_runs\": [\n";
    for (std::size_t i = 0; i < report.extraRuns.size(); ++i) {
        out += "    " + runJson(report.extraRuns[i]);
        out += i + 1 < report.extraRuns.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
    out += "  \"total\": {\"sim_insts\": " +
        std::to_string(report.totalSimInsts) +
        ", \"wall_ms\": " + jsonNumber(report.totalWallMs) +
        ", \"mips\": " + jsonNumber(report.mips) + "}\n";
    out += "}\n";
    return out;
}

} // namespace nosq
