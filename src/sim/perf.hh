/**
 * @file
 * Simulator-performance measurement harness.
 *
 * Measures how fast the simulator itself runs -- simulated MIPS
 * (committed instructions per wall-clock second, warmup included)
 * and wall-clock per run -- over a fixed reference workload: the
 * Figure 2 configuration set (the five bars, 128-entry window) on
 * two contrasting benchmarks (gcc: integer control-flow noise;
 * g721.e: partial-word communication). Runs execute serially so the
 * number is a single-core figure, comparable across machines with
 * different core counts.
 *
 * The harness backs `nosq_sim --perf`, and its JSON
 * ("nosq-bench-core-v1") is the per-commit BENCH_core.json CI
 * artifact: every future PR lands on a visible performance
 * trajectory next to BENCH_sweep.json. Wall-clock and
 * MIPS are measurement outputs, not simulated statistics -- the
 * simulated counters inside each run stay bit-identical across
 * simulator optimizations, and the golden-stats test enforces that
 * separately. Each row also carries the run's WorkCounters (ticks,
 * issue candidates examined, trace instructions produced): host work
 * that, unlike wall time, reproduces exactly, so CI fails when they
 * differ from the committed trajectory's last entry.
 */

#ifndef NOSQ_SIM_PERF_HH
#define NOSQ_SIM_PERF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ooo/sim_stats.hh"

namespace nosq {

/** One timed simulation run. */
struct PerfRun
{
    std::string benchmark;
    std::string config;
    /** Instructions committed (measured + warmup). */
    std::uint64_t simInsts = 0;
    /** Simulated cycles (measured phase). */
    std::uint64_t cycles = 0;
    double wallMs = 0.0;
    /** simInsts / wall seconds / 1e6. */
    double mips = 0.0;
    /** Deterministic host work of the run (all cores, warmup
     * included): the counters CI gates on, where MIPS only warns. */
    WorkCounters work;
};

/** The full harness result. */
struct PerfReport
{
    /** Measured instructions per run. */
    std::uint64_t insts = 0;
    /** Warm-up instructions per run. */
    std::uint64_t warmup = 0;
    std::vector<PerfRun> runs;
    std::uint64_t totalSimInsts = 0;
    double totalWallMs = 0.0;
    /** Aggregate simulated MIPS over every run. */
    double mips = 0.0;
    /**
     * Extension rows, excluded from the totals so the aggregate
     * MIPS stays comparable across the whole trajectory: the
     * event-skip A/B (`stall-noskip` vs `stall-skip`) and the
     * sampled run (`stall-sampled`, whose simInsts and MIPS count
     * every traversed instruction -- fast-forwarded, warmup, and
     * measured -- i.e. effective throughput) on a stall-heavy
     * memory configuration where quiescent-cycle skipping pays.
     */
    std::vector<PerfRun> extraRuns;
};

/**
 * Run the reference workload serially and time it.
 *
 * @param insts measured instructions per run, at least 1
 * @param warmup warm-up instructions per run (~0: insts / 3)
 */
PerfReport runPerfHarness(std::uint64_t insts, std::uint64_t warmup);

/** Serialize @p report to the nosq-bench-core-v1 JSON schema. */
std::string perfReportJson(const PerfReport &report);

} // namespace nosq

#endif // NOSQ_SIM_PERF_HH
