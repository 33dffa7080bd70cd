/**
 * @file
 * Experiment harness: the run result, the benchmark runner and the
 * mean helpers shared by the sweep engine, the figures and the
 * examples.
 */

#ifndef NOSQ_SIM_EXPERIMENT_HH
#define NOSQ_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ooo/core.hh"
#include "ooo/sim_stats.hh"
#include "ooo/uarch_params.hh"
#include "workload/profiles.hh"

namespace nosq {

/** One benchmark run under one configuration. */
struct RunResult
{
    std::string benchmark;
    Suite suite = Suite::Media;
    std::string config;
    /**
     * Memory-hierarchy point label for `--sweep=memsys` rows (e.g.
     * "l2-1M-lat10-mshr8-pref"); empty — and omitted from the JSON
     * report — for every other sweep.
     */
    std::string memsys;
    SimResult sim;
    /**
     * False when the run did not complete (its sweep job threw) and
     * @c sim holds no real statistics. The JSON reporter surfaces
     * this so trajectory tooling can skip the run instead of
     * ingesting zeros.
     */
    bool valid = true;
};

/** Instructions per run of the ablation binaries: NOSQ_SIM_INSTS,
 * else 300000. @throws cli::UsageError unless it is a number >= 1 */
std::uint64_t defaultSimInsts();

/** Synthesize @p profile and run it on @p params. */
SimResult runBenchmark(const BenchmarkProfile &profile,
                       const UarchParams &params,
                       std::uint64_t max_insts,
                       std::uint64_t seed = 1);

/** Geometric mean of a vector of ratios. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean. */
double amean(const std::vector<double> &values);

} // namespace nosq

#endif // NOSQ_SIM_EXPERIMENT_HH
