/**
 * @file
 * SMARTS-style sampled simulation: parameters, the `--sample=` spec
 * parser, and the confidence-interval math.
 *
 * A sampled run alternates functional fast-forward (architectural
 * state only, no timing) with short detailed intervals. Each
 * measured interval is preceded by a detailed warmup that re-warms
 * caches and predictors after the fast-forward; per-interval IPCs
 * are aggregated into a mean and a 95% confidence interval
 * (Student's t for small interval counts). The aggregate counters of
 * a sampled run are the sums over the measured intervals only.
 */

#ifndef NOSQ_SIM_SAMPLING_HH
#define NOSQ_SIM_SAMPLING_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nosq {

/** Configuration of one sampled run (all counts in instructions). */
struct SamplingParams
{
    bool enabled = false;
    /** Functionally fast-forwarded instructions per period. */
    std::uint64_t ffLength = 0;
    /** Detailed (unmeasured) warmup instructions per interval. */
    std::uint64_t warmupLength = 0;
    /** Measured detailed instructions per interval. */
    std::uint64_t interval = 0;
    /** Number of measured intervals. */
    std::uint64_t intervals = 0;
    /**
     * Sampling-offset seed: nonzero randomizes the initial
     * fast-forward offset (systematic sampling with a random start);
     * zero starts measuring at the first period boundary. The run is
     * deterministic for any fixed seed.
     */
    std::uint64_t seed = 0;
};

/**
 * Parse a `--sample=` spec: `ff:warmup:interval:count[:seed]`,
 * e.g. `--sample=20000:2000:1000:10`. Every field is decimal digits
 * only (cli::parseNumber()).
 *
 * @return false (with @p err set) on malformed or invalid specs
 */
bool parseSamplingSpec(const std::string &text, SamplingParams &out,
                       std::string &err);

/**
 * Validate a parameter block (interval/count nonzero when enabled).
 * @throws std::invalid_argument naming the offending field
 */
void validateSamplingParams(const SamplingParams &params);

/** Two-tailed 95% Student's t critical value for @p df degrees of
 * freedom (z = 1.96 above 30). */
double tCritical95(std::size_t df);

/**
 * Sample mean and 95% confidence half-width of @p xs. With fewer
 * than two samples the half-width is 0 (no variance estimate).
 */
void meanCi95(const std::vector<double> &xs, double &mean,
              double &ci95);

} // namespace nosq

#endif // NOSQ_SIM_SAMPLING_HH
