#include "sim/experiment.hh"

#include <cmath>
#include <limits>

#include "common/cli.hh"
#include "workload/program_cache.hh"

namespace nosq {

std::uint64_t
defaultSimInsts()
{
    return cli::parseEnvNumber("NOSQ_SIM_INSTS", 1, ~std::uint64_t(0))
        .value_or(300000);
}

SimResult
runBenchmark(const BenchmarkProfile &profile,
             const UarchParams &params, std::uint64_t max_insts,
             std::uint64_t seed)
{
    OooCore core(params, ProgramCache::global().get(profile, seed));
    return core.run(max_insts);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    // Classify the inputs std::log handles badly instead of letting
    // log(0) = -inf / log(negative) = NaN flow silently through the
    // sum. Zeros and infinities keep their mathematically exact
    // geomean (a zero factor makes it zero); negative or NaN inputs
    // yield NaN, which the JSON reporter emits as null alongside the
    // run's "valid" flag instead of a fake finite number.
    bool has_zero = false, has_inf = false;
    double log_sum = 0.0;
    for (const double v : values) {
        if (std::isnan(v) || v < 0.0)
            return std::numeric_limits<double>::quiet_NaN();
        if (v == 0.0) {
            has_zero = true;
            continue;
        }
        if (std::isinf(v)) {
            has_inf = true;
            continue;
        }
        log_sum += std::log(v);
    }
    if (has_zero && has_inf)
        return std::numeric_limits<double>::quiet_NaN();
    if (has_zero)
        return 0.0;
    if (has_inf)
        return std::numeric_limits<double>::infinity();
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
amean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace nosq
