#include "sim/sampling.hh"

#include <cmath>
#include <stdexcept>

#include "common/cli.hh"

namespace nosq {

bool
parseSamplingSpec(const std::string &text, SamplingParams &out,
                  std::string &err)
{
    std::vector<std::uint64_t> fields;
    try {
        for (const std::string &field : cli::splitList(text, ':'))
            fields.push_back(
                cli::parseNumber(field, 0, ~std::uint64_t(0)));
    } catch (const cli::UsageError &e) {
        err = e.what();
        return false;
    }
    if (fields.size() < 4 || fields.size() > 5) {
        err = "expected ff:warmup:interval:count[:seed], got '" +
            text + "'";
        return false;
    }
    SamplingParams p;
    p.enabled = true;
    p.ffLength = fields[0];
    p.warmupLength = fields[1];
    p.interval = fields[2];
    p.intervals = fields[3];
    p.seed = fields.size() == 5 ? fields[4] : 0;
    if (p.interval == 0) {
        err = "measured interval must be nonzero";
        return false;
    }
    if (p.intervals == 0) {
        err = "interval count must be nonzero";
        return false;
    }
    out = p;
    return true;
}

void
validateSamplingParams(const SamplingParams &params)
{
    if (!params.enabled)
        return;
    if (params.interval == 0)
        throw std::invalid_argument(
            "sampling: measured interval must be nonzero");
    if (params.intervals == 0)
        throw std::invalid_argument(
            "sampling: interval count must be nonzero");
}

double
tCritical95(std::size_t df)
{
    // Two-tailed alpha = 0.05 Student's t table; the normal
    // approximation above 30 degrees of freedom.
    static const double table[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return table[df - 1];
    return 1.96;
}

void
meanCi95(const std::vector<double> &xs, double &mean, double &ci95)
{
    mean = 0.0;
    ci95 = 0.0;
    const std::size_t n = xs.size();
    if (n == 0)
        return;
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    mean = sum / static_cast<double>(n);
    if (n < 2)
        return;
    double ss = 0.0;
    for (const double x : xs)
        ss += (x - mean) * (x - mean);
    const double sd = std::sqrt(ss / static_cast<double>(n - 1));
    ci95 = tCritical95(n - 1) * sd /
        std::sqrt(static_cast<double>(n));
}

} // namespace nosq
