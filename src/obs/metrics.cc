/**
 * @file
 * Histogram bookkeeping and Prometheus text rendering (see
 * metrics.hh).
 */

#include "obs/metrics.hh"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "sim/report.hh"

namespace nosq {
namespace obs {

namespace {

/**
 * Shortest decimal literal that reads back as exactly @p v.
 * Exposition values must round-trip (the round-trip unit test and
 * any scraper doing rate() math depend on it) without rendering
 * every gauge as a 17-digit monster. jsonNumber() runs the search;
 * integers, NaN and the infinities keep their own spellings.
 */
std::string
fmtValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::fabs(v) < 9.2e18) {
        return std::to_string(static_cast<long long>(v));
    }
    return jsonNumber(v);
}

void
appendSample(std::string &out, std::string_view name,
             std::string_view labels, const std::string &value)
{
    out += name;
    if (!labels.empty()) {
        out += '{';
        out += labels;
        out += '}';
    }
    out += ' ';
    out += value;
    out += '\n';
}

} // anonymous namespace

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i)
        assert(bounds_[i - 1] < bounds_[i] &&
               "histogram bounds must be strictly increasing");
}

void
Histogram::observe(double v)
{
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    ++counts_[i];
    ++count_;
    sum_ += v;
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    return i < counts_.size() ? counts_[i] : 0;
}

const std::vector<double> &
defaultLatencyBucketsMs()
{
    static const std::vector<double> buckets = {
        1,    5,     10,    20,    30,    40,    50,    100,
        250,  500,   1000,  2500,  5000,  10000, 30000, 60000,
        300000,
    };
    return buckets;
}

// --- rendering --------------------------------------------------------------

void
exposeHeader(std::string &out, std::string_view name,
             std::string_view type, std::string_view help)
{
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
}

void
exposeSample(std::string &out, std::string_view name,
             std::string_view labels, double value)
{
    appendSample(out, name, labels, fmtValue(value));
}

void
exposeSample(std::string &out, std::string_view name,
             std::string_view labels, std::uint64_t value)
{
    appendSample(out, name, labels, std::to_string(value));
}

void
exposeHistogram(std::string &out, std::string_view name,
                const Histogram &h)
{
    const std::string bucket = std::string(name) + "_bucket";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
        cumulative += h.bucketCount(i);
        const std::string le = i < h.bounds().size()
                                   ? fmtValue(h.bounds()[i])
                                   : std::string("+Inf");
        exposeSample(out, bucket, "le=\"" + le + "\"", cumulative);
    }
    exposeSample(out, std::string(name) + "_sum", "", h.sum());
    exposeSample(out, std::string(name) + "_count", "", h.count());
}

// --- parsing ----------------------------------------------------------------

bool
parseExposition(const std::string &text,
                std::vector<ExpositionSample> &out, std::string *error)
{
    out.clear();
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        ExpositionSample sample;
        std::size_t pos = line.find_first_of("{ ");
        if (pos == std::string::npos) {
            if (error != nullptr)
                *error = "line " + std::to_string(lineno) +
                         ": no value";
            return false;
        }
        sample.name = line.substr(0, pos);
        if (line[pos] == '{') {
            const std::size_t close = line.find('}', pos);
            if (close == std::string::npos) {
                if (error != nullptr)
                    *error = "line " + std::to_string(lineno) +
                             ": unterminated label block";
                return false;
            }
            sample.labels = line.substr(pos + 1, close - pos - 1);
            pos = close + 1;
        }
        while (pos < line.size() && line[pos] == ' ')
            ++pos;
        if (pos >= line.size()) {
            if (error != nullptr)
                *error = "line " + std::to_string(lineno) +
                         ": no value";
            return false;
        }
        const std::string value = line.substr(pos);
        char *end = nullptr;
        sample.value = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || (end != nullptr && *end != '\0')) {
            if (error != nullptr)
                *error = "line " + std::to_string(lineno) +
                         ": bad value '" + value + "'";
            return false;
        }
        out.push_back(std::move(sample));
    }
    return true;
}

} // namespace obs
} // namespace nosq
