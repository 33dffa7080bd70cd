/**
 * @file
 * Metrics registry bookkeeping and Prometheus text rendering (see
 * metrics.hh).
 */

#include "obs/metrics.hh"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace nosq {
namespace obs {

namespace {

/**
 * Shortest decimal literal that strtod()s back to exactly @p v.
 * Exposition values must round-trip (the round-trip unit test and
 * any scraper doing rate() math depend on it) without rendering
 * every gauge as a 17-digit monster.
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
    char buf[64];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
fmtValue(std::uint64_t v)
{
    return std::to_string(v);
}

/** Render a label block: {a="x",b="y"} or "" when empty. @p extra
 * appends one more pair (the histogram `le` bound). */
std::string
labelBlock(const MetricLabels &labels, const std::string &extra = "")
{
    if (labels.empty() && extra.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += key + "=\"";
        for (char c : value) {
            if (c == '\\' || c == '"')
                out += '\\';
            if (c == '\n') {
                out += "\\n";
                continue;
            }
            out += c;
        }
        out += "\"";
    }
    if (!extra.empty()) {
        if (!first)
            out += ",";
        out += extra;
    }
    out += "}";
    return out;
}

const char *
kindName(bool is_counter, bool is_histogram)
{
    if (is_histogram)
        return "histogram";
    return is_counter ? "counter" : "gauge";
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

// --- MetricsRegistry --------------------------------------------------------

MetricsRegistry::Series &
MetricsRegistry::find(const std::string &name,
                      const MetricLabels &labels, Kind kind,
                      const std::string &help)
{
    for (Series &s : series_) {
        if (s.name == name && s.labels == labels) {
            assert(s.kind == kind &&
                   "metric re-registered with a different kind");
            return s;
        }
    }
    series_.emplace_back();
    Series &s = series_.back();
    s.name = name;
    s.help = help;
    s.labels = labels;
    s.kind = kind;
    return s;
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help,
                         const MetricLabels &labels)
{
    return find(name, labels, Kind::Counter, help).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name,
                       const std::string &help,
                       const MetricLabels &labels)
{
    return find(name, labels, Kind::Gauge, help).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           const std::vector<double> &bounds,
                           const MetricLabels &labels)
{
    Series &s = find(name, labels, Kind::Histogram, help);
    if (s.histogram.empty())
        s.histogram.emplace_back(bounds);
    return s.histogram.front();
}

std::string
MetricsRegistry::expose() const
{
    std::string out;
    // HELP/TYPE headers are emitted once per metric name, on its
    // first series -- Prometheus rejects duplicate headers when a
    // name fans out over labels (the fault-site counters do).
    std::vector<std::string> headered;
    for (const Series &s : series_) {
        bool seen = false;
        for (const std::string &name : headered)
            seen = seen || name == s.name;
        if (!seen) {
            headered.push_back(s.name);
            out += "# HELP " + s.name + " " + s.help + "\n";
            out += "# TYPE " + s.name + " " +
                   kindName(s.kind == Kind::Counter,
                            s.kind == Kind::Histogram) +
                   "\n";
        }
        switch (s.kind) {
          case Kind::Counter:
            out += s.name + labelBlock(s.labels) + " " +
                   fmtValue(s.counter.value()) + "\n";
            break;
          case Kind::Gauge:
            out += s.name + labelBlock(s.labels) + " " +
                   fmtValue(s.gauge.value()) + "\n";
            break;
          case Kind::Histogram: {
            const Histogram &h = s.histogram.front();
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
                cumulative += h.bucketCount(i);
                const std::string le =
                    i < h.bounds().size()
                        ? fmtValue(h.bounds()[i])
                        : std::string("+Inf");
                out += s.name + "_bucket" +
                       labelBlock(s.labels, "le=\"" + le + "\"") +
                       " " + fmtValue(cumulative) + "\n";
            }
            out += s.name + "_sum" + labelBlock(s.labels) + " " +
                   fmtValue(h.sum()) + "\n";
            out += s.name + "_count" + labelBlock(s.labels) + " " +
                   fmtValue(h.count()) + "\n";
            break;
          }
        }
    }
    return out;
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
