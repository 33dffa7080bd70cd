/**
 * @file
 * Prometheus text exposition (format 0.0.4): fixed-bucket latency
 * histograms, the writers that render metric families, and the
 * parser that reads a rendered text back.
 *
 *   # HELP nosq_pending_jobs Jobs queued behind the worker pool.
 *   # TYPE nosq_pending_jobs gauge
 *   nosq_pending_jobs 3
 *   # HELP nosq_job_service_time_ms Per-job service time.
 *   # TYPE nosq_job_service_time_ms histogram
 *   nosq_job_service_time_ms_bucket{le="50"} 2
 *   nosq_job_service_time_ms_bucket{le="+Inf"} 8
 *   nosq_job_service_time_ms_sum 1934
 *   nosq_job_service_time_ms_count 8
 *
 * There is no registry: a scrape is rendered straight from the
 * values its owner already holds (the serving daemon's is
 * metricsExposition(), serve/protocol.hh). The format wants one
 * HELP/TYPE header per family with all of the family's samples
 * right after it; the caller writes exposeHeader() once and then
 * every sample of that family.
 *
 * parseExposition() is the inverse for tests and tooling: it reads
 * the rendered text back into (series, value) samples so an
 * exposition round-trip can be asserted exactly.
 */

#ifndef NOSQ_OBS_METRICS_HH
#define NOSQ_OBS_METRICS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nosq {
namespace obs {

/**
 * Fixed-bucket histogram. Buckets are the upper bounds handed to the
 * constructor (strictly increasing); the implicit +Inf bucket always
 * exists. observe(v) lands v in the first bucket with v <= bound
 * (Prometheus `le` semantics: bounds are inclusive).
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    /** Non-cumulative count of observations in bucket @p i, where i
     * indexes bounds() and bounds().size() is the +Inf bucket. */
    std::uint64_t bucketCount(std::size_t i) const;

    const std::vector<double> &
    bounds() const
    {
        return bounds_;
    }

    std::uint64_t
    count() const
    {
        return count_;
    }

    double
    sum() const
    {
        return sum_;
    }

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_; ///< bounds_.size() + 1
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** Default service-time bucket bounds (milliseconds): roughly
 * logarithmic from "instant" to "minutes", fixed so scrapes from
 * different daemons are always comparable. */
const std::vector<double> &defaultLatencyBucketsMs();

/** Append the `# HELP` and `# TYPE` lines that open family @p name;
 * @p type is "counter", "gauge" or "histogram". */
void exposeHeader(std::string &out, std::string_view name,
                  std::string_view type, std::string_view help);

/**
 * Append one sample line, `name{labels} value`. @p labels is the
 * rendered label list without braces (`site="sock.read"`), empty
 * for none. A value renders as the shortest decimal that reads back
 * exactly (integers without a fraction, NaN and +Inf/-Inf by name).
 */
void exposeSample(std::string &out, std::string_view name,
                  std::string_view labels, double value);
void exposeSample(std::string &out, std::string_view name,
                  std::string_view labels, std::uint64_t value);

/** Append @p h's samples under family @p name: the cumulative
 * `_bucket` lines, `_sum` and `_count`. */
void exposeHistogram(std::string &out, std::string_view name,
                     const Histogram &h);

/** One parsed sample line of an exposition. */
struct ExpositionSample
{
    /** Series name including any rendered suffix (_bucket, _sum,
     * _count). */
    std::string name;
    /** The raw label block between braces ("" when unlabelled),
     * e.g. `site="sock.read"` or `le="+Inf"`. */
    std::string labels;
    double value = 0.0;
};

/**
 * Parse Prometheus text @p text back into samples (comment and HELP/
 * TYPE lines are skipped). Strict enough for round-trip tests: a
 * malformed sample line fails the whole parse.
 * @return false with @p error set on malformed input
 */
bool parseExposition(const std::string &text,
                     std::vector<ExpositionSample> &out,
                     std::string *error = nullptr);

} // namespace obs
} // namespace nosq

#endif // NOSQ_OBS_METRICS_HH
