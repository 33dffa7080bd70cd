/**
 * @file
 * The daemon's statistics, declared once: the ServerStatus snapshot
 * and the serve_stat_rows table that both the `status` reply
 * (statusReplyLine()) and the `metrics` scrape (metricsExposition())
 * render it through.
 *
 * The dispatcher keeps its counters in a ServerStatus, fills the
 * sampled fields into a copy for each request, and renders that one
 * snapshot, so the two verbs cannot disagree. The docs drift gates
 * (tests/test_docs.cc) check that docs/SERVING.md lists exactly the
 * status keys and docs/OBSERVABILITY.md exactly the series
 * (forEachServeMetric()).
 */

#ifndef NOSQ_SERVE_SERVE_STATS_HH
#define NOSQ_SERVE_SERVE_STATS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nosq {
namespace serve {

/**
 * One snapshot of the daemon. The status reply prints the table's
 * status keys first (their order is part of the observable surface:
 * scripts grep for `"executed":N`), then `job_attempts`
 * (per-fingerprint dispatch attempts of dispatched live executions
 * and of quarantined jobs), `quarantine` (fingerprint -> reason for
 * poison jobs) and `faults` (per-site injection counters, `{}` when
 * no fault plan is active).
 */
struct ServerStatus
{
    std::uint64_t workers = 0;
    std::uint64_t alive = 0;
    /** Alive workers with at least one in-flight job. */
    std::uint64_t busy = 0;
    std::uint64_t submits = 0;
    std::uint64_t executed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t dedup_shared = 0;
    std::uint64_t worker_deaths = 0;
    std::uint64_t requeued = 0;
    std::uint64_t failed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t overloaded = 0;
    /** Metrics requests served, the current one included. */
    std::uint64_t scrapes = 0;
    std::uint64_t store_size = 0;
    std::uint64_t store_append_failures = 0;
    std::uint64_t pending = 0;
    std::uint64_t running = 0;
    std::uint64_t max_pending = 0; ///< 0 = unbounded
    std::uint64_t uptime_ms = 0;
    bool draining = false;
    /** (fingerprint, dispatch attempts), attempts > 0 only. */
    std::vector<std::pair<std::string, std::uint64_t>> job_attempts;
    /** (fingerprint, quarantine reason). */
    std::vector<std::pair<std::string, std::string>> quarantine;
    /** Pre-rendered JSON object of fault-site counters ("{}" when
     * injection is off); see FaultInjector::statusJson(). */
    std::string faults_json = "{}";
};

/** A series: @c type is the Prometheus TYPE keyword. */
struct ServeMetricDef
{
    const char *name;
    const char *type; ///< "counter" | "gauge" | "histogram"
    const char *help;
};

/**
 * One daemon statistic: its status key, its series, or both, and
 * the value both read. Exactly one of count, flag and derived is
 * set; a derived value has no status key.
 */
struct ServeStatRow
{
    /** Key in the status reply; nullptr: scrape only. */
    const char *statusKey;
    /** Series in the scrape; a null name: status only. */
    ServeMetricDef metric;
    std::uint64_t ServerStatus::*count = nullptr;
    bool ServerStatus::*flag = nullptr;
    double (*derived)(const ServerStatus &) = nullptr;

    constexpr ServeStatRow(const char *key, ServeMetricDef series,
                           std::uint64_t ServerStatus::*value)
        : statusKey(key), metric(series), count(value)
    {}
    constexpr ServeStatRow(const char *key, ServeMetricDef series,
                           bool ServerStatus::*value)
        : statusKey(key), metric(series), flag(value)
    {}
    constexpr ServeStatRow(ServeMetricDef series,
                           double (*value)(const ServerStatus &))
        : statusKey(nullptr), metric(series), derived(value)
    {}

    /** The value as the scrape reads it (a flag is 0 or 1). */
    double
    valueOf(const ServerStatus &s) const
    {
        if (count != nullptr)
            return static_cast<double>(s.*count);
        return flag != nullptr ? (s.*flag ? 1.0 : 0.0) : derived(s);
    }
};

/**
 * Every daemon statistic, in the order of both renderings: the
 * status reply prints the rows with a status key, the scrape the
 * rows with a series.
 */
inline constexpr ServeStatRow serve_stat_rows[] = {
    {"workers", {"nosq_sweepd_workers", "gauge",
                 "Configured worker pool size."},
     &ServerStatus::workers},
    {"alive", {"nosq_sweepd_workers_alive", "gauge",
               "Workers currently alive."},
     &ServerStatus::alive},
    {nullptr, {"nosq_sweepd_submits_total", "counter",
               "Submit requests admitted (not shed or refused)."},
     &ServerStatus::submits},
    {"executed", {"nosq_sweepd_jobs_executed_total", "counter",
                  "Jobs completed by the worker pool."},
     &ServerStatus::executed},
    {"cache_hits", {"nosq_sweepd_cache_hits_total", "counter",
                    "Submitted jobs answered from the persistent "
                    "store."},
     &ServerStatus::cache_hits},
    {"dedup_shared", {"nosq_sweepd_dedup_shared_total", "counter",
                      "Submitted jobs deduplicated onto an "
                      "already-running execution."},
     &ServerStatus::dedup_shared},
    {"worker_deaths", {"nosq_sweepd_worker_deaths_total", "counter",
                       "Worker processes that exited or were killed."},
     &ServerStatus::worker_deaths},
    {"requeued", {"nosq_sweepd_jobs_requeued_total", "counter",
                  "In-flight jobs requeued after their worker died."},
     &ServerStatus::requeued},
    {"failed", {"nosq_sweepd_jobs_failed_total", "counter",
                "Jobs delivered as failures (simulation error or "
                "quarantine)."},
     &ServerStatus::failed},
    {"quarantined", {"nosq_sweepd_jobs_quarantined_total", "counter",
                     "Jobs quarantined after exhausting their dispatch "
                     "attempts."},
     &ServerStatus::quarantined},
    {"overloaded", {"nosq_sweepd_submits_shed_total", "counter",
                    "Submit requests rejected with `overloaded`."},
     &ServerStatus::overloaded},
    {nullptr, {"nosq_sweepd_scrapes_total", "counter",
               "Metrics requests served (including this one)."},
     &ServerStatus::scrapes},
    {"store_size", {"nosq_sweepd_store_size", "gauge",
                    "Results in the persistent store."},
     &ServerStatus::store_size},
    {"store_append_failures", {}, &ServerStatus::store_append_failures},
    {"pending", {"nosq_sweepd_queue_depth", "gauge",
                 "Jobs pending behind the worker pool."},
     &ServerStatus::pending},
    {"running", {"nosq_sweepd_jobs_running", "gauge",
                 "Executions dispatched to a worker and not yet "
                 "delivered."},
     &ServerStatus::running},
    {"max_pending", {}, &ServerStatus::max_pending},
    {{"nosq_sweepd_worker_utilization", "gauge",
      "Fraction of alive workers with at least one in-flight job."},
     [](const ServerStatus &s) {
         return s.alive > 0 ? double(s.busy) / double(s.alive) : 0.0;
     }},
    {{"nosq_sweepd_store_hit_ratio", "gauge",
      "cache_hits / (cache_hits + executed) over the daemon's "
      "lifetime; 0 before any job is seen."},
     [](const ServerStatus &s) {
         const std::uint64_t seen = s.cache_hits + s.executed;
         return seen > 0 ? double(s.cache_hits) / double(seen) : 0.0;
     }},
    {"draining", {"nosq_sweepd_draining", "gauge",
                  "1 while the daemon drains toward shutdown, else 0."},
     &ServerStatus::draining},
    {{"nosq_sweepd_uptime_seconds", "gauge",
      "Seconds since the dispatcher started serving."},
     [](const ServerStatus &s) { return double(s.uptime_ms) / 1000.0; }},
};

/** The per-site fault-plan series: one labelled sample per planned
 * site, present only while a plan is active. */
inline constexpr ServeMetricDef fault_hits_metric = {
    "nosq_sweepd_fault_hits_total", "counter",
    "Fault-injection checks per planned site (label: site); absent "
    "when no fault plan is active."};
inline constexpr ServeMetricDef fault_fired_metric = {
    "nosq_sweepd_fault_fired_total", "counter",
    "Fault-injection checks that injected a fault, per planned site "
    "(label: site); absent when no fault plan is active."};

/** The latency histograms, observed live and exposed after the
 * fault series. */
inline constexpr ServeMetricDef submit_latency_metric = {
    "nosq_sweepd_submit_latency_ms", "histogram",
    "Time to admit one submit request (parse to ack queued)."};
inline constexpr ServeMetricDef service_time_metric = {
    "nosq_sweepd_job_service_time_ms", "histogram",
    "Per-job time from worker dispatch to result delivery."};

/** Invoke @p fn with every series of the scrape, in scrape order. */
template <typename Fn>
void
forEachServeMetric(Fn &&fn)
{
    for (const ServeStatRow &row : serve_stat_rows)
        if (row.metric.name != nullptr)
            fn(row.metric);
    for (const ServeMetricDef &def :
         {fault_hits_metric, fault_fired_metric, submit_latency_metric,
          service_time_metric})
        fn(def);
}

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_SERVE_STATS_HH
