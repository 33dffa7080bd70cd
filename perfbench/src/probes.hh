/**
 * @file
 * Layer probes for the traced run: each drives one layer's public
 * functions alone, over the workload's own programs and results, so
 * host time can be split where OooCore::run() hides the split.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

/** Host time over a count of work items. */
struct Rate
{
    double ns = 0.0;
    std::uint64_t items = 0;

    double
    perItem() const
    {
        return items ? ns / static_cast<double>(items) : 0.0;
    }
    void add(const Rate &o) { ns += o.ns; items += o.items; }
};

/** TraceStream driven alone over every single-core program for the
 * workload's per-job instruction count: ns per instruction. */
Rate traceProbe(const Workload &w);

/**
 * An approximation of the memory system's share: each single-core
 * program's fetch/load/store address stream replayed into a fresh
 * MemHierarchy with the job's parameters, one fetch per fetch group,
 * the clock advancing at the job's simulated CPI. ns per access.
 */
struct MemsysProbe
{
    Rate access;             ///< ns per replayed access
    std::uint64_t insts = 0; ///< instructions whose stream replayed
};
MemsysProbe memsysProbe(const Workload &w,
                        const std::vector<nosq::RunResult> &single);

/** The System layer measured against lone cores. */
struct SystemProbe
{
    Rate system;          ///< System::run, ns per committed inst
    Rate lone;            ///< OooCore::run per program, same insts
    nosq::SimResult sim;  ///< summed System counters
};

/**
 * Lockstep cost: the workload's multicore jobs (their System::run
 * time from the traced single-run pass, @p system_ms), or for a
 * workload without any, the spsc-ring kernel on two cores; each
 * against every core's program run on a lone OooCore.
 */
SystemProbe systemProbe(const Workload &w,
                        const std::vector<nosq::RunResult> &single,
                        double system_ms);

/** SweepJournal::record per job into a fresh journal: us per call. */
Rate journalProbe(const Workload &w,
                  const std::vector<nosq::RunResult> &results,
                  const std::string &path);

/** JobStore::put and then JobStore::get per job on a fresh store. */
struct StoreProbe
{
    Rate put, get;
};
StoreProbe storeProbe(const Workload &w,
                      const std::vector<nosq::RunResult> &results,
                      const std::string &path, Ledger &ledger);

/** Job and result round trip through the wire and record codecs:
 * ns per job. Checks the round trip is exact. */
Rate wireProbe(const Workload &w,
               const std::vector<nosq::RunResult> &results,
               Ledger &ledger);

/** A daemon metrics scrape, flattened: series (with its label block,
 * if any) -> value. */
std::map<std::string, double> scrapeMetrics(const std::string &socket,
                                            Ledger &ledger);

/** Quantile @p q of a cumulative Prometheus histogram @p name in a
 * scrape, interpolated linearly inside its bucket. */
double histogramQuantile(const std::map<std::string, double> &scrape,
                         const std::string &name, double q);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
