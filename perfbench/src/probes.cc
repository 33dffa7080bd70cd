#include "probes.hh"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <unistd.h>
#include <utility>

#include "memsys/hierarchy.hh"
#include "obs/metrics.hh"
#include "ooo/core.hh"
#include "serve/client.hh"
#include "serve/job_store.hh"
#include "serve/protocol.hh"
#include "sim/journal.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "workload/functional.hh"
#include "workload/multicore.hh"
#include "workload/program_cache.hh"

namespace perfbench {

using nosq::RunResult;
using nosq::SweepJob;

namespace {

/** Host ns spent in @p fn. */
template <typename Fn>
double
timedNs(const char *span, Fn &&fn)
{
    Scope s(span);
    const std::uint64_t t0 = nowNs();
    fn();
    return static_cast<double>(nowNs() - t0);
}

/** Indices of the first single-core job of every distinct program
 * and hierarchy (configs that differ only in LSU mode share both). */
std::vector<std::size_t>
distinctSingleCore(const Workload &w)
{
    std::set<std::pair<const nosq::BenchmarkProfile *, std::string>>
        seen;
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const SweepJob &job = w.jobs[i];
        if (job.cores <= 1 && job.profile != nullptr &&
            seen.emplace(job.profile, job.memsysLabel).second)
            out.push_back(i);
    }
    return out;
}

std::shared_ptr<const nosq::Program>
programOf(const SweepJob &job)
{
    return nosq::ProgramCache::global().get(*job.profile, job.seed);
}

} // anonymous namespace

Rate
traceProbe(const Workload &w)
{
    Rate out;
    std::set<const nosq::BenchmarkProfile *> seen;
    for (const std::size_t i : distinctSingleCore(w)) {
        const SweepJob &job = w.jobs[i];
        if (!seen.insert(job.profile).second)
            continue;
        nosq::TraceStream stream(programOf(job));
        const std::uint64_t n = job.insts + job.warmup;
        std::uint64_t produced = 0;
        out.ns += timedNs("workload.trace", [&] {
            while (produced < n && stream.hasNext()) {
                const nosq::DynInst &di = stream.next();
                stream.retireUpTo(di.seq);
                ++produced;
            }
        });
        out.items += produced;
    }
    return out;
}

MemsysProbe
memsysProbe(const Workload &w, const std::vector<RunResult> &single)
{
    enum Kind : std::uint8_t { Fetch, Read, Write };
    struct Access
    {
        nosq::Addr addr;
        std::uint64_t inst;
        Kind kind;
    };

    MemsysProbe out;
    std::vector<Access> stream;
    for (const std::size_t i : distinctSingleCore(w)) {
        const SweepJob &job = w.jobs[i];
        const nosq::SimResult &sim = single[i].sim;
        const double cpi = sim.insts
            ? static_cast<double>(sim.cycles) /
                static_cast<double>(sim.insts)
            : 1.0;

        // Record the address stream (untimed) ...
        stream.clear();
        nosq::TraceStream trace(programOf(job));
        const std::uint64_t n = job.insts + job.warmup;
        const unsigned width = job.params.fetchWidth;
        bool group_start = true;
        for (std::uint64_t k = 0; k < n && trace.hasNext(); ++k) {
            const nosq::DynInst &di = trace.next();
            if (group_start)
                stream.push_back({di.pc, k, Fetch});
            if (di.isLoad())
                stream.push_back({di.addr, k, Read});
            else if (di.isStore())
                stream.push_back({di.addr, k, Write});
            group_start = (k + 1) % width == 0 ||
                (di.isBranch() && di.taken);
            trace.retireUpTo(di.seq);
        }

        // ... and replay it into a fresh hierarchy.
        nosq::MemHierarchy mem(job.params.memsys);
        nosq::Cycle sink = 0;
        out.access.ns += timedNs("memsys.replay", [&] {
            for (const Access &a : stream) {
                const auto now = static_cast<nosq::Cycle>(
                    static_cast<double>(a.inst) * cpi);
                switch (a.kind) {
                case Fetch: sink += mem.instFetch(a.addr, now); break;
                case Read: sink += mem.dataRead(a.addr, now); break;
                case Write: sink += mem.dataWrite(a.addr, now); break;
                }
            }
        });
        out.access.items += stream.size();
        out.insts += n;
        if (sink == 0)
            std::abort(); // latencies are never all zero
    }
    return out;
}

SystemProbe
systemProbe(const Workload &w, const std::vector<RunResult> &single,
            double system_ms)
{
    SystemProbe out;
    auto addCoherence = [&](const nosq::SimResult &s) {
        out.sim.insts += s.insts;
        out.sim.cohInvalidations += s.cohInvalidations;
        out.sim.cohC2cTransfers += s.cohC2cTransfers;
        out.sim.cohUpgradeMisses += s.cohUpgradeMisses;
    };

    std::vector<SweepJob> kernels;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        if (w.jobs[i].cores > 1) {
            kernels.push_back(w.jobs[i]);
            addCoherence(single[i].sim);
        }
    }
    // No multicore job: the spsc-ring kernel on two cores under the
    // first job's configuration, so lockstep and coherence are priced
    // on every workload.
    const bool probe = kernels.empty();
    if (probe) {
        SweepJob job = w.jobs.front();
        job.profile = nullptr;
        job.benchmark = "spsc-ring";
        job.cores = 2;
        job.queueDepth = 0;
        kernels.push_back(job);
    }

    for (const SweepJob &job : kernels) {
        const auto programs = nosq::buildMulticorePrograms(
            job.benchmark, job.cores,
            job.queueDepth ? job.queueDepth : nosq::default_queue_depth,
            job.seed);
        out.system.items += expectedCommitted(job);
        if (probe) {
            nosq::System system(job.params, programs);
            nosq::SimResult sim;
            out.system.ns += timedNs("system.probe_run", [&] {
                sim = system.run(job.insts, job.warmup);
            });
            addCoherence(sim);
        }
        for (const auto &p : programs) {
            nosq::OooCore core(job.params, p);
            out.lone.ns += timedNs("system.lone_core", [&] {
                core.run(job.insts, job.warmup);
            });
            out.lone.items += core.committedInsts();
        }
    }
    if (!probe)
        out.system.ns = system_ms * 1e6;
    return out;
}

Rate
journalProbe(const Workload &w, const std::vector<RunResult> &results,
             const std::string &path)
{
    Rate out;
    ::unlink(path.c_str());
    nosq::SweepJournal journal = nosq::SweepJournal::create(path);
    journal.bind(w.jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        out.ns += timedNs("journal.record",
                          [&] { journal.record(i, results[i]); });
        ++out.items;
    }
    return out;
}

StoreProbe
storeProbe(const Workload &w, const std::vector<RunResult> &results,
           const std::string &path, Ledger &ledger)
{
    StoreProbe out;
    ::unlink(path.c_str());
    nosq::serve::JobStore store;
    std::string error;
    if (!ledger.check(store.open(path, error),
                      "store probe open: " + error))
        return out;
    std::vector<std::string> fps;
    for (const SweepJob &job : w.jobs)
        fps.push_back(nosq::jobFingerprint(job));
    for (std::size_t i = 0; i < results.size(); ++i) {
        out.put.ns += timedNs("serve.store_put",
                              [&] { store.put(fps[i], results[i]); });
        ++out.put.items;
    }
    std::size_t found = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        out.get.ns += timedNs("serve.store_get", [&] {
            if (store.has(fps[i]) &&
                store.get(fps[i]).sim.insts == results[i].sim.insts)
                ++found;
        });
        ++out.get.items;
    }
    ledger.check(found == results.size(), "store probe get");
    return out;
}

Rate
wireProbe(const Workload &w, const std::vector<RunResult> &results,
          Ledger &ledger)
{
    Rate out;
    std::size_t exact = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepJob &job = w.jobs[i];
        const std::string line = nosq::runResultJsonLine(results[i]);
        SweepJob back;
        RunResult restored;
        bool parsed = false;
        out.ns += timedNs("serve.wire", [&] {
            std::string error;
            const std::string wire = nosq::serve::jobToWire(job, &error);
            nosq::JsonValue v, rv;
            parsed = !wire.empty() && nosq::parseJson(wire, v) &&
                nosq::serve::jobFromWire(v, back, error) &&
                nosq::parseJson(nosq::runResultJsonLine(results[i]), rv) &&
                nosq::runResultFromJson(rv, restored);
        });
        exact += parsed &&
            nosq::jobFingerprint(back) == nosq::jobFingerprint(job) &&
            nosq::runResultJsonLine(restored) == line;
        ++out.items;
    }
    ledger.check(exact == results.size(), "wire/record round trip");
    return out;
}

std::map<std::string, double>
scrapeMetrics(const std::string &socket, Ledger &ledger)
{
    Scope s("serve.scrape");
    std::map<std::string, double> out;
    std::string text, error;
    std::vector<nosq::obs::ExpositionSample> samples;
    if (!ledger.check(
            nosq::serve::fetchServerMetrics(socket, text, error) &&
                nosq::obs::parseExposition(text, samples, &error),
            "metrics scrape: " + error))
        return out;
    for (const auto &sample : samples) {
        const std::string key = sample.labels.empty()
            ? sample.name
            : sample.name + "{" + sample.labels + "}";
        out[key] = sample.value;
    }
    return out;
}

double
histogramQuantile(const std::map<std::string, double> &scrape,
                  const std::string &name, double q)
{
    const std::string prefix = name + "_bucket{le=\"";
    std::vector<std::pair<double, double>> buckets; // (le, cumulative)
    for (auto it = scrape.lower_bound(prefix);
         it != scrape.end() && it->first.compare(0, prefix.size(),
                                                 prefix) == 0;
         ++it) {
        const std::string le = it->first.substr(
            prefix.size(), it->first.size() - prefix.size() - 2);
        buckets.emplace_back(le == "+Inf" ? -1.0 : std::atof(le.c_str()),
                             it->second);
    }
    std::sort(buckets.begin(), buckets.end(),
              [](const auto &a, const auto &b) {
                  if ((a.first < 0) != (b.first < 0))
                      return b.first < 0; // +Inf last
                  return a.first < b.first;
              });
    if (buckets.empty() || buckets.back().second <= 0)
        return 0.0;
    const double rank = q * buckets.back().second;
    double lower = 0.0, below = 0.0;
    for (const auto &[le, cum] : buckets) {
        if (le < 0)
            return lower; // in the +Inf bucket: the last finite bound
        if (cum >= rank) {
            const double in_bucket = cum - below;
            return in_bucket > 0
                ? lower + (le - lower) * (rank - below) / in_bucket
                : le;
        }
        lower = le;
        below = cum;
    }
    return lower;
}

} // namespace perfbench
