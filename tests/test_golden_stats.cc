/**
 * @file
 * Golden-statistics store: the bit-identity gate for simulator
 * changes.
 *
 * tests/golden/stats.jsonl is an ordinary "nosq-store-v1" result
 * store (serve/job_store.hh): a header line, then one
 * {"fp":<jobFingerprint>,"run":<runResultRecord>} line per golden
 * job, in job order. The 22 golden jobs come from the product's own
 * job builders, each at 24000 measured instructions after 8000
 * warm-up, seed 1:
 *
 *  - gcc and g721.e under all four LSU modes on both machine sizes
 *    (16 jobs, pinned since the pre-optimization simulator);
 *  - the same two benchmarks on the MSHR/prefetch/bus-occupancy
 *    timing path, SQ and NoSQ (4 jobs: the prefetching point of a
 *    256 KiB, 12-cycle, 4-MSHR memsys grid);
 *  - the 2-core spsc-ring producer/consumer System at queue depth 8,
 *    SQ and NoSQ (2 jobs).
 *
 * Each job's runResultRecord() must equal its stored record byte for
 * byte, so every counter is compared exactly and performance work
 * must leave all of them unchanged. The keys pin jobFingerprint()'s
 * serialization for profile and kernel jobs as well: a changed
 * fingerprint would strand every existing store.
 *
 * Every run also writes its actual records, in the same format and
 * order, to golden_stats.actual.jsonl in the build tree. A change
 * that alters simulated behaviour on purpose re-pins the whole store
 * with one copy,
 *
 *   cp <build>/golden_stats.actual.jsonl tests/golden/stats.jsonl
 *
 * and the diff of that copy is what the re-pin's review reads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/job_store.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace {

constexpr std::uint64_t golden_insts = 24000;
constexpr std::uint64_t golden_warmup = 8000;
constexpr std::uint64_t golden_seed = 1;

/** The 22 golden jobs, in store order. */
std::vector<SweepJob>
goldenJobs()
{
    SweepSpec spec;
    spec.benchmarks = {findProfile("gcc"), findProfile("g721.e")};
    spec.configs = crossConfigs({LsuMode::SqPerfect, LsuMode::SqStoreSets,
                                 LsuMode::Nosq, LsuMode::NosqPerfect},
                                {128, 256});
    spec.insts = golden_insts;
    spec.warmup = golden_warmup;
    spec.seed = golden_seed;
    std::vector<SweepJob> jobs = buildJobs(spec);

    spec.configs.clear();
    for (SweepConfig &config :
         memsysConfigs({256 * 1024}, {12}, {4}, /*with_prefetch=*/true))
        if (config.memsys.find("-pref") != std::string::npos)
            spec.configs.push_back(std::move(config));
    for (SweepJob &job : buildJobs(spec))
        jobs.push_back(std::move(job));

    for (SweepJob &job : buildMulticoreJobs(
             {"spsc-ring"}, multicoreConfigs({2}, {8}), golden_insts,
             golden_warmup, golden_seed))
        jobs.push_back(std::move(job));
    return jobs;
}

/** One checked-in record: its exact text and its parsed form. */
struct GoldenRecord
{
    std::string text;
    JsonValue run;
    bool claimed = false;
};

/** The value of @p v as the message prints it. */
std::string
leafText(const JsonValue *v)
{
    if (v == nullptr)
        return "(absent)";
    switch (v->kind) {
      case JsonValue::Kind::Number: {
        std::uint64_t counter;
        return jsonExactCounter(*v, counter) ? std::to_string(counter)
                                             : jsonNumber(v->number);
      }
      case JsonValue::Kind::String:
        return "\"" + v->string + "\"";
      case JsonValue::Kind::Bool:
        return v->boolean ? "true" : "false";
      case JsonValue::Kind::Null:
        return "null";
      default:
        return "(object)";
    }
}

/** Every value of a record, keyed "key" or "stats.key". */
std::map<std::string, std::string>
recordValues(const JsonValue &run)
{
    std::map<std::string, std::string> values;
    for (const auto &[key, value] : run.object)
        values[key] = leafText(&value);
    if (const JsonValue *stats = run.find("stats"))
        for (const auto &[key, value] : stats->object)
            values["stats." + key] = leafText(&value);
    return values;
}

/** One "key: stored X, actual Y" line per differing value. */
std::string
differingKeys(const JsonValue &stored, const JsonValue &actual)
{
    std::map<std::string, std::string> was = recordValues(stored);
    std::map<std::string, std::string> is = recordValues(actual);
    for (const auto &[key, value] : is)
        was.emplace(key, leafText(nullptr));
    std::string out;
    for (const auto &[key, value] : was) {
        const std::string now =
            is.count(key) ? is.at(key) : leafText(nullptr);
        if (now != value)
            out += "  " + key + ": stored " + value + ", actual " + now +
                   "\n";
    }
    return out;
}

std::string
labels(const JsonValue &run)
{
    return leafText(run.find("benchmark")) + " / " +
           leafText(run.find("config"));
}

/** The golden jobs and their results, run once per process. */
struct GoldenRun
{
    std::vector<SweepJob> jobs = goldenJobs();
    std::vector<RunResult> results;

    GoldenRun()
    {
        for (const SweepJob &job : jobs)
            results.push_back(runSweepJob(job));

        // The re-pin source, written through the store itself so
        // its bytes are exactly what a checkpoint would hold.
        std::remove(NOSQ_GOLDEN_ACTUAL);
        serve::JobStore store;
        std::string error;
        if (!store.open(NOSQ_GOLDEN_ACTUAL, error))
            ADD_FAILURE() << error;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            store.put(jobFingerprint(jobs[i]), results[i]);
        EXPECT_EQ(store.appendFailures(), 0u);
    }

    /** The result of the job labelled @p config on @p benchmark. */
    const SimResult &
    result(const std::string &benchmark,
           const std::string &config) const
    {
        for (const RunResult &r : results)
            if (r.benchmark == benchmark && r.config == config)
                return r.sim;
        ADD_FAILURE() << "no golden job " << benchmark << " / "
                      << config;
        static const SimResult none;
        return none;
    }
};

const GoldenRun &
goldenRun()
{
    static const GoldenRun run;
    return run;
}

TEST(GoldenStats, EveryJobMatchesTheGoldenStore)
{
    const GoldenRun &actual = goldenRun();
    // Read the checked-in store line by line: JobStore::open would
    // compact (rewrite) it.
    std::ifstream in(NOSQ_GOLDEN_STORE);
    ASSERT_TRUE(in) << "cannot read " << NOSQ_GOLDEN_STORE;
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    ASSERT_EQ(line, "{\"schema\":\"nosq-store-v1\"}");
    std::map<std::string, GoldenRecord> golden;
    for (std::size_t line_no = 2; std::getline(in, line); ++line_no) {
        JsonValue v;
        std::string error;
        ASSERT_TRUE(parseJson(line, v, &error))
            << "line " << line_no << ": " << error;
        const JsonValue *fp = v.find("fp");
        const JsonValue *run = v.find("run");
        ASSERT_TRUE(fp != nullptr &&
                    fp->kind == JsonValue::Kind::String &&
                    run != nullptr)
            << "line " << line_no << " is not a store record";
        ASSERT_TRUE(
            golden.emplace(fp->string, GoldenRecord{line, *run}).second)
            << "duplicate fingerprint " << fp->string;
    }

    std::ostringstream failures;
    for (std::size_t i = 0; i < actual.jobs.size(); ++i) {
        const std::string fp = jobFingerprint(actual.jobs[i]);
        const std::string record = runResultRecord(actual.results[i]);
        JsonValue run;
        ASSERT_TRUE(parseJson(record, run));
        const auto it = golden.find(fp);
        if (it == golden.end()) {
            failures << labels(run) << ": no golden record for "
                     << "fingerprint " << fp;
            for (auto &[other_fp, other] : golden) {
                if (labels(other.run) != labels(run))
                    continue;
                other.claimed = true;
                failures << " (fingerprint changed: stored under "
                         << other_fp << ")";
            }
            failures << "\n";
            continue;
        }
        it->second.claimed = true;
        std::string expected = "{\"fp\":";
        jsonString(expected, fp);
        expected += ",\"run\":" + record + "}";
        if (it->second.text == expected)
            continue;
        const std::string keys = differingKeys(it->second.run, run);
        failures << labels(run) << " (" << fp << ") differs:\n"
                 << (keys.empty() ? "  same values, other bytes\n"
                                  : keys);
    }
    for (const auto &[fp, record] : golden)
        if (!record.claimed)
            failures << labels(record.run) << ": stored record " << fp
                     << " belongs to no golden job\n";

    EXPECT_TRUE(failures.str().empty())
        << failures.str()
        << "If simulated behaviour changed on purpose, re-pin with\n"
        << "  cp " << NOSQ_GOLDEN_ACTUAL << " " << NOSQ_GOLDEN_STORE
        << "\nand review the diff of that copy.";
}

/**
 * The memsys golden path must differ between the LSU modes: the
 * whole point of the hierarchy sweep is that cache-geometry effects
 * on the NoSQ-vs-baseline gap are visible.
 */
TEST(GoldenStats, MemsysPathSeparatesLsuModes)
{
    const SimResult &sq =
        goldenRun().result("gcc", "sq/l2-256K-lat12-mshr4-pref");
    const SimResult &nosq =
        goldenRun().result("gcc", "nosq/l2-256K-lat12-mshr4-pref");
    EXPECT_NE(sq.cycles, nosq.cycles);
    EXPECT_NE(sq.dcacheReadsCore, nosq.dcacheReadsCore);
}

/** NoSQ must beat the associative SQ on the queue kernel: that
 * cross-core forwarding gap is the multicore headline. */
TEST(GoldenStats, MulticoreGoldenSeparatesLsuModes)
{
    EXPECT_LT(goldenRun().result("spsc-ring", "nosq/c2-d8").cycles,
              goldenRun().result("spsc-ring", "sq/c2-d8").cycles)
        << "NoSQ cycles should beat SQ on spsc-ring";
}

} // anonymous namespace
} // namespace nosq
