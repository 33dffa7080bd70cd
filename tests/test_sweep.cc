/**
 * @file
 * Tests for the parallel sweep engine and the JSON reporter:
 * parallel/serial bit-identity, result ordering, the declarative
 * cross-product builders, per-job failure isolation, JSON
 * emission/round-trip, the engine-computed reductions, and the
 * strict nosq-sweep-v2 validator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace nosq {
namespace {

constexpr std::uint64_t test_insts = 20000;

/** A small but diverse job list: 3 benchmarks x 3 configurations. */
std::vector<SweepJob>
smallJobList()
{
    SweepSpec spec;
    for (const char *name : {"gcc", "g721.e", "mcf"})
        spec.benchmarks.push_back(findProfile(name));
    spec.configs = paperFigureConfigs(false);
    spec.configs.resize(3); // sq-perfect, sq-storesets, nosq-nodelay
    spec.insts = test_insts;
    return buildJobs(spec);
}

/** Field-by-field equality (SimResult has no operator==). */
void
expectSameStats(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.commLoads, b.commLoads);
    EXPECT_EQ(a.partialCommLoads, b.partialCommLoads);
    EXPECT_EQ(a.bypassedLoads, b.bypassedLoads);
    EXPECT_EQ(a.shiftUops, b.shiftUops);
    EXPECT_EQ(a.delayedLoads, b.delayedLoads);
    EXPECT_EQ(a.bypassMispredicts, b.bypassMispredicts);
    EXPECT_EQ(a.reexecLoads, b.reexecLoads);
    EXPECT_EQ(a.loadFlushes, b.loadFlushes);
    EXPECT_EQ(a.dcacheReadsCore, b.dcacheReadsCore);
    EXPECT_EQ(a.dcacheReadsBackend, b.dcacheReadsBackend);
    EXPECT_EQ(a.dcacheWrites, b.dcacheWrites);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.sqForwards, b.sqForwards);
    EXPECT_EQ(a.sqStalls, b.sqStalls);
    EXPECT_EQ(a.ssnWrapDrains, b.ssnWrapDrains);
}

TEST(Sweep, ParallelBitIdenticalToSerial)
{
    const std::vector<SweepJob> jobs = smallJobList();
    const std::vector<RunResult> serial = runSweep(jobs, 1);
    const std::vector<RunResult> parallel = runSweep(jobs, 4);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
        EXPECT_EQ(serial[i].config, parallel[i].config);
        expectSameStats(serial[i].sim, parallel[i].sim);
    }
}

TEST(Sweep, ResultOrderMatchesJobOrder)
{
    const std::vector<SweepJob> jobs = smallJobList();
    const std::vector<RunResult> results = runSweep(jobs, 4);

    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].benchmark, jobs[i].profile->name);
        EXPECT_EQ(results[i].suite, jobs[i].profile->suite);
        EXPECT_EQ(results[i].config, jobs[i].config);
        // Every slot was filled by a real run.
        EXPECT_EQ(results[i].sim.insts, test_insts);
        EXPECT_GT(results[i].sim.cycles, 0u);
    }
}

TEST(Sweep, BuildJobsCrossProduct)
{
    SweepSpec spec;
    for (const char *name : {"gzip", "mcf"})
        spec.benchmarks.push_back(findProfile(name));
    spec.configs = crossConfigs(
        {LsuMode::Nosq, LsuMode::SqStoreSets}, {128, 256});
    spec.insts = 1000;
    spec.warmup = 100;
    spec.seed = 7;

    const std::vector<SweepJob> jobs = buildJobs(spec);
    ASSERT_EQ(jobs.size(), 8u); // 2 benchmarks x (2 modes x 2 sizes)

    // Benchmark-major: all of gzip's configs precede mcf's.
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_STREQ(jobs[c].profile->name, "gzip");
        EXPECT_STREQ(jobs[4 + c].profile->name, "mcf");
        EXPECT_EQ(jobs[c].config, jobs[4 + c].config);
    }
    // Window size flows into the materialized params.
    EXPECT_EQ(jobs[0].config, "nosq/w128");
    EXPECT_EQ(jobs[1].config, "nosq/w256");
    EXPECT_GT(jobs[1].params.robSize, jobs[0].params.robSize);
    for (const SweepJob &job : jobs) {
        EXPECT_EQ(job.seed, 7u);
        EXPECT_EQ(job.insts, 1000u);
        EXPECT_EQ(job.warmup, 100u);
    }
}

TEST(Sweep, ConfigTweakHookApplies)
{
    SweepConfig config;
    config.mode = LsuMode::Nosq;
    config.tweak = [](UarchParams &p) { p.bypass.historyBits = 3; };
    EXPECT_EQ(config.materialize().bypass.historyBits, 3u);
}

TEST(Sweep, ProfileSetBuilders)
{
    const auto all = allProfilePtrs();
    EXPECT_EQ(all.size(), allProfiles().size());
    std::size_t by_suite = 0;
    for (const Suite s : {Suite::Media, Suite::Int, Suite::Fp})
        by_suite += profilesOfSuite(s).size();
    EXPECT_EQ(by_suite, all.size());
}

TEST(JobQueue, DrainsInFifoOrderAndSignalsClose)
{
    JobQueue queue;
    for (std::size_t i = 0; i < 5; ++i)
        queue.push(i);
    queue.close();
    std::size_t index = 0, expected = 0;
    while (queue.pop(index))
        EXPECT_EQ(index, expected++);
    EXPECT_EQ(expected, 5u);
    EXPECT_FALSE(queue.pop(index)); // stays closed
}

TEST(JobQueue, BlockedConsumerWakesOnPush)
{
    JobQueue queue;
    std::atomic<bool> got{false};
    std::thread consumer([&] {
        std::size_t index;
        while (queue.pop(index))
            got = true;
    });
    queue.push(42);
    queue.close();
    consumer.join();
    EXPECT_TRUE(got);
}

// --- failure isolation and custom runners ----------------------------------

/** Three custom-runner jobs; the middle one throws. */
std::vector<SweepJob>
oneThrowingJobList()
{
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < 3; ++i) {
        SweepJob job;
        job.benchmark = "job" + std::to_string(i);
        job.config = "cfg";
        job.runner = [i](const SweepJob &) -> SimResult {
            if (i == 1)
                throw std::runtime_error("boom");
            SimResult sim;
            sim.cycles = 100 + i;
            sim.insts = 10;
            return sim;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

void
expectIsolatedFailure(const std::vector<SweepJob> &jobs,
                      unsigned num_workers)
{
    try {
        runSweep(jobs, num_workers);
        FAIL() << "expected SweepError";
    } catch (const SweepError &e) {
        // The summary names the failing job and its reason.
        ASSERT_EQ(e.failures().size(), 1u);
        EXPECT_EQ(e.failures()[0].index, 1u);
        EXPECT_NE(e.failures()[0].message.find("boom"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("job 1"),
                  std::string::npos);
        // The other jobs still ran to completion.
        ASSERT_EQ(e.results().size(), 3u);
        EXPECT_TRUE(e.results()[0].valid);
        EXPECT_EQ(e.results()[0].sim.cycles, 100u);
        EXPECT_FALSE(e.results()[1].valid);
        EXPECT_EQ(e.results()[1].benchmark, "job1");
        EXPECT_TRUE(e.results()[2].valid);
        EXPECT_EQ(e.results()[2].sim.cycles, 102u);
    }
}

TEST(Sweep, ThrowingJobIsIsolatedInParallel)
{
    expectIsolatedFailure(oneThrowingJobList(), 3);
}

TEST(Sweep, ThrowingJobIsIsolatedInSerial)
{
    expectIsolatedFailure(oneThrowingJobList(), 1);
}

TEST(Sweep, CustomRunnerCarriesLabelAndStats)
{
    SweepJob job;
    job.benchmark = "trace-study";
    job.suite = Suite::Fp;
    job.config = "variant-a";
    job.insts = 1234;
    job.runner = [](const SweepJob &j) {
        SimResult sim;
        sim.loads = j.insts;
        sim.bypassMispredicts = 7;
        return sim;
    };
    const std::vector<RunResult> results = runSweep({job}, 1);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].valid);
    EXPECT_EQ(results[0].benchmark, "trace-study");
    EXPECT_EQ(results[0].suite, Suite::Fp);
    EXPECT_EQ(results[0].config, "variant-a");
    EXPECT_EQ(results[0].sim.loads, 1234u);
    EXPECT_EQ(results[0].sim.bypassMispredicts, 7u);
}

TEST(Sweep, PredictorGeometryConfigs)
{
    const auto caps = predictorCapacityConfigs(
        {{"512", 512}, {"1", 1}, {"Inf", 0}});
    ASSERT_EQ(caps.size(), 3u);
    EXPECT_EQ(caps[0].name, "cap-512");
    EXPECT_EQ(caps[0].materialize().bypass.entriesPerTable, 256u);
    EXPECT_FALSE(caps[0].materialize().bypass.unbounded);
    // A tiny total clamps to one predictor set, never to the
    // unbounded sentinel.
    const UarchParams tiny = caps[1].materialize();
    EXPECT_FALSE(tiny.bypass.unbounded);
    EXPECT_EQ(tiny.bypass.entriesPerTable, tiny.bypass.assoc);
    EXPECT_EQ(caps[2].name, "cap-Inf");
    EXPECT_TRUE(caps[2].materialize().bypass.unbounded);

    const auto hist = predictorHistoryConfigs({4, 12}, true);
    ASSERT_EQ(hist.size(), 4u);
    EXPECT_EQ(hist[0].name, "hist-4b");
    EXPECT_EQ(hist[0].materialize().bypass.historyBits, 4u);
    EXPECT_FALSE(hist[0].materialize().bypass.unbounded);
    EXPECT_EQ(hist[1].name, "hist-4b-inf");
    EXPECT_TRUE(hist[1].materialize().bypass.unbounded);
    EXPECT_EQ(hist[3].name, "hist-12b-inf");
    EXPECT_EQ(hist[3].materialize().bypass.historyBits, 12u);

    const auto bounded_only = predictorHistoryConfigs({6, 8}, false);
    ASSERT_EQ(bounded_only.size(), 2u);
    EXPECT_EQ(bounded_only[1].name, "hist-8b");
}

TEST(Sweep, MemsysConfigsCrossProduct)
{
    // 2 sizes x 1 latency x 2 MSHR counts x {off, on} prefetch
    // = 8 hierarchy points, each under sq + nosq.
    const auto configs = memsysConfigs(
        {256 * 1024, 1024 * 1024}, {20}, {2, 8},
        /*with_prefetch=*/true);
    ASSERT_EQ(configs.size(), 16u);

    EXPECT_EQ(configs[0].name, "sq/l2-256K-lat20-mshr2");
    EXPECT_EQ(configs[0].mode, LsuMode::SqStoreSets);
    EXPECT_EQ(configs[0].memsys, "l2-256K-lat20-mshr2");
    EXPECT_EQ(configs[1].name, "nosq/l2-256K-lat20-mshr2");
    EXPECT_EQ(configs[1].mode, LsuMode::Nosq);

    const UarchParams p = configs[1].materialize();
    EXPECT_EQ(p.memsys.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(p.memsys.l2.hitLatency, 20u);
    EXPECT_EQ(p.memsys.mshrs, 2u);
    EXPECT_TRUE(p.memsys.busContention);
    EXPECT_EQ(p.memsys.prefetchDegree, 0u);

    // The prefetch twin follows its plain point.
    EXPECT_EQ(configs[3].name, "nosq/l2-256K-lat20-mshr2-pref");
    EXPECT_EQ(configs[3].materialize().memsys.prefetchDegree, 2u);

    // The default grid spans the advertised 16 points x 2 modes.
    const auto full = memsysConfigs();
    EXPECT_EQ(full.size(), 32u);

    // The label reaches the job (and thence the report row).
    SweepSpec spec;
    spec.benchmarks = {findProfile("gcc")};
    spec.configs = {configs[0], configs[1]};
    spec.insts = 1000;
    const auto jobs = buildJobs(spec);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].memsysLabel, "l2-256K-lat20-mshr2");
    EXPECT_EQ(jobs[1].memsysLabel, "l2-256K-lat20-mshr2");
}

TEST(Report, MemsysLabelEmittedOnlyWhenSet)
{
    RunResult r;
    r.benchmark = "gcc";
    r.suite = Suite::Int;
    r.config = "nosq/l2-1M-lat10-mshr8";
    r.sim.cycles = 10;
    r.sim.insts = 20;

    // No label: the field is omitted entirely.
    EXPECT_EQ(toJson(r).find("memsys"), std::string::npos);

    r.memsys = "l2-1M-lat10-mshr8";
    const std::string with = toJson(r);
    EXPECT_NE(with.find("\"memsys\": \"l2-1M-lat10-mshr8\""),
              std::string::npos);

    // A labeled report passes the strict validator...
    const std::string report = sweepReportJson({r}, 20, r.config);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(report, doc, &error)) << error;
    EXPECT_TRUE(validateSweepReport(doc, &error)) << error;

    // ...and a non-string memsys field is rejected.
    std::string bad = report;
    const std::string needle = "\"memsys\": \"l2-1M-lat10-mshr8\"";
    bad.replace(bad.find(needle), needle.size(), "\"memsys\": 17");
    JsonValue bad_doc;
    ASSERT_TRUE(parseJson(bad, bad_doc, &error)) << error;
    EXPECT_FALSE(validateSweepReport(bad_doc, &error));
}

TEST(Report, ValidatorAcceptsPreHierarchyV2Reports)
{
    // The hierarchy counters were added to v2 additively: a report
    // emitted before they existed (stats without any l1*/l2*/
    // tlb/mshr/pref/miss_cycles/derived-MPKI key) must still
    // validate, because the schema string was not bumped.
    RunResult r;
    r.benchmark = "gcc";
    r.suite = Suite::Int;
    r.config = "nosq/w128";
    r.sim.cycles = 10;
    r.sim.insts = 20;
    const std::string report = sweepReportJson({r}, 20, r.config);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(report, doc, &error)) << error;

    // Strip every post-v2-introduction key from the stats block,
    // reconstructing the original emission.
    JsonValue *stats = const_cast<JsonValue *>(
        doc.find("runs")->array[0].find("stats"));
    ASSERT_NE(stats, nullptr);
    const std::vector<std::string> legacy = {
        "cycles", "insts", "loads", "stores", "branches",
        "comm_loads", "partial_comm_loads", "bypassed_loads",
        "shift_uops", "delayed_loads", "bypass_mispredicts",
        "reexec_loads", "load_flushes", "dcache_reads_core",
        "dcache_reads_backend", "dcache_writes",
        "branch_mispredicts", "sq_forwards", "sq_stalls",
        "ssn_wrap_drains", "ipc"};
    std::vector<std::pair<std::string, JsonValue>> kept;
    for (auto &member : stats->object)
        for (const std::string &key : legacy)
            if (member.first == key)
                kept.push_back(member);
    ASSERT_EQ(kept.size(), legacy.size());
    stats->object = kept;
    EXPECT_TRUE(validateSweepReport(doc, &error)) << error;

    // But a missing LEGACY key is still a hard failure.
    stats->object.erase(stats->object.begin()); // drops "cycles"
    EXPECT_FALSE(validateSweepReport(doc, &error));
}

TEST(SweepProgress, ReportsEveryCompletion)
{
    const std::vector<SweepJob> jobs = smallJobList();
    std::size_t calls = 0, last_done = 0;
    std::vector<char> seen(jobs.size(), 0);
    runSweep(jobs, 2,
             [&](std::size_t done, std::size_t total,
                 std::size_t index) {
                 ++calls;
                 EXPECT_LE(done, total);
                 EXPECT_EQ(total, jobs.size());
                 ASSERT_LT(index, jobs.size());
                 seen[index] = 1;
                 last_done = done > last_done ? done : last_done;
             });
    EXPECT_EQ(calls, jobs.size());
    EXPECT_EQ(last_done, jobs.size());
    // Every job index is reported exactly once.
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_TRUE(seen[i]) << "job " << i << " never reported";
}

// --- journal integration ---------------------------------------------------

TEST(Sweep, JournaledRunMatchesPlainRunBitForBit)
{
    const std::string path =
        testing::TempDir() + "nosq_sweep_journal.jsonl";
    const std::vector<SweepJob> jobs = smallJobList();
    const std::vector<RunResult> plain = runSweep(jobs, 4);

    {
        // Scoped: drops the journal lock before the resumes below.
        SweepJournal journal = SweepJournal::create(path);
        const std::vector<RunResult> journaled =
            runSweep(jobs, journal, 4);
        ASSERT_EQ(journaled.size(), plain.size());
        for (std::size_t i = 0; i < plain.size(); ++i)
            expectSameStats(journaled[i].sim, plain[i].sim);
    }

    // Resuming the complete journal runs nothing, serial or
    // parallel, and still reproduces the same results.
    for (const unsigned workers : {1u, 4u}) {
        SweepJournal again = SweepJournal::resume(path);
        const std::vector<RunResult> resumed =
            runSweep(jobs, again, workers);
        EXPECT_EQ(again.doneCount(), jobs.size());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(resumed[i].benchmark, plain[i].benchmark);
            EXPECT_EQ(resumed[i].config, plain[i].config);
            expectSameStats(resumed[i].sim, plain[i].sim);
        }
    }
    std::remove(path.c_str());
}

TEST(SweepProgress, CountsJournaledJobsAsAlreadyDone)
{
    const std::string path =
        testing::TempDir() + "nosq_sweep_progress.jsonl";
    const std::vector<SweepJob> jobs = smallJobList();
    {
        SweepJournal journal = SweepJournal::create(path);
        runSweep(jobs, journal, 4);
    }

    // Drop the last job's record so exactly that job is pending. A
    // parallel sweep journals in completion order, so the record is
    // found by fingerprint, not by position.
    const std::string dropped =
        "{\"fp\": \"" + jobFingerprint(jobs.back()) + "\"";
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), jobs.size() + 1);
    {
        std::ofstream out(path, std::ios::trunc);
        std::size_t kept = 0;
        for (const std::string &line : lines) {
            if (line.compare(0, dropped.size(), dropped) == 0)
                continue;
            out << line << '\n';
            ++kept;
        }
        ASSERT_EQ(kept, jobs.size());
    }

    std::vector<std::size_t> reported;
    {
        // Scoped: drops the journal lock before the second resume.
        SweepJournal journal = SweepJournal::resume(path);
        runSweep(jobs, journal, 2,
                 [&](std::size_t done, std::size_t total,
                     std::size_t index) {
                     EXPECT_EQ(total, jobs.size());
                     // The only pending job is the last one.
                     EXPECT_EQ(index, jobs.size() - 1);
                     reported.push_back(done);
                 });
    }
    // One pending job -> one progress call, already counting the
    // journaled jobs as done.
    ASSERT_EQ(reported.size(), 1u);
    EXPECT_EQ(reported[0], jobs.size());

    // Fully-journaled resume: still exactly one completion report.
    SweepJournal full = SweepJournal::resume(path);
    reported.clear();
    runSweep(jobs, full, 2,
             [&](std::size_t done, std::size_t total,
                 std::size_t index) {
                 reported.push_back(done);
                 EXPECT_EQ(total, jobs.size());
                 // Bulk report: no single job finished.
                 EXPECT_EQ(index, sweep_progress_bulk);
             });
    ASSERT_EQ(reported.size(), 1u);
    EXPECT_EQ(reported[0], jobs.size());
    std::remove(path.c_str());
}

// --- JSON reporter ---------------------------------------------------------

TEST(Report, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Report, ParserHandlesEmittedSubset)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(
        "{\"a\": [1, 2.5, -3e2], \"b\": \"x\\ny\", "
        "\"c\": true, \"d\": null}", v, &error)) << error;
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
    EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
    EXPECT_EQ(v.find("b")->string, "x\ny");
    EXPECT_TRUE(v.find("c")->boolean);
    EXPECT_EQ(v.find("d")->kind, JsonValue::Kind::Null);
}

TEST(Report, ParserRejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("{\"a\": }", v, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("[1, 2", v));
    EXPECT_FALSE(parseJson("{} trailing", v));
    EXPECT_FALSE(parseJson("\"unterminated", v));
    // Malformed numbers that permissive strtod would half-accept.
    EXPECT_FALSE(parseJson("[1.2.3]", v));
    EXPECT_FALSE(parseJson("[-]", v));
    EXPECT_FALSE(parseJson("[1e+]", v));
    EXPECT_FALSE(parseJson("[+1]", v));
    EXPECT_FALSE(parseJson("[1.]", v));
    EXPECT_FALSE(parseJson("[007]", v));
    // strtod also accepts these; the JSON number grammar must not.
    EXPECT_FALSE(parseJson("[inf]", v));
    EXPECT_FALSE(parseJson("[-inf]", v));
    EXPECT_FALSE(parseJson("[nan]", v));
    EXPECT_FALSE(parseJson("[NaN]", v));
    EXPECT_FALSE(parseJson("[0x10]", v));
    EXPECT_FALSE(parseJson("[.5]", v));
}

TEST(Report, NonFiniteNumbersEmitNull)
{
    EXPECT_EQ(jsonNumber(
        std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(jsonNumber(
        std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(jsonNumber(
        -std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(0.0), "0");
}

TEST(Report, InvalidRunIsFlaggedNotFaked)
{
    RunResult failed;
    failed.benchmark = "gcc";
    failed.config = "nosq/w128";
    failed.valid = false;

    JsonValue run;
    std::string error;
    ASSERT_TRUE(parseJson(toJson(failed), run, &error)) << error;
    ASSERT_NE(run.find("valid"), nullptr);
    EXPECT_EQ(run.find("valid")->kind, JsonValue::Kind::Bool);
    EXPECT_FALSE(run.find("valid")->boolean);
}

TEST(Report, SweepReportRoundTripsKeyFields)
{
    const std::vector<SweepJob> jobs = smallJobList();
    const std::vector<RunResult> results = runSweep(jobs, 2);
    const std::string report =
        sweepReportJson(results, test_insts);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(report, doc, &error)) << error;
    EXPECT_TRUE(validateSweepReport(doc, &error)) << error;

    EXPECT_EQ(doc.find("schema")->string, "nosq-sweep-v2");
    EXPECT_EQ(doc.find("insts")->asU64(), test_insts);
    // Default baseline: the first result's configuration.
    EXPECT_EQ(doc.find("baseline")->string, results[0].config);

    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JsonValue &run = runs->array[i];
        const RunResult &r = results[i];
        EXPECT_EQ(run.find("benchmark")->string, r.benchmark);
        EXPECT_EQ(run.find("suite")->string, suiteName(r.suite));
        EXPECT_EQ(run.find("config")->string, r.config);
        EXPECT_TRUE(run.find("valid")->boolean);
        const JsonValue *stats = run.find("stats");
        ASSERT_NE(stats, nullptr);
        EXPECT_EQ(stats->find("cycles")->asU64(), r.sim.cycles);
        EXPECT_EQ(stats->find("insts")->asU64(), r.sim.insts);
        EXPECT_EQ(stats->find("loads")->asU64(), r.sim.loads);
        EXPECT_EQ(stats->find("stores")->asU64(), r.sim.stores);
        EXPECT_EQ(stats->find("bypassed_loads")->asU64(),
                  r.sim.bypassedLoads);
        EXPECT_EQ(stats->find("sq_forwards")->asU64(),
                  r.sim.sqForwards);
        EXPECT_DOUBLE_EQ(stats->find("ipc")->number, r.sim.ipc());
    }
}

TEST(Report, EmptySweepIsValidJson)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(sweepReportJson({}, 0), doc, &error))
        << error;
    EXPECT_TRUE(validateSweepReport(doc, &error)) << error;
    EXPECT_EQ(doc.find("runs")->array.size(), 0u);
}

// --- reductions ------------------------------------------------------------

RunResult
makeRun(const char *bench, Suite suite, const char *config,
        std::uint64_t cycles, std::uint64_t reads_core,
        std::uint64_t reads_backend, std::uint64_t loads,
        std::uint64_t reexec)
{
    RunResult r;
    r.benchmark = bench;
    r.suite = suite;
    r.config = config;
    r.sim.cycles = cycles;
    r.sim.insts = 1000;
    r.sim.dcacheReadsCore = reads_core;
    r.sim.dcacheReadsBackend = reads_backend;
    r.sim.loads = loads;
    r.sim.reexecLoads = reexec;
    return r;
}

/** 2 benchmarks (different suites) x {base, nosq}, chosen so every
 * reduction has a closed-form hand-computed value. */
std::vector<RunResult>
handResults()
{
    return {
        makeRun("a", Suite::Media, "base", 100, 40, 10, 200, 2),
        makeRun("a", Suite::Media, "nosq", 110, 30, 10, 200, 4),
        makeRun("b", Suite::Int, "base", 200, 90, 10, 400, 0),
        makeRun("b", Suite::Int, "nosq", 240, 70, 10, 400, 8),
    };
}

TEST(Report, ReductionsMatchHandComputedMeans)
{
    const SweepReductions red =
        computeReductions(handResults(), "base");
    EXPECT_EQ(red.baseline, "base");

    // Groups: MediaBench, SPECint, overall (in that order).
    ASSERT_EQ(red.groups.size(), 3u);
    EXPECT_EQ(red.groups[0].first, suiteName(Suite::Media));
    EXPECT_EQ(red.groups[1].first, suiteName(Suite::Int));
    EXPECT_EQ(red.groups[2].first, "overall");

    const auto &overall = red.groups[2].second;
    ASSERT_EQ(overall.size(), 2u);
    EXPECT_EQ(overall[0].first, "base");
    const ReductionStats &base = overall[0].second;
    EXPECT_EQ(base.runs, 2u);
    EXPECT_DOUBLE_EQ(base.relTime.geomean, 1.0);
    EXPECT_DOUBLE_EQ(base.relTime.amean, 1.0);

    // nosq relative time: a: 110/100 = 1.1, b: 240/200 = 1.2.
    const ReductionStats &nosq = overall[1].second;
    EXPECT_EQ(nosq.runs, 2u);
    EXPECT_DOUBLE_EQ(nosq.relTime.amean, (1.1 + 1.2) / 2);
    EXPECT_NEAR(nosq.relTime.geomean, std::sqrt(1.1 * 1.2), 1e-12);
    // Cache reads: a: 40/50 = 0.8, b: 80/100 = 0.8.
    EXPECT_DOUBLE_EQ(nosq.cacheReads.amean, 0.8);
    EXPECT_NEAR(nosq.cacheReads.geomean, 0.8, 1e-12);
    // Re-execution rate (absolute): a: 4/200, b: 8/400.
    EXPECT_DOUBLE_EQ(nosq.reexecRate.amean, 0.02);
    EXPECT_NEAR(nosq.reexecRate.geomean, 0.02, 1e-12);

    // Per-suite cells hold exactly their own benchmark.
    const auto &media = red.groups[0].second;
    ASSERT_EQ(media.size(), 2u);
    EXPECT_EQ(media[1].second.runs, 1u);
    EXPECT_NEAR(media[1].second.relTime.geomean, 1.1, 1e-12);
    EXPECT_DOUBLE_EQ(media[1].second.relTime.amean, 1.1);
}

TEST(Report, ReductionsNormalizeWithinEachMachineSize)
{
    // Two-window cross sweep: each run must divide by the baseline
    // mode on its OWN machine, never by the other window's run.
    const std::vector<RunResult> results = {
        makeRun("a", Suite::Media, "perfect/w128", 100, 50, 0, 100,
                0),
        makeRun("a", Suite::Media, "nosq/w128", 110, 40, 0, 100, 0),
        makeRun("a", Suite::Media, "perfect/w256", 80, 50, 0, 100,
                0),
        makeRun("a", Suite::Media, "nosq/w256", 88, 40, 0, 100, 0),
    };
    const SweepReductions red =
        computeReductions(results, "perfect/w128");

    const auto &overall = red.groups.back().second;
    ASSERT_EQ(overall.size(), 4u);
    // The w256 baseline mode is 1.0 on its own machine...
    EXPECT_EQ(overall[2].first, "perfect/w256");
    EXPECT_DOUBLE_EQ(overall[2].second.relTime.amean, 1.0);
    // ...and nosq/w256 normalizes against perfect/w256 (88/80).
    EXPECT_EQ(overall[3].first, "nosq/w256");
    EXPECT_DOUBLE_EQ(overall[3].second.relTime.amean, 1.1);
    EXPECT_DOUBLE_EQ(overall[1].second.relTime.amean, 1.1);
}

TEST(Report, ReductionsExcludeInvalidAndBaselineLessRuns)
{
    std::vector<RunResult> results = handResults();
    results[1].valid = false; // a/nosq failed
    // c has no baseline run at all.
    results.push_back(
        makeRun("c", Suite::Fp, "nosq", 300, 50, 0, 100, 1));

    const SweepReductions red = computeReductions(results, "base");
    const auto &overall = red.groups.back().second;
    ASSERT_EQ(overall.back().first, "nosq");
    const ReductionStats &nosq = overall.back().second;
    // b/nosq and c/nosq are valid, but only b has a baseline.
    EXPECT_EQ(nosq.runs, 2u);
    EXPECT_NEAR(nosq.relTime.geomean, 1.2, 1e-12);
    // Absolute series still cover both valid runs.
    EXPECT_DOUBLE_EQ(nosq.reexecRate.amean,
                     (8.0 / 400 + 1.0 / 100) / 2);
}

TEST(Report, ReductionsWithNoBaselineEmitNullNotZero)
{
    // A baseline run that never completed: every relative series is
    // empty, so the v2 report must carry null, not a fake number.
    std::vector<RunResult> results = {
        makeRun("a", Suite::Media, "nosq", 110, 40, 10, 200, 2),
    };
    const std::string report =
        sweepReportJson(results, 1000, "base");

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(report, doc, &error)) << error;
    EXPECT_TRUE(validateSweepReport(doc, &error)) << error;

    const JsonValue *cell = doc.find("reductions");
    ASSERT_NE(cell, nullptr);
    cell = cell->find("overall");
    ASSERT_NE(cell, nullptr);
    cell = cell->find("nosq");
    ASSERT_NE(cell, nullptr);
    const JsonValue *rel = cell->find("rel_time");
    ASSERT_NE(rel, nullptr);
    EXPECT_EQ(rel->find("geomean")->kind, JsonValue::Kind::Null);
    EXPECT_EQ(rel->find("amean")->kind, JsonValue::Kind::Null);
    // The absolute re-execution rate is still real.
    EXPECT_EQ(cell->find("reexec_rate")->find("amean")->kind,
              JsonValue::Kind::Number);
}

// --- schema validation -----------------------------------------------------

TEST(Report, ValidatorAcceptsEmittedReports)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(sweepReportJson(handResults(), 1000,
                                          "base"), doc, &error))
        << error;
    EXPECT_TRUE(validateSweepReport(doc, &error)) << error;
}

TEST(Report, ValidatorRejectsSchemaViolations)
{
    const std::string good =
        sweepReportJson(handResults(), 1000, "base");
    std::string error;

    auto rejects = [&error](const std::string &text) {
        JsonValue doc;
        if (!parseJson(text, doc, &error))
            return true; // strict parse already failed
        return !validateSweepReport(doc, &error);
    };

    // Wrong schema tag.
    std::string v1 = good;
    v1.replace(v1.find("nosq-sweep-v2"),
               std::string("nosq-sweep-v2").size(),
               "nosq-sweep-v1");
    EXPECT_TRUE(rejects(v1));

    // Missing reductions / runs / baseline.
    EXPECT_TRUE(rejects("{\"schema\": \"nosq-sweep-v2\", "
                        "\"insts\": 1, \"baseline\": \"b\", "
                        "\"runs\": []}"));
    EXPECT_TRUE(rejects("{\"schema\": \"nosq-sweep-v2\", "
                        "\"insts\": 1, \"baseline\": \"b\", "
                        "\"reductions\": {}}"));
    EXPECT_TRUE(rejects("{\"schema\": \"nosq-sweep-v2\", "
                        "\"insts\": 1, \"runs\": [], "
                        "\"reductions\": {}}"));

    // A run missing the valid flag or a stat key.
    std::string no_valid = good;
    const auto at = no_valid.find("\"valid\"");
    no_valid.replace(at, std::string("\"valid\"").size(),
                     "\"velid\"");
    EXPECT_TRUE(rejects(no_valid));
    std::string no_cycles = good;
    no_cycles.replace(no_cycles.find("\"cycles\""),
                      std::string("\"cycles\"").size(),
                      "\"cicles\"");
    EXPECT_TRUE(rejects(no_cycles));

    // A reductions cell missing one mean pair.
    std::string no_rel = good;
    no_rel.replace(no_rel.find("\"rel_time\""),
                   std::string("\"rel_time\"").size(),
                   "\"rel_tyme\"");
    EXPECT_TRUE(rejects(no_rel));

    // Not silently tolerant of a malformed document shape.
    EXPECT_TRUE(rejects("[]"));
    EXPECT_TRUE(rejects("{\"schema\": 2}"));
}

} // anonymous namespace
} // namespace nosq
