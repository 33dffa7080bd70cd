/**
 * @file
 * Tests for the sweep checkpoint/resume journal: job fingerprints,
 * record round-trip, resume-skips-done-jobs, the byte-identical
 * merged report, resuming against another sweep spec, and salvage
 * of every corruption class (truncated tail, wrong schema version,
 * unknown fingerprint, duplicate fingerprint, mislabelled record)
 * through the result store with only the missing jobs re-run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace {

constexpr std::uint64_t test_insts = 20000;

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "nosq_journal_" + name + ".jsonl";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good());
}

std::vector<std::string>
fileLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/**
 * A deterministic custom-runner job list that counts executions:
 * resuming must re-run exactly the jobs missing from the journal.
 * Each job's tuple differs (insts), so fingerprints differ.
 */
std::vector<SweepJob>
countedJobs(std::atomic<unsigned> &runs, std::size_t n,
            std::uint64_t seed = 1)
{
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < n; ++i) {
        SweepJob job;
        job.benchmark = "job" + std::to_string(i);
        job.suite = i % 2 ? Suite::Int : Suite::Media;
        job.config = "cfg";
        job.seed = seed;
        job.insts = 1000 + i;
        job.runner = [&runs, i](const SweepJob &j) {
            ++runs;
            SimResult sim;
            sim.cycles = 10 * j.insts;
            sim.insts = j.insts;
            sim.loads = 100 + i;
            sim.reexecLoads = i;
            sim.dcacheReadsCore = 500 + i;
            return sim;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** countedJobs() whose results are 2-core multicore runs. */
std::vector<SweepJob>
multicoreCountedJobs(std::atomic<unsigned> &runs, std::size_t n)
{
    std::vector<SweepJob> jobs = countedJobs(runs, n);
    for (SweepJob &job : jobs) {
        job.runner = [single = job.runner](const SweepJob &j) {
            SimResult sim = single(j);
            sim.multicore = true;
            sim.numCores = 2;
            sim.perCore.assign(2, {sim.cycles, sim.insts / 2,
                                   sim.loads / 2, 0, 0});
            return sim;
        };
    }
    return jobs;
}

/** A real two-benchmark, two-config sweep (exercises the full
 * synthesize + timing-core pipeline through the journal). */
std::vector<SweepJob>
realJobList()
{
    SweepSpec spec;
    for (const char *name : {"gcc", "g721.e"})
        spec.benchmarks.push_back(findProfile(name));
    spec.configs = crossConfigs(
        {LsuMode::Nosq, LsuMode::SqStoreSets}, {128});
    spec.insts = test_insts;
    return buildJobs(spec);
}

void
expectSameStats(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.reexecLoads, b.reexecLoads);
    EXPECT_EQ(a.dcacheReadsCore, b.dcacheReadsCore);
    EXPECT_EQ(a.dcacheReadsBackend, b.dcacheReadsBackend);
    EXPECT_EQ(a.bypassedLoads, b.bypassedLoads);
    EXPECT_EQ(a.sqForwards, b.sqForwards);
}

// --- fingerprints ----------------------------------------------------------

TEST(Fingerprint, StableAndSensitiveToEveryTupleField)
{
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 2);
    EXPECT_EQ(jobFingerprint(jobs[0]), jobFingerprint(jobs[0]));
    EXPECT_EQ(jobFingerprint(jobs[0]).size(), 16u);
    EXPECT_NE(jobFingerprint(jobs[0]), jobFingerprint(jobs[1]));

    SweepJob base = jobs[0];
    SweepJob seed = base;
    seed.seed = 99;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(seed));
    SweepJob insts = base;
    insts.insts += 1;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(insts));
    SweepJob warmup = base;
    warmup.warmup += 1;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(warmup));
    SweepJob config = base;
    config.config = "other";
    EXPECT_NE(jobFingerprint(base), jobFingerprint(config));
    SweepJob bench = base;
    bench.benchmark = "renamed";
    EXPECT_NE(jobFingerprint(base), jobFingerprint(bench));
    // Custom-runner identity: the callable is unhashable, so the
    // tag is what keeps two studies' journals apart.
    SweepJob tagged = base;
    tagged.runnerTag = "study-b";
    EXPECT_NE(jobFingerprint(base), jobFingerprint(tagged));
}

TEST(Fingerprint, DelimiterBytesInFieldsCannotCollide)
{
    // With a delimiter-joined hash these two tuples would produce
    // the same byte stream ("A|MediaBench" + "B" vs "A" +
    // "MediaBench|B" around the suite name); the length-prefixed
    // encoding must keep them apart.
    SweepJob a;
    a.benchmark = "A|MediaBench";
    a.suite = Suite::Media;
    a.config = "B";
    SweepJob b;
    b.benchmark = "A";
    b.suite = Suite::Media;
    b.config = "MediaBench|B";
    EXPECT_NE(jobFingerprint(a), jobFingerprint(b));
}

TEST(Fingerprint, SensitiveToUarchParams)
{
    SweepJob base;
    base.profile = findProfile("gcc");
    base.params = makeParams(LsuMode::Nosq, false);
    base.config = "nosq";

    SweepJob mode = base;
    mode.params = makeParams(LsuMode::SqStoreSets, false);
    EXPECT_NE(jobFingerprint(base), jobFingerprint(mode));
    SweepJob window = base;
    window.params = makeParams(LsuMode::Nosq, true);
    EXPECT_NE(jobFingerprint(base), jobFingerprint(window));
    SweepJob tweak = base;
    tweak.params.bypass.historyBits += 1;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(tweak));
    SweepJob cache = base;
    cache.params.memsys.l2.sizeBytes *= 2;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(cache));
    SweepJob delay = base;
    delay.params.nosqDelay = false;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(delay));

    // The PR 5 memory-system knobs (and the hierarchy label) are
    // part of the tuple: a journal from a legacy-model sweep must
    // never satisfy an MSHR-enabled one.
    SweepJob mshrs = base;
    mshrs.params.memsys.mshrs = 8;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(mshrs));
    SweepJob pref = base;
    pref.params.memsys.prefetchDegree = 2;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(pref));
    SweepJob bus = base;
    bus.params.memsys.busContention = true;
    EXPECT_NE(jobFingerprint(base), jobFingerprint(bus));
    SweepJob label = base;
    label.memsysLabel = "l2-1M-lat10-mshr8";
    EXPECT_NE(jobFingerprint(base), jobFingerprint(label));
}

TEST(Journal, MemsysLabelRoundTripsThroughResume)
{
    const std::string path = tempPath("memsys_label");
    SweepSpec spec;
    spec.benchmarks = {findProfile("gcc")};
    spec.configs = memsysConfigs({256 * 1024}, {12}, {4},
                                 /*with_prefetch=*/false);
    spec.insts = test_insts;
    const std::vector<SweepJob> jobs = buildJobs(spec);
    ASSERT_EQ(jobs.size(), 2u);
    ASSERT_EQ(jobs[0].memsysLabel, "l2-256K-lat12-mshr4");

    {
        SweepJournal journal = SweepJournal::create(path);
        const auto results = runSweep(jobs, journal, 1);
        EXPECT_EQ(results[0].memsys, "l2-256K-lat12-mshr4");
    }
    // A resumed run loads every row from the journal; the label
    // must survive, or the merged report would drop the field.
    SweepJournal resumed = SweepJournal::resume(path);
    const auto results = runSweep(jobs, resumed, 1);
    EXPECT_EQ(resumed.doneCount(), 2u);
    EXPECT_EQ(results[0].memsys, "l2-256K-lat12-mshr4");
    EXPECT_EQ(results[1].memsys, "l2-256K-lat12-mshr4");
    EXPECT_TRUE(resumed.warnings().empty());
    std::remove(path.c_str());
}

// --- checkpoint + resume ---------------------------------------------------

TEST(Journal, FreshJournalRecordsEveryCompletedJob)
{
    const std::string path = tempPath("fresh");
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 4);

    SweepJournal journal = SweepJournal::create(path);
    const std::vector<RunResult> results =
        runSweep(jobs, journal, 2);
    EXPECT_EQ(runs.load(), 4u);
    EXPECT_TRUE(journal.warnings().empty());
    EXPECT_TRUE(journal.writeError().empty());

    // A result store: header + one line per completed job.
    const std::vector<std::string> lines = fileLines(path);
    ASSERT_EQ(lines.size(), 5u);
    JsonValue header;
    ASSERT_TRUE(parseJson(lines[0], header, nullptr));
    EXPECT_EQ(header.find("schema")->string, "nosq-store-v1");
    for (std::size_t n = 1; n < lines.size(); ++n) {
        JsonValue rec;
        ASSERT_TRUE(parseJson(lines[n], rec, nullptr))
            << "line " << n;
        EXPECT_EQ(rec.find("fp")->string.size(), 16u);
        ASSERT_NE(rec.find("run"), nullptr);
        EXPECT_TRUE(rec.find("run")->find("valid")->boolean);
    }
    (void)results;
    std::remove(path.c_str());
}

TEST(Journal, ResumeSkipsJournaledJobsAndMergesResults)
{
    const std::string path = tempPath("resume");
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 5);

    // Uninterrupted reference.
    const std::vector<RunResult> reference = runSweep(jobs, 2);
    runs = 0;

    // Full checkpointed run, then cut the journal to header + 2
    // records -- exactly what a SIGKILL after two completions
    // leaves (modulo the in-flight jobs it can also lose).
    {
        SweepJournal journal = SweepJournal::create(path);
        runSweep(jobs, journal, 2);
    }
    const std::vector<std::string> lines = fileLines(path);
    ASSERT_EQ(lines.size(), 6u);
    writeFile(path,
              lines[0] + '\n' + lines[1] + '\n' + lines[2] + '\n');

    runs = 0;
    {
        // Scoped: the lock must drop before the journal is resumed
        // again below.
        SweepJournal journal = SweepJournal::resume(path);
        const std::vector<RunResult> resumed =
            runSweep(jobs, journal, 2);
        EXPECT_EQ(runs.load(), 3u); // only the 3 missing jobs re-ran
        EXPECT_EQ(journal.doneCount(), 2u);
        EXPECT_TRUE(journal.warnings().empty());

        ASSERT_EQ(resumed.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(resumed[i].benchmark, reference[i].benchmark);
            EXPECT_EQ(resumed[i].suite, reference[i].suite);
            EXPECT_EQ(resumed[i].config, reference[i].config);
            EXPECT_TRUE(resumed[i].valid);
            expectSameStats(resumed[i].sim, reference[i].sim);
        }
    }

    // After the resumed run the journal holds all five records and
    // can resume again with nothing left to do.
    runs = 0;
    SweepJournal complete = SweepJournal::resume(path);
    runSweep(jobs, complete, 2);
    EXPECT_EQ(runs.load(), 0u);
    EXPECT_EQ(complete.doneCount(), jobs.size());
    std::remove(path.c_str());
}

TEST(Journal, ResumedReportIsByteIdenticalToUninterrupted)
{
    const std::string path = tempPath("report");
    const std::vector<SweepJob> jobs = realJobList();

    const std::vector<RunResult> reference = runSweep(jobs, 2);
    const std::string reference_report =
        sweepReportJson(reference, test_insts, jobs[0].config);

    {
        SweepJournal journal = SweepJournal::create(path);
        runSweep(jobs, journal, 2);
    }
    // Keep header + 2 of 4 records.
    const std::vector<std::string> lines = fileLines(path);
    ASSERT_EQ(lines.size(), 5u);
    writeFile(path,
              lines[0] + '\n' + lines[1] + '\n' + lines[2] + '\n');

    SweepJournal journal = SweepJournal::resume(path);
    const std::vector<RunResult> resumed =
        runSweep(jobs, journal, 2);
    EXPECT_EQ(journal.doneCount(), 2u);
    EXPECT_EQ(sweepReportJson(resumed, test_insts, jobs[0].config),
              reference_report);
    std::remove(path.c_str());
}

TEST(Journal, ResumeAgainstAnotherSpecReusesMatchingResults)
{
    const std::string path = tempPath("otherspec");
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 5);
    {
        // Checkpoint a sweep of the first three jobs only.
        SweepJournal journal = SweepJournal::create(path);
        runSweep(std::vector<SweepJob>(jobs.begin(), jobs.begin() + 3),
                 journal, 1);
    }
    // A fingerprint hashes the whole job tuple, so resuming the
    // larger sweep reuses the three results and runs the other two.
    runs = 0;
    SweepJournal journal = SweepJournal::resume(path);
    const std::vector<RunResult> results = runSweep(jobs, journal, 1);
    EXPECT_EQ(runs.load(), 2u);
    EXPECT_EQ(journal.doneCount(), 3u);
    EXPECT_TRUE(journal.warnings().empty());
    const std::vector<RunResult> reference = runSweep(jobs, 1);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(runResultJsonLine(results[i]),
                  runResultJsonLine(reference[i]))
            << i;
    std::remove(path.c_str());
}

TEST(Journal, MissingFileDegradesToFreshWithWarning)
{
    const std::string path = tempPath("missing");
    std::remove(path.c_str());
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 2);

    SweepJournal journal = SweepJournal::resume(path);
    runSweep(jobs, journal, 1);
    EXPECT_EQ(runs.load(), 2u);
    EXPECT_EQ(journal.doneCount(), 0u);
    ASSERT_EQ(journal.warnings().size(), 1u);
    EXPECT_NE(journal.warnings()[0].find("not found"),
              std::string::npos);
    EXPECT_EQ(fileLines(path).size(), 3u); // now a real journal
    std::remove(path.c_str());
}

TEST(Journal, FailedJobsAreNotJournaledAndRetryOnResume)
{
    const std::string path = tempPath("failed");
    std::atomic<unsigned> runs{0};
    std::atomic<bool> broken{true};
    std::vector<SweepJob> jobs = countedJobs(runs, 3);
    jobs[1].runner = [&](const SweepJob &) -> SimResult {
        if (broken)
            throw std::runtime_error("flaky");
        SimResult sim;
        sim.cycles = 77;
        sim.insts = 7;
        return sim;
    };

    {
        SweepJournal journal = SweepJournal::create(path);
        EXPECT_THROW(runSweep(jobs, journal, 1), SweepError);
    }
    // Only the two successful jobs were journaled.
    EXPECT_EQ(fileLines(path).size(), 3u);

    // On resume the failed job -- and only it -- re-runs.
    broken = false;
    runs = 0;
    SweepJournal journal = SweepJournal::resume(path);
    const std::vector<RunResult> results =
        runSweep(jobs, journal, 1);
    EXPECT_EQ(runs.load(), 0u); // jobs[1] no longer counts runs
    EXPECT_EQ(journal.doneCount(), 2u);
    EXPECT_TRUE(results[1].valid);
    EXPECT_EQ(results[1].sim.cycles, 77u);
    std::remove(path.c_str());
}

// --- corruption salvage ----------------------------------------------------

/** Checkpoint @p jobs, corrupt the journal via @p damage, resume,
 * and return how many jobs re-ran (results must always merge back
 * identical to the reference). */
template <typename Damage>
unsigned
corruptAndResume(const std::string &path,
                 std::vector<std::string> &expect_warnings,
                 const Damage &damage)
{
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 4);
    const std::vector<RunResult> reference = runSweep(jobs, 1);
    {
        SweepJournal journal = SweepJournal::create(path);
        runSweep(jobs, journal, 1);
    }
    damage(path);

    runs = 0;
    {
        // Scoped: releases the journal lock before the re-resume.
        SweepJournal journal = SweepJournal::resume(path);
        const std::vector<RunResult> resumed =
            runSweep(jobs, journal, 1);
        expect_warnings = journal.warnings();

        EXPECT_EQ(resumed.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_TRUE(resumed[i].valid) << i;
            expectSameStats(resumed[i].sim, reference[i].sim);
        }
    }
    // The compacted journal is now complete: a further resume has
    // nothing to do.
    std::atomic<unsigned> again{0};
    SweepJournal reresume = SweepJournal::resume(path);
    runSweep(countedJobs(again, 4), reresume, 1);
    EXPECT_EQ(again.load(), 0u);
    EXPECT_TRUE(reresume.warnings().empty());
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
    return runs.load();
}

TEST(JournalSalvage, TruncatedFinalLineSalvagesPrefix)
{
    std::vector<std::string> warnings;
    const unsigned reran = corruptAndResume(
        tempPath("trunc"), warnings, [](const std::string &path) {
            // Chop the final record mid-JSON, as a kill mid-write
            // would.
            std::string text = readFile(path);
            writeFile(path, text.substr(0, text.size() - 40));
        });
    EXPECT_EQ(reran, 1u); // only the truncated record's job
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("torn"), std::string::npos);
}

TEST(JournalSalvage, WrongSchemaVersionDiscardsAllRecords)
{
    std::vector<std::string> warnings;
    const unsigned reran = corruptAndResume(
        tempPath("schema"), warnings, [](const std::string &path) {
            std::string text = readFile(path);
            const std::string tag = "nosq-store-v1";
            text.replace(text.find(tag), tag.size(),
                         "nosq-store-v9");
            writeFile(path, text);
        });
    EXPECT_EQ(reran, 4u); // nothing salvageable: all jobs re-run
    // The discard itself, plus the unreadable file kept aside for
    // manual recovery.
    ASSERT_EQ(warnings.size(), 2u);
    EXPECT_NE(warnings[0].find("schema"), std::string::npos);
    EXPECT_NE(warnings[1].find("manual recovery"),
              std::string::npos);
}

TEST(JournalSalvage, UnknownFingerprintIsSkippedOthersSurvive)
{
    std::vector<std::string> warnings;
    const unsigned reran = corruptAndResume(
        tempPath("unknown"), warnings, [](const std::string &path) {
            // Rewrite record 2's fingerprint to one no job has: to
            // this sweep the record is another job's result, so it
            // is ignored, and later records still verify.
            std::vector<std::string> lines = fileLines(path);
            JsonValue rec;
            ASSERT_TRUE(parseJson(lines[2], rec, nullptr));
            const std::string fp = rec.find("fp")->string;
            lines[2].replace(lines[2].find(fp), fp.size(),
                             "deadbeefdeadbeef");
            std::string text;
            for (const std::string &line : lines)
                text += line + '\n';
            writeFile(path, text);
        });
    EXPECT_EQ(reran, 1u); // only the damaged record's job
    EXPECT_TRUE(warnings.empty());
}

TEST(JournalSalvage, NonIntegralCounterRejectsOnlyThatRecord)
{
    std::vector<std::string> warnings;
    const unsigned reran = corruptAndResume(
        tempPath("negct"), warnings, [](const std::string &path) {
            // Corrupt record 2's cycles to a negative value: still
            // valid JSON, but no real counter -- the record must be
            // skipped (not undefined-cast) and its job re-run.
            std::vector<std::string> lines = fileLines(path);
            const std::string key = "\"cycles\":";
            const std::size_t at = lines[2].find(key);
            ASSERT_NE(at, std::string::npos);
            lines[2].insert(at + key.size(), "-");
            std::string text;
            for (const std::string &line : lines)
                text += line + '\n';
            writeFile(path, text);
        });
    EXPECT_EQ(reran, 1u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("invalid record"), std::string::npos);
}

TEST(JournalSalvage, OutOfRangeCoreCountRejectsOnlyThatRecord)
{
    // A core count above the directory's limit, or one large enough
    // to exhaust memory if it sized the per-core breakdown, must
    // skip its record (and re-run its job), not abort the process.
    const std::string path = tempPath("cores");
    std::remove(path.c_str()); // left behind by an aborted run
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = multicoreCountedJobs(runs, 4);
    const std::vector<RunResult> reference = runSweep(jobs, 1);
    {
        SweepJournal journal = SweepJournal::create(path);
        runSweep(jobs, journal, 1);
    }
    std::vector<std::string> lines = fileLines(path);
    ASSERT_EQ(lines.size(), 5u);
    const std::string key = "\"cores\":2,";
    for (const auto &[line, cores] :
         {std::pair<std::size_t, const char *>{1, "65"},
          {2, "4503599627370496" /* 2^52 */}}) {
        const std::size_t at = lines[line].find(key);
        ASSERT_NE(at, std::string::npos) << lines[line];
        lines[line].replace(at, key.size(),
                            "\"cores\":" + std::string(cores) + ",");
    }
    std::string text;
    for (const std::string &line : lines)
        text += line + '\n';
    writeFile(path, text);

    runs = 0;
    SweepJournal journal = SweepJournal::resume(path);
    const std::vector<RunResult> resumed = runSweep(jobs, journal, 1);
    EXPECT_EQ(runs.load(), 2u); // only the two damaged records' jobs
    ASSERT_EQ(journal.warnings().size(), 2u);
    for (const std::string &warning : journal.warnings())
        EXPECT_NE(warning.find("invalid record"), std::string::npos);
    EXPECT_EQ(sweepReportJson(resumed, test_insts),
              sweepReportJson(reference, test_insts));
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
}

TEST(JournalSalvage, DuplicateFingerprintKeepsFirstRecord)
{
    std::vector<std::string> warnings;
    const unsigned reran = corruptAndResume(
        tempPath("dup"), warnings, [](const std::string &path) {
            std::vector<std::string> lines = fileLines(path);
            // Duplicate record 1 over record 3: job 3's own record
            // is gone and the duplicate must not hide that.
            lines[3] = lines[1];
            std::string text;
            for (const std::string &line : lines)
                text += line + '\n';
            writeFile(path, text);
        });
    EXPECT_EQ(reran, 1u); // job 3 lost its record and re-ran
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("duplicate"), std::string::npos);
}

TEST(JournalSalvage, BindCompactsCorruptionOutOfTheFile)
{
    const std::string path = tempPath("compact");
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 3);
    {
        SweepJournal journal = SweepJournal::create(path);
        runSweep(jobs, journal, 1);
    }
    std::string text = readFile(path);
    writeFile(path, text + "{\"half\": ");

    SweepJournal journal = SweepJournal::resume(path);
    journal.bind(jobs);
    EXPECT_EQ(journal.doneCount(), 3u);
    // bind() rewrote the file: header + the three salvaged records,
    // no corrupt tail.
    const std::vector<std::string> lines = fileLines(path);
    ASSERT_EQ(lines.size(), 4u);
    for (const std::string &line : lines) {
        JsonValue v;
        EXPECT_TRUE(parseJson(line, v, nullptr));
    }
    std::remove(path.c_str());
}

TEST(Journal, CheckpointRefusesToClobberThisSweepsResults)
{
    const std::string path = tempPath("clobber");
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 3);
    {
        SweepJournal journal = SweepJournal::create(path);
        runSweep(jobs, journal, 1);
    }
    // Re-running the same --checkpoint command must not silently
    // truncate the progress it would be resuming.
    {
        SweepJournal journal = SweepJournal::create(path);
        EXPECT_THROW(journal.bind(jobs), JournalError);
    }
    // ...nor the progress of a sweep sharing only one job with it...
    {
        std::vector<SweepJob> overlap = countedJobs(runs, 3, 9);
        overlap[1] = jobs[1];
        SweepJournal journal = SweepJournal::create(path);
        EXPECT_THROW(journal.bind(overlap), JournalError);
    }
    // ...but a disjoint sweep starts from an empty file as requested.
    std::atomic<unsigned> other_runs{0};
    const std::vector<SweepJob> other =
        countedJobs(other_runs, 3, /*seed=*/9);
    {
        SweepJournal fresh = SweepJournal::create(path);
        runSweep(other, fresh, 1);
    }
    EXPECT_EQ(other_runs.load(), 3u);
    EXPECT_EQ(fileLines(path).size(), 4u); // header + other's 3
    std::remove(path.c_str());
}

TEST(Journal, DuplicateJobTuplesShareOneRecordAndConverge)
{
    const std::string path = tempPath("duptuple");
    std::atomic<unsigned> runs{0};
    std::vector<SweepJob> jobs = countedJobs(runs, 2);
    jobs.push_back(jobs[0]); // identical tuple, identical result

    {
        SweepJournal journal = SweepJournal::create(path);
        runSweep(jobs, journal, 1);
    }
    // One record per unique tuple: header + 2, not header + 3.
    EXPECT_EQ(fileLines(path).size(), 3u);

    // Resume converges: every index (the duplicate included) is
    // done, nothing re-runs, and no spurious corruption warning.
    runs = 0;
    SweepJournal journal = SweepJournal::resume(path);
    const std::vector<RunResult> results =
        runSweep(jobs, journal, 1);
    EXPECT_EQ(runs.load(), 0u);
    EXPECT_EQ(journal.doneCount(), 3u);
    EXPECT_TRUE(journal.warnings().empty());
    expectSameStats(results[2].sim, results[0].sim);
    std::remove(path.c_str());
}

TEST(JournalSalvage, CorruptedSuiteLabelRejectsTheRecord)
{
    std::vector<std::string> warnings;
    const unsigned reran = corruptAndResume(
        tempPath("suite"), warnings, [](const std::string &path) {
            // Flip record 1's suite to another valid suite name:
            // still well-formed, but it disagrees with the job the
            // fingerprint names, so merging it would move the run
            // into the wrong reductions group.
            std::vector<std::string> lines = fileLines(path);
            const std::string from =
                std::string("\"suite\":\"") +
                suiteName(Suite::Media) + '"';
            const std::size_t at = lines[1].find(from);
            ASSERT_NE(at, std::string::npos);
            lines[1].replace(at, from.size(),
                             std::string("\"suite\":\"") +
                             suiteName(Suite::Int) + '"');
            std::string text;
            for (const std::string &line : lines)
                text += line + '\n';
            writeFile(path, text);
        });
    EXPECT_EQ(reran, 1u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("disagree"), std::string::npos);
}

TEST(JournalSalvage, ExistingEmptyFileWarnsAndStartsFresh)
{
    const std::string path = tempPath("empty");
    writeFile(path, "");
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 2);

    SweepJournal journal = SweepJournal::resume(path);
    runSweep(jobs, journal, 1);
    EXPECT_EQ(runs.load(), 2u);
    EXPECT_EQ(journal.doneCount(), 0u);
    ASSERT_EQ(journal.warnings().size(), 1u);
    EXPECT_NE(journal.warnings()[0].find("empty"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, ConcurrentBindOfOneJournalIsRefused)
{
    const std::string path = tempPath("locked");
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 2);

    SweepJournal first = SweepJournal::create(path);
    first.bind(jobs);
    // A second resume while the first is live would race the
    // compaction rename and silently lose records: refused.
    SweepJournal second = SweepJournal::resume(path);
    EXPECT_THROW(second.bind(jobs), JournalError);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(Journal, EmptyJobListStillBindsAndRoundTrips)
{
    const std::string path = tempPath("emptyjobs");
    const std::vector<SweepJob> none;
    {
        SweepJournal journal = SweepJournal::create(path);
        EXPECT_TRUE(runSweep(none, journal, 1).empty());
    }
    // The journal exists with a verifiable (empty-spec) header...
    EXPECT_EQ(fileLines(path).size(), 1u);
    // ...that a matching resume accepts without warnings.
    SweepJournal journal = SweepJournal::resume(path);
    runSweep(none, journal, 1);
    EXPECT_TRUE(journal.warnings().empty());
    EXPECT_EQ(journal.doneCount(), 0u);
    std::remove(path.c_str());
}

TEST(Journal, RecordIgnoresInvalidResults)
{
    const std::string path = tempPath("invalid");
    std::atomic<unsigned> runs{0};
    const std::vector<SweepJob> jobs = countedJobs(runs, 2);
    SweepJournal journal = SweepJournal::create(path);
    journal.bind(jobs);
    RunResult failed;
    failed.benchmark = "job0";
    failed.config = "cfg";
    failed.valid = false;
    journal.record(0, failed);
    EXPECT_EQ(fileLines(path).size(), 1u); // header only
    std::remove(path.c_str());
}

// --- record round trip -----------------------------------------------------

/** A run whose every stored row of @p sections holds a distinct
 * nonzero value (non-integral for the real rows). */
RunResult
everyStatRun(std::initializer_list<StatSection> sections)
{
    RunResult run;
    run.benchmark = "gcc";
    run.suite = Suite::Int;
    run.config = "nosq/w128";
    std::uint64_t salt = 100;
    for (const StatSection section : sections) {
        if (const auto flag = statSectionFlag(section))
            run.sim.*flag = true;
        for (const StatRow<SimResult> &row : sim_stat_rows) {
            if (row.section != section || row.key == nullptr)
                continue;
            if (row.counter != nullptr)
                run.sim.*row.counter = salt++;
            else if (row.real != nullptr)
                run.sim.*row.real = 1.0 / 3.0 + salt++;
        }
    }
    if (run.sim.multicore) {
        run.sim.numCores = 3;
        run.sim.perCore.resize(3);
        for (SimResult::PerCore &core : run.sim.perCore)
            for (const auto &row : per_core_stat_rows)
                core.*row.counter = salt++;
    }
    return run;
}

TEST(JournalRecord, RoundTripCoversEveryStat)
{
    // The result-side twin of the job wire round trip: a row the
    // record dropped, misnamed or mistyped breaks one of the checks.
    const std::pair<const char *, RunResult> runs[] = {
        {"base", everyStatRun({StatSection::Base})},
        {"sampled",
         everyStatRun({StatSection::Base, StatSection::Sampled})},
        {"multicore",
         everyStatRun({StatSection::Base, StatSection::Multicore})},
    };
    for (const auto &[what, run] : runs) {
        SCOPED_TRACE(what);
        const std::string record = runResultRecord(run);
        JsonValue doc;
        ASSERT_TRUE(parseJson(record, doc, nullptr));
        RunResult loaded;
        ASSERT_TRUE(runResultFromJson(doc, loaded));
        EXPECT_EQ(loaded.benchmark, run.benchmark);
        EXPECT_EQ(loaded.suite, run.suite);
        EXPECT_EQ(loaded.config, run.config);
        EXPECT_EQ(loaded.sim.sampled, run.sim.sampled);
        EXPECT_EQ(loaded.sim.multicore, run.sim.multicore);
        for (const StatRow<SimResult> &row : sim_stat_rows) {
            if (row.key == nullptr)
                continue;
            EXPECT_EQ(row.valueOf(loaded.sim), row.valueOf(run.sim))
                << row.key;
        }
        ASSERT_EQ(loaded.sim.perCore.size(), run.sim.perCore.size());
        for (std::size_t i = 0; i < run.sim.perCore.size(); ++i)
            for (const auto &row : per_core_stat_rows)
                EXPECT_EQ(loaded.sim.perCore[i].*row.counter,
                          run.sim.perCore[i].*row.counter)
                    << "core" << i << "_" << row.key;

        EXPECT_EQ(runResultRecord(loaded), record);

        JsonValue report;
        ASSERT_TRUE(parseJson(sweepReportJson({run}, test_insts),
                              report, nullptr));
        std::string error;
        EXPECT_TRUE(validateSweepReport(report, &error)) << error;
    }
}

} // anonymous namespace
} // namespace nosq
