/**
 * @file
 * Unit tests for the serving layer's process plumbing: the SPSC
 * shared-memory ring (wrap-around correctness, full-ring refusal,
 * cross-thread ordering), the persistent fingerprint -> result
 * store behind both the daemon and sweep checkpoints (round trip,
 * salvage of every corruption class, duplicate and invalid-result
 * policy, legacy journal files, compact records), and the wake-pipe
 * hand-off with a forked worker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/job_store.hh"
#include "serve/protocol.hh"
#include "serve/spsc_ring.hh"
#include "serve/worker.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace serve {
namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "nosq_serve_" + name + ".jsonl";
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

RunResult
sampleRun(unsigned i)
{
    RunResult run;
    run.benchmark = "bench" + std::to_string(i);
    run.suite = i % 2 ? Suite::Int : Suite::Media;
    run.config = "cfg";
    run.sim.cycles = 1000 + i;
    run.sim.insts = 100 + i;
    run.sim.loads = 10 + i;
    run.sim.stores = 5 + i;
    return run;
}

std::string
fpOf(unsigned i)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016x", i + 1);
    return buf;
}

// --- SpscRing ---------------------------------------------------------------

TEST(SpscRing, PushPopRoundTrip)
{
    WorkerChannel *ch = mapWorkerChannel();
    ASSERT_NE(ch, nullptr);

    EXPECT_TRUE(ch->jobs.empty());
    std::string out;
    EXPECT_FALSE(ch->jobs.tryPop(out));

    EXPECT_TRUE(ch->jobs.tryPush("hello"));
    EXPECT_TRUE(ch->jobs.tryPush(std::string())); // empty message
    EXPECT_TRUE(ch->jobs.tryPush(std::string(1000, 'x')));
    EXPECT_FALSE(ch->jobs.empty());

    ASSERT_TRUE(ch->jobs.tryPop(out));
    EXPECT_EQ(out, "hello");
    ASSERT_TRUE(ch->jobs.tryPop(out));
    EXPECT_EQ(out, "");
    ASSERT_TRUE(ch->jobs.tryPop(out));
    EXPECT_EQ(out, std::string(1000, 'x'));
    EXPECT_TRUE(ch->jobs.empty());

    unmapWorkerChannel(ch);
}

TEST(SpscRing, RefusesWhatDoesNotFit)
{
    WorkerChannel *ch = mapWorkerChannel();
    ASSERT_NE(ch, nullptr);
    SpscRing &ring = ch->results;

    // A message larger than the whole ring can never be accepted.
    EXPECT_FALSE(ring.tryPush(std::string(SpscRing::capacity, 'x')));
    EXPECT_TRUE(ring.empty());

    // Fill until refusal, then drain one and the refused push fits.
    const std::string chunk(4092, 'y'); // 4096 with header
    std::size_t pushed = 0;
    while (ring.tryPush(chunk))
        ++pushed;
    EXPECT_EQ(pushed, SpscRing::capacity / 4096);
    EXPECT_FALSE(ring.tryPush(chunk));

    std::string out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, chunk);
    EXPECT_TRUE(ring.tryPush(chunk));

    // Drain everything back out intact.
    std::size_t popped = 0;
    while (ring.tryPop(out)) {
        EXPECT_EQ(out, chunk);
        ++popped;
    }
    EXPECT_EQ(popped, pushed);

    unmapWorkerChannel(ch);
}

TEST(SpscRing, MessagesStraddleTheWrapPoint)
{
    WorkerChannel *ch = mapWorkerChannel();
    ASSERT_NE(ch, nullptr);
    SpscRing &ring = ch->jobs;

    // Interleave push/pop with a size that does not divide the
    // capacity, forcing many copies across the wrap boundary.
    std::string out;
    for (unsigned i = 0; i < 3000; ++i) {
        std::string msg(997, static_cast<char>('a' + i % 26));
        msg += std::to_string(i);
        ASSERT_TRUE(ring.tryPush(msg)) << i;
        ASSERT_TRUE(ring.tryPop(out)) << i;
        EXPECT_EQ(out, msg) << i;
    }
    EXPECT_TRUE(ring.empty());

    unmapWorkerChannel(ch);
}

TEST(SpscRing, ThreadedProducerConsumerPreservesOrder)
{
    WorkerChannel *ch = mapWorkerChannel();
    ASSERT_NE(ch, nullptr);
    SpscRing &ring = ch->jobs;
    constexpr unsigned count = 20000;

    std::thread producer([&ring] {
        for (unsigned i = 0; i < count; ++i) {
            const std::string msg =
                "m" + std::to_string(i) +
                std::string(i % 200, '.');
            while (!ring.tryPush(msg))
                std::this_thread::yield();
        }
    });

    unsigned seen = 0;
    std::string out;
    while (seen < count) {
        if (!ring.tryPop(out)) {
            std::this_thread::yield();
            continue;
        }
        const std::string want =
            "m" + std::to_string(seen) +
            std::string(seen % 200, '.');
        ASSERT_EQ(out, want) << "at message " << seen;
        ++seen;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());

    unmapWorkerChannel(ch);
}

// --- JobStore ---------------------------------------------------------------

TEST(JobStore, PersistsAcrossReopen)
{
    const std::string path = tempPath("roundtrip");
    std::remove(path.c_str());

    {
        JobStore store;
        std::string error;
        ASSERT_TRUE(store.open(path, error)) << error;
        EXPECT_EQ(store.size(), 0u);
        for (unsigned i = 0; i < 4; ++i)
            store.put(fpOf(i), sampleRun(i));
        EXPECT_EQ(store.size(), 4u);
    }
    {
        JobStore store;
        std::string error;
        ASSERT_TRUE(store.open(path, error)) << error;
        EXPECT_TRUE(store.warnings().empty());
        ASSERT_EQ(store.size(), 4u);
        for (unsigned i = 0; i < 4; ++i) {
            ASSERT_TRUE(store.has(fpOf(i))) << i;
            // Bit-identity witness: the journal line form.
            EXPECT_EQ(runResultJsonLine(store.get(fpOf(i))),
                      runResultJsonLine(sampleRun(i)))
                << i;
        }
        EXPECT_FALSE(store.has("ffffffffffffffff"));
    }
    std::remove(path.c_str());
}

TEST(JobStore, DuplicateAndInvalidPutsIgnored)
{
    const std::string path = tempPath("dups");
    std::remove(path.c_str());

    JobStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, error)) << error;

    store.put(fpOf(0), sampleRun(0));
    // Duplicate fingerprint: first record wins (determinism says
    // they would be identical anyway).
    store.put(fpOf(0), sampleRun(9));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(runResultJsonLine(store.get(fpOf(0))),
              runResultJsonLine(sampleRun(0)));

    // Invalid (failed-job) results are never persisted or cached:
    // a failed job must re-run.
    RunResult failed = sampleRun(1);
    failed.valid = false;
    store.put(fpOf(1), failed);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_FALSE(store.has(fpOf(1)));

    std::remove(path.c_str());
}

TEST(JobStore, SalvagesTornTailAndBadRecords)
{
    const std::string path = tempPath("salvage");
    std::remove(path.c_str());

    std::string contents;
    {
        JobStore store;
        std::string error;
        ASSERT_TRUE(store.open(path, error)) << error;
        for (unsigned i = 0; i < 3; ++i)
            store.put(fpOf(i), sampleRun(i));
        contents = readFile(path);
    }
    ASSERT_FALSE(contents.empty());

    // Inject a garbage record mid-file and tear the final line as a
    // SIGKILL mid-append would.
    const std::size_t second_line = contents.find('\n') + 1;
    std::string corrupted = contents.substr(0, second_line);
    corrupted += "{\"fp\":\"zz\",\"run\":{\"oops\":true}}\n";
    corrupted += "not json at all\n";
    corrupted += contents.substr(second_line);
    corrupted.resize(corrupted.size() - 10); // torn tail

    writeFile(path, corrupted);

    JobStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, error)) << error;
    EXPECT_FALSE(store.warnings().empty());
    // Records 0 and 1 survive; 2 lost its tail, garbage skipped.
    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.has(fpOf(0)));
    EXPECT_TRUE(store.has(fpOf(1)));
    EXPECT_FALSE(store.has(fpOf(2)));

    // open() compacted: the file is now clean (header + 2 records)
    // and a fresh open salvages nothing.
    JobStore again;
    ASSERT_TRUE(again.open(path, error)) << error;
    EXPECT_TRUE(again.warnings().empty());
    EXPECT_EQ(again.size(), 2u);

    std::remove(path.c_str());
}

TEST(JobStore, WrongSchemaHeaderStartsFresh)
{
    const std::string path = tempPath("schema");
    writeFile(path, "{\"schema\":\"nosq-store-v9\"}\n"
                    "{\"fp\":\"aa\",\"run\":{}}\n");

    const std::string original = readFile(path);

    JobStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, error)) << error;
    EXPECT_EQ(store.size(), 0u);
    ASSERT_EQ(store.warnings().size(), 2u);
    EXPECT_NE(store.warnings()[0].find("schema"), std::string::npos);
    EXPECT_NE(store.warnings()[1].find("manual recovery"),
              std::string::npos);
    // The unreadable file is kept aside byte for byte, never
    // destroyed by the compaction.
    EXPECT_EQ(readFile(path + ".corrupt"), original);

    // The fresh store is immediately usable.
    store.put(fpOf(0), sampleRun(0));
    EXPECT_EQ(store.size(), 1u);

    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
}

/** A store at @p path holding sampleRun(0..n-1); returns its lines. */
std::vector<std::string>
storeLines(const std::string &path, unsigned n)
{
    std::remove(path.c_str());
    {
        JobStore store;
        std::string error;
        EXPECT_TRUE(store.open(path, error)) << error;
        for (unsigned i = 0; i < n; ++i)
            store.put(fpOf(i), sampleRun(i));
    }
    std::vector<std::string> lines;
    std::istringstream in(readFile(path));
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    EXPECT_EQ(lines.size(), n + 1);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line + '\n';
    return text;
}

TEST(JobStore, TornFinalLineLosesOnlyThatRecord)
{
    const std::string path = tempPath("torn");
    const std::string text = joinLines(storeLines(path, 3));
    // A SIGKILL mid-append leaves the last record cut mid-JSON.
    writeFile(path, text.substr(0, text.size() - 20));

    JobStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, error)) << error;
    ASSERT_EQ(store.warnings().size(), 1u);
    EXPECT_NE(store.warnings()[0].find("torn"), std::string::npos);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_FALSE(store.has(fpOf(2)));
    std::remove(path.c_str());
}

TEST(JobStore, NonIntegralCounterSkipsOnlyThatRecord)
{
    const std::string path = tempPath("counter");
    std::vector<std::string> lines = storeLines(path, 3);
    // Still valid JSON, but no real counter: the record is skipped
    // (never undefined-cast) and later records still load.
    const std::string key = "\"cycles\":";
    const std::size_t at = lines[1].find(key);
    ASSERT_NE(at, std::string::npos);
    lines[1].insert(at + key.size(), "-");
    writeFile(path, joinLines(lines));

    JobStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, error)) << error;
    ASSERT_EQ(store.warnings().size(), 1u);
    EXPECT_NE(store.warnings()[0].find("invalid record"),
              std::string::npos);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.has(fpOf(2)));
    std::remove(path.c_str());
}

TEST(JobStore, DuplicateFingerprintKeepsFirstRecord)
{
    const std::string path = tempPath("dupfp");
    std::vector<std::string> lines = storeLines(path, 2);
    // A second record under fpOf(0) carrying fpOf(1)'s result.
    std::string dup = lines[2];
    dup.replace(dup.find(fpOf(1)), fpOf(1).size(), fpOf(0));
    lines.push_back(dup);
    writeFile(path, joinLines(lines));

    JobStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, error)) << error;
    ASSERT_EQ(store.warnings().size(), 1u);
    EXPECT_NE(store.warnings()[0].find("duplicate"), std::string::npos);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(runResultJsonLine(store.get(fpOf(0))),
              runResultJsonLine(sampleRun(0)));
    std::remove(path.c_str());
}

TEST(JobStore, LegacyJournalFileIsSetAsideAndReRun)
{
    // A checkpoint written before the journal became a store view:
    // its own header, spaced records of the same shape. A store is a
    // re-computable cache, so the old header takes the unreadable-
    // file path: kept aside byte for byte, its jobs run again.
    const std::string path = tempPath("legacy");
    std::string text = "{\"schema\": \"nosq-journal-v1\", \"spec\": "
                       "\"0123456789abcdef\", \"jobs\": 3}\n";
    for (unsigned i = 0; i < 3; ++i)
        text += "{\"fp\": \"" + fpOf(i) + "\", \"run\": " +
                runResultJsonLine(sampleRun(i)) + "}\n";
    writeFile(path, text);

    JobStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, error)) << error;
    EXPECT_EQ(store.size(), 0u);
    ASSERT_EQ(store.warnings().size(), 2u);
    EXPECT_NE(store.warnings()[0].find("schema"), std::string::npos);
    EXPECT_NE(store.warnings()[1].find(".corrupt"), std::string::npos);
    EXPECT_EQ(readFile(path + ".corrupt"), text);
    EXPECT_EQ(readFile(path), "{\"schema\":\"nosq-store-v1\"}\n");
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
}

TEST(JobStore, RecordsAreCompactAndLabelsKeepTheirSpaces)
{
    RunResult run = sampleRun(3);
    run.benchmark = "a bench \"quoted\" \\ name";
    run.config = "nosq  two spaces";
    const std::string record = runResultRecord(run);
    // The only spaces left are the labels' own.
    EXPECT_EQ(std::count(record.begin(), record.end(), ' '),
              std::count(run.benchmark.begin(), run.benchmark.end(),
                         ' ') +
                  std::count(run.config.begin(), run.config.end(),
                             ' '));
    EXPECT_EQ(record.find('\n'), std::string::npos);
    EXPECT_LT(record.size(), runResultJsonLine(run).size());

    JsonValue v;
    ASSERT_TRUE(parseJson(record, v, nullptr));
    RunResult back;
    ASSERT_TRUE(runResultFromJson(v, back));
    EXPECT_EQ(back.benchmark, run.benchmark);
    EXPECT_EQ(back.config, run.config);
    EXPECT_EQ(runResultJsonLine(back), runResultJsonLine(run));

    // Through a store file and back.
    const std::string path = tempPath("spaced_labels");
    std::remove(path.c_str());
    {
        JobStore store;
        std::string error;
        ASSERT_TRUE(store.open(path, error)) << error;
        store.put(fpOf(0), run);
    }
    EXPECT_EQ(readFile(path), "{\"schema\":\"nosq-store-v1\"}\n"
                              "{\"fp\":\"" + fpOf(0) +
                                  "\",\"run\":" + record + "}\n");
    JobStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, error)) << error;
    ASSERT_TRUE(store.has(fpOf(0)));
    EXPECT_EQ(runResultJsonLine(store.get(fpOf(0))),
              runResultJsonLine(run));
    std::remove(path.c_str());
}

TEST(JobStore, SpacedRecordsOfOlderStoresStillLoad)
{
    // Stores written before records were compacted carry the
    // emitter's spacing inside every "run".
    const std::string path = tempPath("spaced");
    std::string text = "{\"schema\":\"nosq-store-v1\"}\n";
    for (unsigned i = 0; i < 3; ++i)
        text += "{\"fp\":\"" + fpOf(i) + "\",\"run\":" +
                runResultJsonLine(sampleRun(i)) + "}\n";
    ASSERT_NE(text.find("\"cycles\": "), std::string::npos);
    writeFile(path, text);

    JobStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, error)) << error;
    EXPECT_TRUE(store.warnings().empty());
    ASSERT_EQ(store.size(), 3u);
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_EQ(runResultJsonLine(store.get(fpOf(i))),
                  runResultJsonLine(sampleRun(i)))
            << i;
    // The load-time compaction rewrote them compact.
    const std::string rewritten = readFile(path);
    EXPECT_LT(rewritten.size(), text.size());
    EXPECT_EQ(rewritten.find("\"cycles\": "), std::string::npos);
    std::remove(path.c_str());
}

TEST(JobStore, UnusablePathFails)
{
    JobStore store;
    std::string error;
    EXPECT_FALSE(
        store.open("/no/such/directory/store.jsonl", error));
    EXPECT_FALSE(error.empty());
}

// --- worker wake pipes ------------------------------------------------------
//
// A forked workerMain on a real channel. These tests assert outcomes
// only: a lost wake leaves a poll() or waitpid() below blocked
// forever, and the ctest timeout reports it.

struct ForkedWorker
{
    WorkerChannel *channel = nullptr;
    int job_wake[2] = {-1, -1};
    int result_wake[2] = {-1, -1};
    pid_t pid = -1;
};

/** Fork a worker the way the daemon does, keeping the daemon's
 * ends of both wake pipes. */
void
startWorker(ForkedWorker &w)
{
    w.channel = mapWorkerChannel();
    ASSERT_NE(w.channel, nullptr);
    ASSERT_TRUE(openWakePipe(w.job_wake));
    ASSERT_TRUE(openWakePipe(w.result_wake));
    w.pid = fork();
    ASSERT_GE(w.pid, 0);
    if (w.pid == 0) {
        close(w.job_wake[1]);
        close(w.result_wake[0]);
        _exit(workerMain(w.channel, w.job_wake[0], w.result_wake[1]));
    }
    close(w.job_wake[0]);
    close(w.result_wake[1]);
}

/** Set stop, ring the job wake, and reap the worker.
 * @return its wait status */
int
stopWorker(ForkedWorker &w)
{
    w.channel->stop.store(true, std::memory_order_release);
    postWake(w.job_wake[1]);
    int status = 0;
    while (waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    close(w.job_wake[1]);
    close(w.result_wake[0]);
    unmapWorkerChannel(w.channel);
    return status;
}

SweepJob
smallJob()
{
    SweepJob job;
    job.profile = findProfile("gcc");
    job.config = "nosq/w128";
    job.insts = 2000;
    return job;
}

TEST(WorkerWake, PushedJobRingsTheResultWake)
{
    ForkedWorker w;
    startWorker(w);
    const SweepJob job = smallJob();
    ASSERT_TRUE(w.channel->jobs.tryPush(workerJobLine(7, job)));
    postWake(w.job_wake[1]);

    // No timeout: only the worker's result wake ends this wait.
    struct pollfd pfd = {w.result_wake[0], POLLIN, 0};
    int ready;
    while ((ready = poll(&pfd, 1, -1)) < 0 && errno == EINTR) {
    }
    ASSERT_EQ(ready, 1);
    // The wake is posted after the push: the result is already in
    // the ring.
    std::string line;
    ASSERT_TRUE(w.channel->results.tryPop(line));
    WorkerResult result;
    std::string error;
    ASSERT_TRUE(parseWorkerResultLine(line, result, error)) << error;
    EXPECT_EQ(result.id, 7u);
    EXPECT_EQ(result.fp, jobFingerprint(job));
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_EQ(runResultJsonLine(result.run),
              runResultJsonLine(runSweepJob(job)));

    const int status = stopWorker(w);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(WorkerWake, StopWakeEndsAnIdleWorkerCleanly)
{
    ForkedWorker w;
    startWorker(w);
    // Two heartbeats mean the worker has been through its idle wait
    // at least once and is blocked in it again.
    while (w.channel->heartbeat.load(std::memory_order_relaxed) < 2)
        std::this_thread::yield();

    const int status = stopWorker(w);
    // Exited on its own (a SIGKILL would show as WIFSIGNALED).
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

} // namespace
} // namespace serve
} // namespace nosq
