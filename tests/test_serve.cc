/**
 * @file
 * Unit tests for the serving layer's process plumbing: the
 * persistent fingerprint -> result store behind both the daemon and
 * sweep checkpoints (round trip, salvage of every corruption class,
 * duplicate and invalid-result policy, legacy journal files, compact
 * records), and the socketpair hand-off with a forked worker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/job_store.hh"
#include "serve/protocol.hh"
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
// A forked workerMain on a real socketpair. These tests assert
// outcomes only: a lost frame or a missed EOF leaves a read() or
// waitpid() below blocked forever, and the ctest timeout reports it.

struct ForkedWorker
{
    int fd = -1; ///< the daemon's end
    pid_t pid = -1;
};

/** Fork a worker the way the daemon does, keeping the daemon's end
 * of its socketpair. */
void
startWorker(ForkedWorker &w)
{
    int ends[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
    w.pid = fork();
    ASSERT_GE(w.pid, 0);
    if (w.pid == 0) {
        close(ends[0]);
        _exit(workerMain(ends[1]));
    }
    close(ends[1]);
    w.fd = ends[0];
}

/** Block until one whole frame arrives on @p fd; "" on EOF. */
std::string
readFrame(int fd)
{
    std::string frame;
    char c;
    for (;;) {
        const ssize_t got = read(fd, &c, 1);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return "";
        frame += c;
        if (c == '\n')
            return frame;
    }
}

/** Close the daemon's end and reap the worker.
 * @return its wait status */
int
stopWorker(ForkedWorker &w)
{
    close(w.fd);
    int status = 0;
    while (waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
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

/** Send @p job to @p w and check the result frame. */
void
roundTrip(ForkedWorker &w, const SweepJob &job)
{
    const std::string frame = workerJobLine(job);
    ASSERT_EQ(write(w.fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    const std::string line = readFrame(w.fd);
    ASSERT_FALSE(line.empty()) << "worker closed its end";
    JobResult result;
    std::string error;
    ASSERT_TRUE(parseJobResultLine(line, result, error)) << error;
    EXPECT_FALSE(result.index.has_value());
    EXPECT_EQ(result.fp, jobFingerprint(job));
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_EQ(runResultRecord(result.run),
              runResultRecord(runSweepJob(job)));
}

TEST(WorkerSocket, JobWrittenToTheSocketYieldsItsResultLine)
{
    ForkedWorker w;
    startWorker(w);
    roundTrip(w, smallJob());

    const int status = stopWorker(w);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(WorkerSocket, FaultInTheJobFrameIsActedOut)
{
    ForkedWorker w;
    startWorker(w);
    const SweepJob job = smallJob();
    const std::string frame = workerJobLine(job, FaultAction::Fail);
    ASSERT_EQ(write(w.fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    JobResult result;
    std::string error;
    ASSERT_TRUE(parseJobResultLine(readFrame(w.fd), result, error))
        << error;
    EXPECT_EQ(result.fp, jobFingerprint(job));
    EXPECT_EQ(result.error, "injected fault: worker.job fail");

    const int status = stopWorker(w);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(WorkerSocket, ClosingTheDaemonEndEndsAnIdleWorkerCleanly)
{
    ForkedWorker w;
    startWorker(w);
    // A finished round trip leaves the worker idle, blocked in read().
    roundTrip(w, smallJob());

    const int status = stopWorker(w);
    // Exited on its own (a SIGKILL would show as WIFSIGNALED).
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

// --- a real daemon ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

/** A nosq_sweepd child on its own socket and store; SIGKILLed at
 * scope exit unless stop() has reaped it. */
struct DaemonProcess
{
    std::string socket;
    pid_t pid = -1;

    DaemonProcess() = default;
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;
    ~DaemonProcess()
    {
        if (pid > 0) {
            kill(pid, SIGKILL);
            waitpid(pid, nullptr, 0);
        }
    }

    /** SIGTERM, then wait up to @p seconds for the drain.
     * @return the wait status, or -1 if it did not exit in time */
    int
    stop(int seconds)
    {
        kill(pid, SIGTERM);
        const Clock::time_point deadline =
            Clock::now() + std::chrono::seconds(seconds);
        int status = 0;
        while (Clock::now() < deadline) {
            if (waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                return status;
            }
            usleep(20000);
        }
        return -1;
    }
};

void
startDaemon(DaemonProcess &d, const std::string &name)
{
    const std::string base = testing::TempDir() + "nosq_" + name + "_" +
                             std::to_string(getpid());
    d.socket = base + ".sock";
    const std::string store = base + ".jsonl";
    const std::string log = base + ".log";
    std::remove(d.socket.c_str());
    std::remove(store.c_str());
    d.pid = fork();
    ASSERT_GE(d.pid, 0);
    if (d.pid == 0) {
        execl(NOSQ_SWEEPD_PATH, NOSQ_SWEEPD_PATH, "--socket",
              d.socket.c_str(), "--store", store.c_str(), "--workers",
              "1", "--log", log.c_str(), static_cast<char *>(nullptr));
        _exit(127);
    }
}

/** Connect to @p d, retrying while it starts up; -1 after 10 s. */
int
connectDaemon(const DaemonProcess &d)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, d.socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    for (int i = 0; i < 200; ++i) {
        const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
        if (connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                    sizeof(addr)) == 0)
            return fd;
        close(fd);
        usleep(50000);
    }
    return -1;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = send(fd, data.data() + sent,
                               data.size() - sent, MSG_NOSIGNAL);
        if (n > 0)
            sent += static_cast<std::size_t>(n);
        else if (n == 0 || errno != EINTR)
            return false;
    }
    return true;
}

/** Read from @p fd until a whole line containing @p marker has
 * arrived. @return everything read, or "" at EOF or @p deadline */
std::string
readUntil(int fd, const std::string &marker, Clock::time_point deadline)
{
    std::string got;
    for (;;) {
        const std::size_t at = got.find(marker);
        if (at != std::string::npos &&
            got.find('\n', at) != std::string::npos)
            return got;
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        if (left <= 0)
            return "";
        struct pollfd pfd = {fd, POLLIN, 0};
        const int ready = poll(&pfd, 1, static_cast<int>(left));
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            return "";
        char buffer[1 << 16];
        const ssize_t n = read(fd, buffer, sizeof(buffer));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return "";
        got.append(buffer, static_cast<std::size_t>(n));
    }
}

TEST(ServeDaemon, OversizedLabelIsServedNotStranded)
{
    // A 1.5 MiB config label: admitted under the 16 MiB request cap,
    // so its job and result frames must reach the worker and back
    // whatever their size.
    SweepJob job = smallJob();
    job.config = std::string(3u << 19, 'x');
    std::string error;
    const std::string submit = submitRequestLine({job}, &error);
    ASSERT_FALSE(submit.empty()) << error;

    DaemonProcess daemon;
    startDaemon(daemon, "big_label");
    const int fd = connectDaemon(daemon);
    ASSERT_GE(fd, 0) << "nosq_sweepd never accepted on "
                     << daemon.socket;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(60);
    ASSERT_TRUE(sendAll(fd, submit));
    const std::string replies = readUntil(fd, "\"done\":true", deadline);
    ASSERT_FALSE(replies.empty()) << "no done line within 60 s";
    EXPECT_NE(replies.find("\"run\":"), std::string::npos);
    EXPECT_EQ(replies.find("\"error\":"), std::string::npos);

    ASSERT_TRUE(sendAll(fd, statusRequestLine()));
    const std::string status = readUntil(fd, "\"executed\":", deadline);
    EXPECT_NE(status.find("\"executed\":1,"), std::string::npos)
        << status;
    close(fd);

    const int exit_status = daemon.stop(30);
    ASSERT_NE(exit_status, -1) << "the drain did not finish";
    EXPECT_TRUE(WIFEXITED(exit_status));
    EXPECT_EQ(WEXITSTATUS(exit_status), 0);
}

TEST(ServeDaemon, OverCapRequestLineIsAnsweredAndClosed)
{
    DaemonProcess daemon;
    startDaemon(daemon, "over_cap");
    const int fd = connectDaemon(daemon);
    ASSERT_GE(fd, 0) << "nosq_sweepd never accepted on "
                     << daemon.socket;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(60);
    // One byte over the cap and no newline: nothing to resync on.
    ASSERT_TRUE(sendAll(fd, std::string(max_request_bytes + 1, 'x')));
    EXPECT_EQ(readUntil(fd, "\"ok\":false", deadline),
              "{\"ok\":false,\"error\":\"request line exceeds "
              "16777216 bytes\"}\n");
    // Then the daemon hangs up.
    struct pollfd pfd = {fd, POLLIN, 0};
    ASSERT_EQ(poll(&pfd, 1, 30000), 1) << "the connection stayed open";
    char c;
    EXPECT_EQ(read(fd, &c, 1), 0);
    close(fd);

    const int exit_status = daemon.stop(30);
    ASSERT_NE(exit_status, -1) << "the drain did not finish";
    EXPECT_TRUE(WIFEXITED(exit_status));
    EXPECT_EQ(WEXITSTATUS(exit_status), 0);
}

} // namespace
} // namespace serve
} // namespace nosq
