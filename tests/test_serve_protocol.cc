/**
 * @file
 * Tests for the nosq-serve-v1 wire protocol (src/serve/protocol.hh):
 * job wire-form round trips preserve the journal fingerprint, the
 * strict parser rejects every malformed-field class with a clean
 * error, request/reply/worker-frame builders and parsers agree, and
 * a deterministic truncation/mutation fuzz pass over real request
 * lines never crashes or accepts garbage silently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "serve/protocol.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace serve {
namespace {

/** A representative profile job (the common sweep case). */
SweepJob
profileJob()
{
    SweepJob job;
    job.profile = findProfile("gcc");
    EXPECT_NE(job.profile, nullptr);
    job.config = "nosq/w128";
    job.seed = 7;
    job.insts = 20000;
    job.warmup = 5000;
    return job;
}

/** A multicore kernel job (profile == nullptr, named workload). */
SweepJob
kernelJob()
{
    SweepJob job;
    job.benchmark = "spsc-ring";
    job.suite = Suite::Int;
    job.config = "nosq/c2-d8";
    job.cores = 2;
    job.queueDepth = 8;
    job.seed = 3;
    job.insts = 30000;
    job.warmup = 10000;
    return job;
}

/** A memsys-labeled job with a tweaked hierarchy. */
SweepJob
memsysJob()
{
    SweepJob job = profileJob();
    job.config = "nosq/l2-1M-lat10-mshr8";
    job.memsysLabel = "l2-1M-lat10-mshr8";
    job.params.memsys.l2.sizeBytes = 1u << 20;
    job.params.memsys.mshrs = 8;
    return job;
}

/** A sampled-simulation job (SMARTS schedule in the tuple). */
SweepJob
sampledJob()
{
    SweepJob job = profileJob();
    job.sampling.enabled = true;
    job.sampling.ffLength = 50000;
    job.sampling.warmupLength = 2000;
    job.sampling.interval = 1000;
    job.sampling.intervals = 4;
    job.sampling.seed = 11;
    return job;
}

/** Serialize, reparse, rebuild; the fingerprint must survive. */
void
expectWireRoundTrip(const SweepJob &job, const char *what)
{
    std::string error;
    const std::string wire = jobToWire(job, &error);
    ASSERT_FALSE(wire.empty()) << what << ": " << error;

    JsonValue doc;
    ASSERT_TRUE(parseJson(wire, doc, &error)) << what << ": " << error;

    SweepJob rebuilt;
    ASSERT_TRUE(jobFromWire(doc, rebuilt, error)) << what << ": "
                                                  << error;
    EXPECT_EQ(jobFingerprint(job), jobFingerprint(rebuilt)) << what;
    EXPECT_EQ(job.config, rebuilt.config) << what;
    EXPECT_EQ(job.memsysLabel, rebuilt.memsysLabel) << what;
}

TEST(ServeProtocol, JobWireRoundTripPreservesFingerprint)
{
    expectWireRoundTrip(profileJob(), "profile job");
    expectWireRoundTrip(kernelJob(), "kernel job");
    expectWireRoundTrip(memsysJob(), "memsys job");
    expectWireRoundTrip(sampledJob(), "sampled job");
}

TEST(ServeProtocol, JobWireRoundTripCoversEveryParamsField)
{
    // Perturb every enumerated UarchParams field away from its
    // default; any field the wire form dropped or misnamed would
    // break the fingerprint match.
    SweepJob job = profileJob();
    std::uint64_t salt = 1;
    forEachUarchField(job.params, [&salt](const char *,
                                          auto &field) {
        using FieldT = std::remove_reference_t<decltype(field)>;
        field = static_cast<FieldT>(
            static_cast<std::uint64_t>(field) + (salt++ % 2));
    });
    job.params.mode = LsuMode::Nosq; // keep the enum in range
    expectWireRoundTrip(job, "perturbed params");
}

TEST(ServeProtocol, CustomRunnerJobsRejectedAtSerialization)
{
    SweepJob job = profileJob();
    job.runner = [](const SweepJob &) { return SimResult(); };
    job.runnerTag = "study";
    std::string error;
    EXPECT_TRUE(jobToWire(job, &error).empty());
    EXPECT_NE(error.find("runner"), std::string::npos) << error;
}

TEST(ServeProtocol, UnknownWorkloadRejectedAtSerialization)
{
    SweepJob job;
    job.benchmark = "no-such-kernel";
    job.config = "cfg";
    std::string error;
    EXPECT_TRUE(jobToWire(job, &error).empty());
    EXPECT_FALSE(error.empty());
}

/** One in-place textual mutation of a valid wire line. */
std::string
mutate(const std::string &wire, const std::string &from,
       const std::string &to)
{
    const std::size_t at = wire.find(from);
    EXPECT_NE(at, std::string::npos) << "mutation target '" << from
                                     << "' not in wire form";
    std::string out = wire;
    out.replace(at, from.size(), to);
    return out;
}

/** @p message, when given, is the exact error jobFromWire() must
 * give. */
void
expectWireRejected(const std::string &wire, const char *what,
                   const char *message = nullptr)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(wire, doc, &error)) << what << ": "
                                              << error;
    SweepJob rebuilt;
    EXPECT_FALSE(jobFromWire(doc, rebuilt, error)) << what;
    EXPECT_FALSE(error.empty()) << what;
    if (message != nullptr) {
        EXPECT_EQ(error, message) << what;
    }
}

TEST(ServeProtocol, StrictParserRejectsBadJobFields)
{
    std::string error;
    const std::string wire = jobToWire(kernelJob(), &error);
    ASSERT_FALSE(wire.empty()) << error;

    // Unknown workload name at the wire level.
    expectWireRejected(
        mutate(wire, "\"spsc-ring\"", "\"no-such-kernel\""),
        "unknown benchmark");
    // Out-of-range scalars.
    expectWireRejected(mutate(wire, "\"cores\":2", "\"cores\":65"),
                       "cores > 64");
    expectWireRejected(mutate(wire, "\"cores\":2", "\"cores\":0"),
                       "cores == 0");
    expectWireRejected(
        mutate(wire, "\"qdepth\":8", "\"qdepth\":5000"),
        "qdepth > 4096");
    // Non-integral counter.
    expectWireRejected(mutate(wire, "\"seed\":3", "\"seed\":3.5"),
                       "fractional seed");
    expectWireRejected(mutate(wire, "\"seed\":3", "\"seed\":-3"),
                       "negative seed");
    // Unknown suite string.
    expectWireRejected(
        mutate(wire, "\"SPECint\"", "\"SPECweb\""), "bad suite");
    // Missing required field.
    expectWireRejected(mutate(wire, "\"seed\":3,", ""),
                       "missing seed");
    // LsuMode out of enum range.
    expectWireRejected(mutate(wire, "\"mode\":", "\"mode\":99,\"x\":"),
                       "mode out of range");
}

TEST(ServeProtocol, StrictParserRejectsUnknownParamsKey)
{
    std::string error;
    const std::string wire = jobToWire(profileJob(), &error);
    ASSERT_FALSE(wire.empty()) << error;
    // An extra params key means the two ends disagree about
    // UarchParams; half-applying it would silently change the
    // fingerprinted tuple.
    expectWireRejected(
        mutate(wire, "\"svw\":", "\"not-a-field\":1,\"svw\":"),
        "unknown params key", "unknown params field 'not-a-field'");
}

TEST(ServeProtocol, StrictParserRejectsDuplicateParamsKey)
{
    std::string error;
    const std::string wire = jobToWire(profileJob(), &error);
    ASSERT_FALSE(wire.empty()) << error;
    // Which of two values would apply is not the sender's to leave
    // open, so a repeat is rejected wherever it lands.
    expectWireRejected(mutate(wire, "\"svw\":", "\"svw\":0,\"svw\":"),
                       "repeated params key",
                       "duplicate params field 'svw'");
    expectWireRejected(mutate(wire, "\"params\":{",
                              "\"params\":{\"rob\":128,"),
                       "repeat ahead of its own position",
                       "duplicate params field 'rob'");
}

TEST(ServeProtocol, StrictParserRejectsMissingParamsKey)
{
    std::string error;
    const std::string wire = jobToWire(profileJob(), &error);
    ASSERT_FALSE(wire.empty()) << error;
    const std::size_t at = wire.find("\"svw\":");
    ASSERT_NE(at, std::string::npos);
    std::string cut = wire;
    cut.erase(at, wire.find(',', at) + 1 - at);
    expectWireRejected(cut, "missing params key",
                       "params missing field 'svw'");
}

TEST(ServeProtocol, StrictParamsCheckIsLinearInTheKeyCount)
{
    // The daemon checks params inside its one poll loop, on requests
    // of up to max_request_bytes. Comparing each out-of-place key
    // with every earlier one would spend about 2e10 string compares
    // on these 200k keys, a stall of minutes that this binary's ctest
    // TIMEOUT fails; one pass over an index takes milliseconds.
    std::string error;
    std::string line = submitRequestLine({profileJob()}, &error);
    ASSERT_FALSE(line.empty()) << error;
    line.pop_back();
    std::string extra;
    for (int i = 0; i < 200000; ++i)
        extra += "\"k" + std::to_string(i) + "\":1,";
    Request req;
    EXPECT_FALSE(parseRequestLine(
        mutate(line, "\"params\":{", "\"params\":{" + extra), req,
        error));
    EXPECT_EQ(error, "job 0: unknown params field 'k0'");
}

TEST(ServeProtocol, ParamsInAnyOrderKeepTheFingerprint)
{
    // jobToWire() writes the params keys in forEachUarchField order;
    // a sender that orders them otherwise names the same tuple.
    for (const SweepJob &job : {profileJob(), memsysJob()}) {
        std::string error;
        JsonValue doc;
        ASSERT_TRUE(parseJson(jobToWire(job, &error), doc, &error))
            << error;
        for (auto &[key, member] : doc.object)
            if (key == "params")
                std::reverse(member.object.begin(),
                             member.object.end());
        SweepJob rebuilt;
        ASSERT_TRUE(jobFromWire(doc, rebuilt, error)) << error;
        EXPECT_EQ(jobFingerprint(rebuilt), jobFingerprint(job));
    }
}

TEST(ServeProtocol, SubmitRequestRoundTrip)
{
    const std::vector<SweepJob> jobs = {profileJob(), kernelJob(),
                                        memsysJob(), sampledJob()};
    std::string error;
    const std::string line = submitRequestLine(jobs, &error);
    ASSERT_FALSE(line.empty()) << error;
    EXPECT_EQ(line.back(), '\n');

    Request req;
    ASSERT_TRUE(
        parseRequestLine(line.substr(0, line.size() - 1), req,
                         error))
        << error;
    EXPECT_EQ(req.op, Request::Op::Submit);
    ASSERT_EQ(req.jobs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobFingerprint(jobs[i]),
                  jobFingerprint(req.jobs[i]))
            << "job " << i;
}

TEST(ServeProtocol, SimpleRequestRoundTrips)
{
    Request req;
    std::string error;

    std::string line = statusRequestLine();
    ASSERT_TRUE(parseRequestLine(line.substr(0, line.size() - 1),
                                 req, error))
        << error;
    EXPECT_EQ(req.op, Request::Op::Status);

    line = metricsRequestLine();
    ASSERT_TRUE(parseRequestLine(line.substr(0, line.size() - 1),
                                 req, error))
        << error;
    EXPECT_EQ(req.op, Request::Op::Metrics);
}

TEST(ServeProtocol, MalformedRequestsFailCleanly)
{
    const std::vector<std::pair<const char *, std::string>> cases = {
        {"empty line", ""},
        {"not JSON", "this is not json"},
        {"truncated document",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"sub"},
        {"non-object document", "[1,2,3]"},
        {"missing schema", "{\"op\":\"status\"}"},
        {"wrong schema",
         "{\"schema\":\"nosq-serve-v9\",\"op\":\"status\"}"},
        {"missing op", "{\"schema\":\"nosq-serve-v1\"}"},
        {"unknown op",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"explode\"}"},
        {"op wrong type",
         "{\"schema\":\"nosq-serve-v1\",\"op\":7}"},
        {"submit without jobs",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"submit\"}"},
        {"submit jobs not array",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"submit\","
         "\"jobs\":true}"},
        {"submit empty jobs",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"submit\","
         "\"jobs\":[]}"},
        {"submit malformed job",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"submit\","
         "\"jobs\":[{}]}"},
        // Ops the daemon does not serve, such as results and cancel.
        {"unknown op results",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"results\"}"},
        {"unknown op results with fp",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"results\","
         "\"fp\":\"0123456789abcdef\"}"},
        {"unknown op cancel",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"cancel\"}"},
        {"unknown op cancel with ticket",
         "{\"schema\":\"nosq-serve-v1\",\"op\":\"cancel\","
         "\"ticket\":\"t42\"}"},
    };
    for (const auto &c : cases) {
        Request req;
        std::string error;
        EXPECT_FALSE(parseRequestLine(c.second, req, error))
            << c.first;
        EXPECT_FALSE(error.empty()) << c.first;
        if (std::string(c.first).rfind("unknown op", 0) == 0) {
            EXPECT_NE(error.find("unknown op"), std::string::npos)
                << c.first << ": " << error;
        }
    }
}

TEST(ServeProtocol, OversizedRequestLineRejected)
{
    // A line past max_request_bytes must fail before any parsing.
    std::string line = "{\"schema\":\"nosq-serve-v1\",\"op\":"
                       "\"status\",\"pad\":\"";
    line.append(max_request_bytes, 'x');
    line += "\"}";
    Request req;
    std::string error;
    EXPECT_FALSE(parseRequestLine(line, req, error));
    EXPECT_FALSE(error.empty());
}

TEST(ServeProtocol, SubmitJobCountCapped)
{
    std::string line =
        "{\"schema\":\"nosq-serve-v1\",\"op\":\"submit\",\"jobs\":[";
    for (std::size_t i = 0; i <= max_jobs_per_submit; ++i) {
        if (i)
            line += ',';
        line += "{}";
    }
    line += "]}";
    Request req;
    std::string error;
    EXPECT_FALSE(parseRequestLine(line, req, error));
    EXPECT_FALSE(error.empty());
}

/**
 * Deterministic fuzz: every truncation of a real submit line, and a
 * byte-mutation sweep over it, must either parse or fail with an
 * error message -- never crash, hang, or throw. No randomness: the
 * mutations are a fixed function of position.
 */
TEST(ServeProtocol, TruncationAndMutationFuzzNeverCrashes)
{
    std::string error;
    const std::string line = submitRequestLine(
        {profileJob(), kernelJob()}, &error);
    ASSERT_FALSE(line.empty()) << error;
    const std::string body = line.substr(0, line.size() - 1);

    for (std::size_t cut = 0; cut < body.size(); ++cut) {
        Request req;
        std::string err;
        parseRequestLine(body.substr(0, cut), req, err);
        // Any truncation that drops bytes cannot be a valid
        // document of the same shape; it must be rejected.
        EXPECT_FALSE(err.empty()) << "truncation at " << cut;
    }

    const char replacements[] = {'\0', '"', '{', '}', ',', 'Z'};
    for (std::size_t at = 0; at < body.size(); at += 3) {
        for (const char r : replacements) {
            if (body[at] == r)
                continue;
            std::string mutated = body;
            mutated[at] = r;
            Request req;
            std::string err;
            // Accept or reject; just never crash. (A mutation in a
            // string literal's interior can legitimately still
            // parse.)
            parseRequestLine(mutated, req, err);
        }
    }
}

TEST(ServeProtocol, WorkerFramingRoundTrips)
{
    const SweepJob job = kernelJob();
    const std::string line = workerJobLine(job);
    // A job frame carries the job alone: the worker names its result
    // by the job's fingerprint.
    EXPECT_EQ(line.find("\"id\""), std::string::npos) << line;

    SweepJob rebuilt;
    FaultAction fault = FaultAction::Crash;
    std::string error;
    ASSERT_TRUE(parseWorkerJobLine(line.substr(0, line.size() - 1),
                                   rebuilt, fault, error))
        << error;
    EXPECT_EQ(jobFingerprint(job), jobFingerprint(rebuilt));
    EXPECT_EQ(fault, FaultAction::None);

    // A fired worker.job fault rides in the job frame.
    ASSERT_TRUE(parseWorkerJobLine(
        workerJobLine(job, FaultAction::Wedge), rebuilt, fault, error))
        << error;
    EXPECT_EQ(fault, FaultAction::Wedge);
    EXPECT_EQ(jobFingerprint(job), jobFingerprint(rebuilt));

    RunResult run;
    run.benchmark = "spsc-ring";
    run.suite = Suite::Int;
    run.config = "nosq/c2-d8";
    run.sim.cycles = 123456;
    run.sim.insts = 30000;
    run.sim.loads = 777;
    const std::string fp = jobFingerprint(job);

    // A worker's result frame is the client's result line without
    // "job"; one parser reads both.
    const std::string frame = jobResultLine(std::nullopt, fp, run);
    EXPECT_EQ(jobResultLine(9, fp, run),
              "{\"job\":9," + frame.substr(1));
    JobResult wr;
    ASSERT_TRUE(parseJobResultLine(frame, wr, error)) << error;
    EXPECT_FALSE(wr.index.has_value());
    EXPECT_EQ(wr.fp, fp);
    EXPECT_TRUE(wr.error.empty());
    // The run payload is the journal record shape; the line form is
    // the bit-identity witness.
    EXPECT_EQ(runResultJsonLine(wr.run), runResultJsonLine(run));

    JobResult cr;
    ASSERT_TRUE(parseJobResultLine(jobResultLine(9, fp, run), cr, error))
        << error;
    ASSERT_TRUE(cr.index.has_value());
    EXPECT_EQ(*cr.index, 9u);
    EXPECT_EQ(runResultJsonLine(cr.run), runResultJsonLine(run));

    JobResult we;
    ASSERT_TRUE(parseJobResultLine(
        jobErrorLine(std::nullopt, fp, "simulation exploded"), we,
        error))
        << error;
    EXPECT_FALSE(we.index.has_value());
    EXPECT_EQ(we.error, "simulation exploded");
    ASSERT_TRUE(parseJobResultLine(jobErrorLine(10, fp, "worker died"),
                                   we, error))
        << error;
    EXPECT_EQ(*we.index, 10u);
    EXPECT_EQ(we.error, "worker died");

    SweepJob bad_job;
    FaultAction bad_fault;
    EXPECT_FALSE(parseWorkerJobLine("{\"fault\":\"wedge\"}", bad_job,
                                    bad_fault, error));
    JobResult bad;
    EXPECT_FALSE(parseJobResultLine("{\"fp\":\"x\"}", bad, error));
    EXPECT_FALSE(parseJobResultLine("{\"job\":-1,\"fp\":\"x\","
                                    "\"error\":\"e\"}",
                                    bad, error));
    EXPECT_FALSE(parseJobResultLine("{\"done\":true,\"ticket\":\"t1\","
                                    "\"jobs\":1}",
                                    bad, error));
}

TEST(ServeProtocol, ReplyBuildersEmitParsableJson)
{
    RunResult run;
    run.benchmark = "gcc";
    run.config = "cfg";
    run.sim.cycles = 10;
    run.sim.insts = 5;

    for (const std::string &line :
         {errorReplyLine("bad \"request\"\nwith newline"),
          submitAckLine("t7", 4, 2, 1),
          jobResultLine(3, "0123456789abcdef", run),
          jobErrorLine(2, "0123456789abcdef", "worker died"),
          doneLine("t7", 4)}) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.back(), '\n');
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(parseJson(line, doc, &error))
            << error << " in: " << line;
    }

    JsonValue ack;
    ASSERT_TRUE(parseJson(submitAckLine("t7", 4, 2, 1), ack,
                          nullptr));
    ASSERT_NE(ack.find("ticket"), nullptr);
    EXPECT_EQ(ack.find("ticket")->string, "t7");
    EXPECT_EQ(ack.find("jobs")->asU64(), 4u);
    EXPECT_EQ(ack.find("cached")->asU64(), 2u);
    EXPECT_EQ(ack.find("shared")->asU64(), 1u);
}

TEST(ServeStats, StatusAndMetricsReadOneSnapshot)
{
    // Every field a distinct value.
    ServerStatus s;
    s.workers = 1;
    s.alive = 2;
    s.executed = 3;
    s.cache_hits = 4;
    s.dedup_shared = 5;
    s.worker_deaths = 6;
    s.requeued = 7;
    s.failed = 8;
    s.quarantined = 9;
    s.overloaded = 10;
    s.store_size = 11;
    s.store_append_failures = 12;
    s.pending = 13;
    s.running = 14;
    s.max_pending = 15;
    s.draining = true;
    s.job_attempts = {{"00000000000000aa", 16}, {"00000000000000bb", 17}};
    s.quarantine = {{"00000000000000cc", "worker died 3 times"}};
    s.faults_json = "{\"sock.read\":{\"hits\":18,\"fired\":19}}";
    s.submits = 20;
    s.scrapes = 21;
    s.busy = 1;
    s.uptime_ms = 22500;

    // The reply byte for byte: scripts grep its keys, and both the
    // key order and the own-layout tail are part of the surface.
    const std::string line = statusReplyLine(s);
    EXPECT_EQ(line,
              "{\"ok\":true,\"workers\":1,\"alive\":2,\"executed\":3,"
              "\"cache_hits\":4,\"dedup_shared\":5,\"worker_deaths\":6,"
              "\"requeued\":7,\"failed\":8,\"quarantined\":9,"
              "\"overloaded\":10,\"store_size\":11,"
              "\"store_append_failures\":12,\"pending\":13,"
              "\"running\":14,\"max_pending\":15,\"draining\":true,"
              "\"job_attempts\":{\"00000000000000aa\":16,"
              "\"00000000000000bb\":17},\"quarantine\":{"
              "\"00000000000000cc\":\"worker died 3 times\"},"
              "\"faults\":{\"sock.read\":{\"hits\":18,\"fired\":19}}}\n");

    const obs::Histogram latency(obs::defaultLatencyBucketsMs());
    std::vector<obs::ExpositionSample> samples;
    std::string error;
    ASSERT_TRUE(obs::parseExposition(
        metricsExposition(s, FaultInjector(), latency, latency), samples,
        &error))
        << error;
    auto scraped = [&](const char *name) {
        for (const obs::ExpositionSample &sample : samples)
            if (sample.name == name)
                return sample.value;
        ADD_FAILURE() << "no sample of " << name;
        return -1.0;
    };

    JsonValue reply;
    ASSERT_TRUE(parseJson(line, reply, nullptr));
    std::size_t both = 0;
    for (const ServeStatRow &row : serve_stat_rows) {
        if (row.metric.name == nullptr)
            continue;
        EXPECT_EQ(scraped(row.metric.name), row.valueOf(s))
            << row.metric.name;
        if (row.statusKey == nullptr)
            continue;
        ++both;
        const JsonValue *v = reply.find(row.statusKey);
        ASSERT_NE(v, nullptr) << row.statusKey;
        const double status_value =
            v->kind == JsonValue::Kind::Bool ? (v->boolean ? 1.0 : 0.0)
                                             : v->number;
        EXPECT_EQ(status_value, scraped(row.metric.name))
            << row.statusKey << " vs " << row.metric.name;
    }
    EXPECT_EQ(both, 14u);
    EXPECT_EQ(scraped("nosq_sweepd_worker_utilization"), 0.5);
    EXPECT_EQ(scraped("nosq_sweepd_store_hit_ratio"), 4.0 / 7.0);
    EXPECT_EQ(scraped("nosq_sweepd_uptime_seconds"), 22.5);
}

TEST(ServeStats, ScrapeGroupsEachFamilyUnderOneHeader)
{
    // Two planned sites, both hit: the families that fan out over
    // the `site` label must not interleave.
    FaultInjector faults;
    std::string error;
    ASSERT_TRUE(faults.configure("sock.read:eintr%2,store.write:fail@1",
                                 error))
        << error;
    faults.check(FaultSite::SockRead);
    faults.check(FaultSite::SockRead);
    faults.check(FaultSite::StoreWrite);
    obs::Histogram latency(obs::defaultLatencyBucketsMs());
    latency.observe(3.0);
    const std::string text =
        metricsExposition(ServerStatus{}, faults, latency, latency);

    // Every sample belongs to the family whose header came last, so
    // each family's samples are contiguous; the headers list each
    // family once, in forEachServeMetric() order.
    std::vector<std::string> families;
    std::string family, type;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("# HELP ", 0) == 0) {
            family = line.substr(7, line.find(' ', 7) - 7);
            families.push_back(family);
            ASSERT_TRUE(std::getline(in, line));
            ASSERT_EQ(line.rfind("# TYPE " + family + " ", 0), 0u)
                << "HELP without its TYPE: " << line;
            type = line.substr(8 + family.size());
            continue;
        }
        ASSERT_NE(line.rfind("#", 0), 0u) << "stray header: " << line;
        const std::string name = line.substr(0, line.find_first_of("{ "));
        const bool histogram_part =
            type == "histogram" && (name == family + "_bucket" ||
                                    name == family + "_sum" ||
                                    name == family + "_count");
        EXPECT_TRUE(name == family || histogram_part)
            << line << " is not in family " << family;
    }
    std::vector<std::string> want;
    forEachServeMetric(
        [&](const ServeMetricDef &def) { want.push_back(def.name); });
    EXPECT_EQ(families, want) << text;

    std::vector<obs::ExpositionSample> samples;
    ASSERT_TRUE(obs::parseExposition(text, samples, &error)) << error;
    auto value = [&](const std::string &name, const std::string &labels) {
        for (const obs::ExpositionSample &sample : samples)
            if (sample.name == name && sample.labels == labels)
                return sample.value;
        ADD_FAILURE() << "no sample " << name << "{" << labels << "}";
        return -1.0;
    };
    EXPECT_EQ(value("nosq_sweepd_fault_hits_total", "site=\"sock.read\""),
              2.0);
    EXPECT_EQ(
        value("nosq_sweepd_fault_fired_total", "site=\"sock.read\""),
        1.0);
    EXPECT_EQ(
        value("nosq_sweepd_fault_hits_total", "site=\"store.write\""),
        1.0);
    EXPECT_EQ(
        value("nosq_sweepd_fault_fired_total", "site=\"store.write\""),
        1.0);
    EXPECT_EQ(value("nosq_sweepd_submit_latency_ms_count", ""), 1.0);
}

// --- framing ----------------------------------------------------------------

/** Both ends of a socketpair, as plain-I/O channels. */
struct ChannelPair
{
    LineChannel reader;
    LineChannel writer;

    ChannelPair()
    {
        int ends[2];
        EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
        reader = LineChannel(ends[0], read, send);
        writer = LineChannel(ends[1], read, send);
    }

    void
    write(const std::string &bytes)
    {
        writer.queue(bytes);
        ASSERT_EQ(writer.flush(), LineChannel::Io::Done);
    }
};

TEST(LineChannel, FramesLinesWhateverTheReadsCarry)
{
    ChannelPair pair;
    std::string line;

    // One line split across 1-byte writes, each read on its own.
    const std::string split = "split across writes\n";
    for (char c : split) {
        EXPECT_FALSE(pair.reader.nextLine(line));
        pair.write(std::string(1, c));
        ASSERT_EQ(pair.reader.fill(), LineChannel::Io::Done);
    }
    ASSERT_TRUE(pair.reader.nextLine(line));
    EXPECT_EQ(line, "split across writes");
    EXPECT_FALSE(pair.reader.nextLine(line));

    // Three lines in one read.
    pair.write("one\ntwo\nthree\n");
    ASSERT_EQ(pair.reader.fill(), LineChannel::Io::Done);
    for (const char *want : {"one", "two", "three"}) {
        ASSERT_TRUE(pair.reader.nextLine(line));
        EXPECT_EQ(line, want);
    }
    EXPECT_FALSE(pair.reader.nextLine(line));
    EXPECT_EQ(pair.reader.partialBytes(), 0u);

    // A trailing fragment is held until its newline arrives.
    pair.write("four\nfrag");
    ASSERT_EQ(pair.reader.fill(), LineChannel::Io::Done);
    ASSERT_TRUE(pair.reader.nextLine(line));
    EXPECT_EQ(line, "four");
    EXPECT_FALSE(pair.reader.nextLine(line));
    EXPECT_EQ(pair.reader.partialBytes(), 4u);
    pair.write("ment\n");
    ASSERT_EQ(pair.reader.readLine(line), LineChannel::Io::Done);
    EXPECT_EQ(line, "fragment");

    // EOF in the middle of a line: closed, the fragment never handed
    // out as a line.
    pair.write("torn");
    pair.writer.close();
    EXPECT_EQ(pair.reader.readLine(line), LineChannel::Io::Closed);
    EXPECT_EQ(pair.reader.partialBytes(), 4u);
}

TEST(LineChannel, NonBlockingFlushResumesWhereItStopped)
{
    ChannelPair pair;
    ASSERT_EQ(fcntl(pair.writer.fd(), F_SETFL, O_NONBLOCK), 0);
    // Far more than a socket buffer holds.
    std::string big(4u << 20, 'x');
    for (std::size_t i = 0; i < big.size(); i += 4099)
        big[i] = static_cast<char>('a' + i % 26);
    pair.writer.queue(big + "\n");
    ASSERT_EQ(pair.writer.flush(), LineChannel::Io::Again);
    EXPECT_TRUE(pair.writer.hasOutput());

    std::string line;
    while (!pair.reader.nextLine(line)) {
        ASSERT_EQ(pair.reader.fill(), LineChannel::Io::Done);
        const LineChannel::Io io = pair.writer.flush();
        ASSERT_TRUE(io == LineChannel::Io::Done ||
                    io == LineChannel::Io::Again);
    }
    EXPECT_EQ(line, big);
    EXPECT_FALSE(pair.writer.hasOutput());
}

} // namespace
} // namespace serve
} // namespace nosq
