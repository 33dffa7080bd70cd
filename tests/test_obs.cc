/**
 * @file
 * Observability-layer tests: metrics exposition (bucket boundaries,
 * round-trip), pipeline trace export (spec parsing,
 * window edge cases, event content on the reference workload,
 * defaults-off byte-identity), the progress meter's pure renderer,
 * and the NOSQ_LOG_PREFIX log attribution prefix.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/pipe_trace.hh"
#include "obs/progress.hh"
#include "ooo/core.hh"
#include "sim/report.hh"
#include "workload/profiles.hh"
#include "workload/program_cache.hh"

namespace nosq {
namespace {

// Latch the prefix on for this whole binary BEFORE the first
// logPrefix() call (the enable flag is read once); the prefix tests
// below depend on it and nothing else here prints via warn/inform.
const bool log_prefix_armed = [] {
    setenv("NOSQ_LOG_PREFIX", "1", 1);
    return true;
}();

// ---------------------------------------------------------------------
// Metrics: histogram bucket boundaries
// ---------------------------------------------------------------------

TEST(Metrics, HistogramBucketBoundariesAreLeInclusive)
{
    obs::Histogram h({1.0, 5.0, 10.0});
    h.observe(0.5);  // bucket 0
    h.observe(1.0);  // bucket 0: le="1" is inclusive
    h.observe(1.01); // bucket 1
    h.observe(5.0);  // bucket 1
    h.observe(10.0); // bucket 2
    h.observe(10.5); // +Inf
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // the implicit +Inf bucket
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.01 + 5.0 + 10.0 + 10.5);
}

// ---------------------------------------------------------------------
// Metrics: exposition round-trip
// ---------------------------------------------------------------------

TEST(Metrics, ExpositionRoundTrips)
{
    // Gauges whose shortest round-tripping decimal needs 1, 16, 3
    // and 1 significant digits.
    const std::vector<double> gauges = {0.1, 4.0 / 7.0, 22.5, 1e-7};
    std::string text;
    obs::exposeHeader(text, "jobs_total", "counter", "Jobs.");
    obs::exposeSample(text, "jobs_total", "", std::uint64_t{42});
    obs::exposeHeader(text, "depth", "gauge", "Depth.");
    obs::exposeSample(text, "depth", "", 2.5);
    obs::exposeHeader(text, "ratio", "gauge", "Ratios.");
    for (std::size_t i = 0; i < gauges.size(); ++i)
        obs::exposeSample(text, "ratio",
                          "i=\"" + std::to_string(i) + "\"", gauges[i]);
    obs::exposeHeader(text, "hits_total", "counter", "Hits.");
    obs::exposeSample(text, "hits_total", "site=\"sock.read\"",
                      std::uint64_t{3});
    obs::Histogram h({10.0, 100.0});
    h.observe(5.0);
    h.observe(50.0);
    h.observe(500.0);
    obs::exposeHeader(text, "svc_ms", "histogram", "Service.");
    obs::exposeHistogram(text, "svc_ms", h);

    std::vector<obs::ExpositionSample> samples;
    std::string error;
    ASSERT_TRUE(obs::parseExposition(text, samples, &error))
        << error;

    auto value = [&](const std::string &name,
                     const std::string &labels) -> double {
        for (const obs::ExpositionSample &s : samples) {
            if (s.name == name && s.labels == labels)
                return s.value;
        }
        ADD_FAILURE() << "missing sample " << name << "{" << labels
                      << "}\n"
                      << text;
        return -1.0;
    };
    EXPECT_EQ(value("jobs_total", ""), 42.0);
    EXPECT_EQ(value("depth", ""), 2.5);
    EXPECT_EQ(value("hits_total", "site=\"sock.read\""), 3.0);
    for (std::size_t i = 0; i < gauges.size(); ++i)
        EXPECT_EQ(value("ratio", "i=\"" + std::to_string(i) + "\""),
                  gauges[i]);
    // The shortest decimals, spelled as "%.{p}g" spells them.
    EXPECT_NE(text.find("ratio{i=\"0\"} 0.1\n"), std::string::npos);
    EXPECT_NE(text.find("ratio{i=\"1\"} 0.5714285714285714\n"),
              std::string::npos);
    EXPECT_NE(text.find("ratio{i=\"2\"} 22.5\n"), std::string::npos);
    EXPECT_NE(text.find("ratio{i=\"3\"} 1e-07\n"), std::string::npos);
    // Histogram buckets render cumulatively.
    EXPECT_EQ(value("svc_ms_bucket", "le=\"10\""), 1.0);
    EXPECT_EQ(value("svc_ms_bucket", "le=\"100\""), 2.0);
    EXPECT_EQ(value("svc_ms_bucket", "le=\"+Inf\""), 3.0);
    EXPECT_EQ(value("svc_ms_sum", ""), 555.0);
    EXPECT_EQ(value("svc_ms_count", ""), 3.0);

    // A family is its header, then its samples.
    EXPECT_NE(text.find("# HELP svc_ms Service.\n"
                        "# TYPE svc_ms histogram\n"
                        "svc_ms_bucket{le=\"10\"} 1\n"),
              std::string::npos);
}

TEST(Metrics, ParseExpositionRejectsMalformedInput)
{
    std::vector<obs::ExpositionSample> samples;
    std::string error;
    EXPECT_FALSE(
        obs::parseExposition("name_without_value\n", samples,
                             &error));
    EXPECT_FALSE(
        obs::parseExposition("x{unclosed 1\n", samples, &error));
}

// ---------------------------------------------------------------------
// Pipe trace: spec parsing
// ---------------------------------------------------------------------

TEST(PipeTrace, SpecParses)
{
    obs::PipeTraceConfig cfg;
    std::string error;
    ASSERT_TRUE(obs::parsePipeTraceSpec("t.json", cfg, error));
    EXPECT_EQ(cfg.path, "t.json");
    EXPECT_EQ(cfg.skip, 0u);
    EXPECT_EQ(cfg.count, 50000u);

    ASSERT_TRUE(
        obs::parsePipeTraceSpec("t.json:100:25", cfg, error));
    EXPECT_EQ(cfg.skip, 100u);
    EXPECT_EQ(cfg.count, 25u);

    // A lone window field is ambiguous and refused.
    EXPECT_FALSE(obs::parsePipeTraceSpec("t.json:100", cfg, error));
    EXPECT_FALSE(obs::parsePipeTraceSpec("t.json:a:b", cfg, error));
    EXPECT_FALSE(obs::parsePipeTraceSpec("", cfg, error));
}

TEST(PipeTrace, WindowMembership)
{
    obs::PipeTraceConfig cfg;
    cfg.path = "unused";
    cfg.skip = 10;
    cfg.count = 5;
    obs::PipeTracer t(cfg);
    EXPECT_FALSE(t.inWindow(10)); // seq is 1-based; 10 is skipped
    EXPECT_TRUE(t.inWindow(11));
    EXPECT_TRUE(t.inWindow(15));
    EXPECT_FALSE(t.inWindow(16));
}

// ---------------------------------------------------------------------
// Pipe trace: window edge cases produce valid (empty) documents
// ---------------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string text;
    if (f != nullptr) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    return text;
}

const JsonValue *
traceEventsOf(const JsonValue &doc)
{
    const JsonValue *events = doc.find("traceEvents");
    EXPECT_NE(events, nullptr);
    if (events != nullptr) {
        EXPECT_EQ(events->kind, JsonValue::Kind::Array);
    }
    return events;
}

void
runTraced(const obs::PipeTraceConfig &cfg, std::uint64_t insts)
{
    const BenchmarkProfile *profile = findProfile("gcc");
    ASSERT_NE(profile, nullptr);
    obs::PipeTracer tracer(cfg);
    std::string error;
    ASSERT_TRUE(tracer.open(error)) << error;
    OooCore core(makeParams(LsuMode::Nosq),
                 ProgramCache::global().get(*profile, 1));
    core.setTracer(&tracer);
    core.run(insts);
    ASSERT_TRUE(tracer.finish(error)) << error;
}

TEST(PipeTrace, SkipPastEndIsAValidEmptyTrace)
{
    const std::string path =
        testing::TempDir() + "nosq_trace_skip_past_end.json";
    obs::PipeTraceConfig cfg;
    cfg.path = path;
    cfg.skip = 1u << 30; // far past the run's last instruction
    cfg.count = 100;
    runTraced(cfg, 5000);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(slurp(path), doc, &error)) << error;
    const JsonValue *events = traceEventsOf(doc);
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->array.empty());
    std::remove(path.c_str());
}

TEST(PipeTrace, CountZeroIsAValidEmptyTrace)
{
    const std::string path =
        testing::TempDir() + "nosq_trace_count_zero.json";
    obs::PipeTraceConfig cfg;
    cfg.path = path;
    cfg.skip = 0;
    cfg.count = 0;
    runTraced(cfg, 5000);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(slurp(path), doc, &error)) << error;
    const JsonValue *events = traceEventsOf(doc);
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->array.empty());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Pipe trace: reference-workload content
// ---------------------------------------------------------------------

TEST(PipeTrace, ReferenceWorkloadTraceIsWellFormed)
{
    const std::string path =
        testing::TempDir() + "nosq_trace_reference.json";
    obs::PipeTraceConfig cfg;
    cfg.path = path;
    cfg.skip = 0;
    cfg.count = 10000;
    runTraced(cfg, 20000);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(slurp(path), doc, &error)) << error;
    const JsonValue *events = traceEventsOf(doc);
    ASSERT_NE(events, nullptr);
    ASSERT_FALSE(events->array.empty());

    double prev_ts = -1.0;
    std::uint64_t bypass_pred = 0, verify = 0, squash = 0,
                  commit = 0;
    for (const JsonValue &e : events->array) {
        ASSERT_EQ(e.kind, JsonValue::Kind::Object);
        const JsonValue *name = e.find("name");
        const JsonValue *ts = e.find("ts");
        const JsonValue *args = e.find("args");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(args, nullptr);
        ASSERT_EQ(ts->kind, JsonValue::Kind::Number);
        // Hooks fire in simulation order: timestamps never go
        // backward anywhere in the file.
        EXPECT_GE(ts->number, prev_ts);
        prev_ts = ts->number;
        EXPECT_NE(args->find("seq"), nullptr);
        if (name->string == "bypass_pred")
            ++bypass_pred;
        else if (name->string == "verify")
            ++verify;
        else if (name->string == "squash")
            ++squash;
        else if (name->string == "commit")
            ++commit;
    }
    // The NoSQ decision points must be visible on the reference
    // workload: every in-window load gets a prediction and a
    // retirement verification.
    EXPECT_GT(bypass_pred, 0u);
    EXPECT_GT(verify, 0u);
    EXPECT_EQ(commit, 10000u);
    // gcc under NoSQ flushes at least once in 20k insts; squashed
    // (wrong-path) instructions inside the window ARE traced.
    EXPECT_GT(squash, 0u);
    std::remove(path.c_str());
}

TEST(PipeTrace, NullTracerKeepsResultsByteIdentical)
{
    const BenchmarkProfile *profile = findProfile("gcc");
    ASSERT_NE(profile, nullptr);
    const auto program = ProgramCache::global().get(*profile, 1);

    OooCore plain(makeParams(LsuMode::Nosq), program);
    const SimResult a = plain.run(20000, 6000);

    const std::string path =
        testing::TempDir() + "nosq_trace_identity.json";
    obs::PipeTraceConfig cfg;
    cfg.path = path;
    cfg.count = 5000;
    obs::PipeTracer tracer(cfg);
    std::string error;
    ASSERT_TRUE(tracer.open(error)) << error;
    OooCore traced(makeParams(LsuMode::Nosq), program);
    traced.setTracer(&tracer);
    const SimResult b = traced.run(20000, 6000);
    ASSERT_TRUE(tracer.finish(error)) << error;

    // Tracing is pure observation: every statistic is identical.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.bypassedLoads, b.bypassedLoads);
    EXPECT_EQ(a.bypassMispredicts, b.bypassMispredicts);
    EXPECT_EQ(a.reexecLoads, b.reexecLoads);
    EXPECT_EQ(a.loadFlushes, b.loadFlushes);
    EXPECT_EQ(a.dcacheReadsBackend, b.dcacheReadsBackend);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Progress meter
// ---------------------------------------------------------------------

TEST(Progress, FormatEta)
{
    EXPECT_EQ(obs::ProgressMeter::formatEta(-1.0), "?");
    EXPECT_EQ(obs::ProgressMeter::formatEta(42.4), "42s");
    EXPECT_EQ(obs::ProgressMeter::formatEta(192.0), "3m12s");
    EXPECT_EQ(obs::ProgressMeter::formatEta(7500.0), "2h05m");
}

TEST(Progress, RenderLineShape)
{
    obs::SuiteProgress suites = {{"media", {8, 24}},
                                 {"int", {3, 12}}};
    const std::string line = obs::ProgressMeter::renderLine(
        11, 36, 3.4, 7.4, suites);
    EXPECT_EQ(line,
              "[11/36] 3.4 jobs/s eta 7s | media 8/24 int 3/12");

    // No rate yet: rate and eta are omitted, not rendered as junk.
    EXPECT_EQ(obs::ProgressMeter::renderLine(0, 4, 0.0, -1.0, {}),
              "[0/4]");

    // A single unlabelled suite adds nothing.
    obs::SuiteProgress unlabelled = {{"-", {1, 4}}};
    EXPECT_EQ(obs::ProgressMeter::renderLine(1, 4, 0.0, -1.0,
                                             unlabelled),
              "[1/4]");
}

TEST(Progress, NonTtyStreamDisablesTheMeter)
{
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    obs::ProgressMeter meter({"a", "b"}, sink);
    EXPECT_FALSE(meter.enabled());
    meter.report(1, 2, 0); // must be a no-op, not a crash
    meter.finish();
    EXPECT_EQ(std::ftell(sink), 0L);
    std::fclose(sink);
}

TEST(Progress, ForcedMeterRendersAndFinishes)
{
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    obs::ProgressMeter meter({"int", "int", "fp"}, sink,
                             /*force=*/true);
    EXPECT_TRUE(meter.enabled());
    meter.report(1, 3, 0);
    meter.report(2, 3, 2);
    meter.report(3, 3, 1);
    meter.finish();

    std::fflush(sink);
    std::rewind(sink);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), sink)) > 0)
        text.append(buf, n);
    std::fclose(sink);

    // Carriage-return rewrites, the final counts, and a newline.
    EXPECT_NE(text.find('\r'), std::string::npos);
    EXPECT_NE(text.find("[3/3]"), std::string::npos);
    EXPECT_NE(text.find("int 2/2"), std::string::npos);
    EXPECT_NE(text.find("fp 1/1"), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

TEST(Progress, BulkReportMarksEverySuiteComplete)
{
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    obs::ProgressMeter meter({"int", "fp"}, sink, /*force=*/true);
    meter.report(2, 2, ~std::size_t(0)); // journal bulk report
    meter.finish();

    std::fflush(sink);
    std::rewind(sink);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), sink)) > 0)
        text.append(buf, n);
    std::fclose(sink);
    EXPECT_NE(text.find("int 1/1"), std::string::npos);
    EXPECT_NE(text.find("fp 1/1"), std::string::npos);
}

// ---------------------------------------------------------------------
// NOSQ_LOG_PREFIX attribution
// ---------------------------------------------------------------------

TEST(Logging, PrefixCarriesTimestampRoleAndPid)
{
    ASSERT_TRUE(log_prefix_armed);
    setLogRole("daemon");
    const std::string prefix = logPrefix();
    setLogRole("");

    // "[YYYY-MM-DDThh:mm:ssZ daemon/<pid>] "
    ASSERT_GE(prefix.size(), 25u);
    EXPECT_EQ(prefix.front(), '[');
    EXPECT_EQ(prefix.substr(prefix.size() - 2), "] ");
    EXPECT_EQ(prefix[5], '-');
    EXPECT_EQ(prefix[11], 'T');
    EXPECT_EQ(prefix[20], 'Z');
    EXPECT_NE(prefix.find(" daemon/"), std::string::npos);
    const std::string pid = std::to_string(getpid());
    EXPECT_NE(prefix.find("/" + pid + "]"), std::string::npos);

    // Without a role the prefix still attributes the pid.
    const std::string bare = logPrefix();
    EXPECT_EQ(bare.find("daemon"), std::string::npos);
    EXPECT_NE(bare.find(" " + pid + "]"), std::string::npos);
}

} // anonymous namespace
} // namespace nosq
