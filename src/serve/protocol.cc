/**
 * @file
 * nosq-serve-v1 message building and parsing (see protocol.hh).
 */

#include "serve/protocol.hh"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "memsys/coherence.hh"
#include "obs/metrics.hh"
#include "ooo/uarch_params.hh"
#include "sim/journal.hh"
#include "sim/sampling.hh"
#include "workload/multicore.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace serve {

namespace {

std::string
quoted(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

/** Exact-counter field lookup: object member @p key as a u64. */
bool
getU64(const JsonValue &v, const char *key, std::uint64_t &out,
       std::string &error)
{
    const JsonValue *m = v.find(key);
    if (m == nullptr) {
        error = std::string("missing field '") + key + "'";
        return false;
    }
    if (!jsonExactCounter(*m, out)) {
        error = std::string("field '") + key +
                "' is not an exact non-negative integer";
        return false;
    }
    return true;
}

bool
getString(const JsonValue &v, const char *key, std::string &out,
          std::string &error)
{
    const JsonValue *m = v.find(key);
    if (m == nullptr || m->kind != JsonValue::Kind::String) {
        error = std::string("missing or non-string field '") + key +
                "'";
        return false;
    }
    out = m->string;
    return true;
}

/**
 * Parse the "params" wire object into @p params. Strict both ways:
 * every enumerated field must be present and in range for its member
 * type, and every wire key must be enumerated -- an unknown key
 * means the two binaries disagree about UarchParams, and
 * half-applying the rest would fingerprint a configuration nobody
 * asked for.
 */
bool
paramsFromWire(const JsonValue &v, UarchParams &params,
               std::string &error)
{
    if (v.kind != JsonValue::Kind::Object) {
        error = "'params' is not an object";
        return false;
    }
    std::unordered_map<std::string, std::uint64_t> vals;
    for (const auto &[key, member] : v.object) {
        std::uint64_t n = 0;
        if (!jsonExactCounter(member, n)) {
            error = "params field '" + key +
                    "' is not an exact non-negative integer";
            return false;
        }
        if (!vals.emplace(key, n).second) {
            error = "duplicate params field '" + key + "'";
            return false;
        }
    }
    bool ok = true;
    std::size_t consumed = 0;
    forEachUarchField(params, [&](const char *key, auto &slot) {
        if (!ok)
            return;
        const auto it = vals.find(key);
        if (it == vals.end()) {
            error = std::string("params missing field '") + key +
                    "'";
            ok = false;
            return;
        }
        const std::uint64_t n = it->second;
        using T = std::decay_t<decltype(slot)>;
        slot = static_cast<T>(n);
        // Round-trip equality rejects any value the member cannot
        // hold exactly (oversized widths, bools > 1, enum codes
        // beyond the narrow storage type).
        if (static_cast<std::uint64_t>(slot) != n) {
            error = "params field '" + it->first +
                    "' is out of range";
            ok = false;
            return;
        }
        if constexpr (std::is_same_v<T, LsuMode>) {
            if (n > static_cast<std::uint64_t>(
                        LsuMode::NosqPerfect)) {
                error = "params field 'mode' is not a known "
                        "LsuMode";
                ok = false;
                return;
            }
        }
        ++consumed;
    });
    if (!ok)
        return false;
    if (consumed != vals.size()) {
        // Name one offender so the error is actionable.
        UarchParams probe;
        std::unordered_map<std::string, bool> known;
        forEachUarchField(probe, [&](const char *key, auto &) {
            known.emplace(key, true);
        });
        for (const auto &[key, n] : vals) {
            (void)n;
            if (known.find(key) == known.end()) {
                error = "unknown params field '" + key + "'";
                return false;
            }
        }
        error = "params field set mismatch";
        return false;
    }
    return true;
}

} // anonymous namespace

// --- job wire form ----------------------------------------------------------

std::string
jobToWire(const SweepJob &job, std::string *error)
{
    if (job.runner) {
        if (error != nullptr)
            *error = "custom-runner jobs cannot be serialized "
                     "(the callable cannot cross a process "
                     "boundary)";
        return "";
    }
    const std::string bench =
        job.profile != nullptr ? job.profile->name : job.benchmark;
    if (job.profile == nullptr && !isMulticoreWorkload(bench)) {
        if (error != nullptr)
            *error = "job workload '" + bench +
                     "' is neither a benchmark profile nor a "
                     "multicore kernel";
        return "";
    }
    const Suite suite =
        job.profile != nullptr ? job.profile->suite : job.suite;

    std::string out = "{";
    out += "\"bench\":" + quoted(bench);
    out += ",\"suite\":" + quoted(suiteName(suite));
    out += ",\"config\":" + quoted(job.config);
    out += ",\"memsys\":" + quoted(job.memsysLabel);
    // runnerTag is hashed into the job fingerprint even for
    // default-pipeline jobs, so it must cross the wire for the two
    // ends to fingerprint identically.
    out += ",\"rtag\":" + quoted(job.runnerTag);
    out += ",\"seed\":" + u64(job.seed);
    out += ",\"insts\":" + u64(job.insts);
    out += ",\"warmup\":" + u64(job.warmup);
    out += ",\"cores\":" + u64(job.cores);
    out += ",\"qdepth\":" + u64(job.queueDepth);
    out += ",\"smp\":{\"on\":" + u64(job.sampling.enabled ? 1 : 0);
    out += ",\"ff\":" + u64(job.sampling.ffLength);
    out += ",\"warm\":" + u64(job.sampling.warmupLength);
    out += ",\"int\":" + u64(job.sampling.interval);
    out += ",\"n\":" + u64(job.sampling.intervals);
    out += ",\"seed\":" + u64(job.sampling.seed) + "}";
    out += ",\"params\":{";
    bool first = true;
    forEachUarchField(job.params,
                      [&](const char *key, const auto &v) {
        if (!first)
            out += ",";
        first = false;
        out += quoted(key) + ":" +
               u64(static_cast<std::uint64_t>(v));
    });
    out += "}}";
    return out;
}

bool
jobFromWire(const JsonValue &v, SweepJob &out, std::string &error)
{
    if (v.kind != JsonValue::Kind::Object) {
        error = "job is not an object";
        return false;
    }
    out = SweepJob();

    std::string bench, suite_name;
    if (!getString(v, "bench", bench, error) ||
        !getString(v, "suite", suite_name, error) ||
        !getString(v, "config", out.config, error) ||
        !getString(v, "memsys", out.memsysLabel, error) ||
        !getString(v, "rtag", out.runnerTag, error))
        return false;

    Suite suite = Suite::Media;
    if (!suiteFromName(suite_name, suite)) {
        error = "unknown suite '" + suite_name + "'";
        return false;
    }

    out.profile = findProfile(bench);
    if (out.profile != nullptr) {
        if (out.profile->suite != suite) {
            error = "suite '" + suite_name +
                    "' disagrees with benchmark '" + bench + "'";
            return false;
        }
    } else if (isMulticoreWorkload(bench)) {
        out.benchmark = bench;
        out.suite = suite;
    } else {
        error = "unknown workload '" + bench +
                "' (not a benchmark profile or multicore kernel "
                "in this binary)";
        return false;
    }

    std::uint64_t cores = 0, qdepth = 0;
    if (!getU64(v, "seed", out.seed, error) ||
        !getU64(v, "insts", out.insts, error) ||
        !getU64(v, "warmup", out.warmup, error) ||
        !getU64(v, "cores", cores, error) ||
        !getU64(v, "qdepth", qdepth, error))
        return false;
    // An absurd core count is a malformed request, not a sweep: the
    // daemon must refuse it before a worker tries to allocate it.
    if (cores < 1 || cores > max_cores) {
        error = "field 'cores' must be in [1, " +
                std::to_string(max_cores) + "]";
        return false;
    }
    if (qdepth > 4096) {
        error = "field 'qdepth' must be <= 4096";
        return false;
    }
    out.cores = static_cast<unsigned>(cores);
    out.queueDepth = static_cast<unsigned>(qdepth);

    const JsonValue *smp = v.find("smp");
    if (smp == nullptr || smp->kind != JsonValue::Kind::Object) {
        error = "missing or non-object field 'smp'";
        return false;
    }
    std::uint64_t smp_on = 0;
    if (!getU64(*smp, "on", smp_on, error) ||
        !getU64(*smp, "ff", out.sampling.ffLength, error) ||
        !getU64(*smp, "warm", out.sampling.warmupLength, error) ||
        !getU64(*smp, "int", out.sampling.interval, error) ||
        !getU64(*smp, "n", out.sampling.intervals, error) ||
        !getU64(*smp, "seed", out.sampling.seed, error)) {
        error = "smp: " + error;
        return false;
    }
    if (smp_on > 1) {
        error = "smp field 'on' must be 0 or 1";
        return false;
    }
    out.sampling.enabled = smp_on == 1;
    if (out.sampling.enabled) {
        try {
            validateSamplingParams(out.sampling);
        } catch (const std::invalid_argument &e) {
            error = std::string("smp: ") + e.what();
            return false;
        }
    }

    const JsonValue *params = v.find("params");
    if (params == nullptr) {
        error = "missing field 'params'";
        return false;
    }
    return paramsFromWire(*params, out.params, error);
}

// --- client requests --------------------------------------------------------

bool
parseRequestLine(const std::string &line, Request &out,
                 std::string &error)
{
    if (line.size() > max_request_bytes) {
        error = "request line exceeds " +
                std::to_string(max_request_bytes) + " bytes";
        return false;
    }
    JsonValue v;
    std::string parse_error;
    if (!parseJson(line, v, &parse_error)) {
        error = "malformed JSON: " + parse_error;
        return false;
    }
    if (v.kind != JsonValue::Kind::Object) {
        error = "request is not a JSON object";
        return false;
    }
    std::string schema;
    if (!getString(v, "schema", schema, error))
        return false;
    if (schema != serve_schema) {
        error = "unsupported schema '" + schema + "' (expected " +
                std::string(serve_schema) + ")";
        return false;
    }
    std::string op;
    if (!getString(v, "op", op, error))
        return false;

    out = Request();
    if (op == "status") {
        out.op = Request::Op::Status;
        return true;
    }
    if (op == "metrics") {
        out.op = Request::Op::Metrics;
        return true;
    }
    if (op == "results") {
        out.op = Request::Op::Results;
        if (!getString(v, "fp", out.fp, error))
            return false;
        if (out.fp.empty() || out.fp.size() > 64) {
            error = "field 'fp' is not a fingerprint";
            return false;
        }
        return true;
    }
    if (op == "cancel") {
        out.op = Request::Op::Cancel;
        if (!getString(v, "ticket", out.ticket, error))
            return false;
        if (out.ticket.empty() || out.ticket.size() > 64) {
            error = "field 'ticket' is not a ticket id";
            return false;
        }
        return true;
    }
    if (op != "submit") {
        error = "unknown op '" + op + "'";
        return false;
    }

    out.op = Request::Op::Submit;
    const JsonValue *jobs = v.find("jobs");
    if (jobs == nullptr || jobs->kind != JsonValue::Kind::Array) {
        error = "missing or non-array field 'jobs'";
        return false;
    }
    if (jobs->array.empty()) {
        error = "submit carries no jobs";
        return false;
    }
    if (jobs->array.size() > max_jobs_per_submit) {
        error = "submit carries " +
                std::to_string(jobs->array.size()) +
                " jobs (limit " +
                std::to_string(max_jobs_per_submit) + ")";
        return false;
    }
    out.jobs.reserve(jobs->array.size());
    for (std::size_t i = 0; i < jobs->array.size(); ++i) {
        SweepJob job;
        std::string job_error;
        if (!jobFromWire(jobs->array[i], job, job_error)) {
            error = "job " + std::to_string(i) + ": " + job_error;
            return false;
        }
        out.jobs.push_back(std::move(job));
    }
    return true;
}

std::string
submitRequestLine(const std::vector<SweepJob> &jobs,
                  std::string *error)
{
    std::string out = "{\"schema\":";
    out += quoted(serve_schema);
    out += ",\"op\":\"submit\",\"jobs\":[";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::string job_error;
        const std::string wire = jobToWire(jobs[i], &job_error);
        if (wire.empty()) {
            if (error != nullptr)
                *error = "job " + std::to_string(i) + ": " +
                         job_error;
            return "";
        }
        if (i != 0)
            out += ",";
        out += wire;
    }
    out += "]}\n";
    return out;
}

std::string
statusRequestLine()
{
    return "{\"schema\":" + quoted(serve_schema) +
           ",\"op\":\"status\"}\n";
}

std::string
resultsRequestLine(const std::string &fp)
{
    return "{\"schema\":" + quoted(serve_schema) +
           ",\"op\":\"results\",\"fp\":" + quoted(fp) + "}\n";
}

std::string
cancelRequestLine(const std::string &ticket)
{
    return "{\"schema\":" + quoted(serve_schema) +
           ",\"op\":\"cancel\",\"ticket\":" + quoted(ticket) +
           "}\n";
}

std::string
metricsRequestLine()
{
    return "{\"schema\":" + quoted(serve_schema) +
           ",\"op\":\"metrics\"}\n";
}

// --- daemon replies ---------------------------------------------------------

std::string
errorReplyLine(const std::string &message)
{
    return "{\"ok\":false,\"error\":" + quoted(message) + "}\n";
}

std::string
metricsReplyLine(const std::string &exposition)
{
    return "{\"ok\":true,\"format\":\"prometheus-text-0.0.4\","
           "\"metrics\":" +
           quoted(exposition) + "}\n";
}

bool
parseMetricsReplyLine(const std::string &line,
                      std::string &exposition, std::string &error)
{
    JsonValue v;
    std::string parse_error;
    if (!parseJson(line, v, &parse_error)) {
        error = "malformed metrics reply: " + parse_error;
        return false;
    }
    if (v.kind != JsonValue::Kind::Object) {
        error = "metrics reply is not a JSON object";
        return false;
    }
    const JsonValue *okv = v.find("ok");
    if (okv == nullptr || okv->kind != JsonValue::Kind::Bool ||
        !okv->boolean) {
        const JsonValue *msg = v.find("error");
        error = msg != nullptr &&
                        msg->kind == JsonValue::Kind::String
                    ? msg->string
                    : "metrics request refused";
        return false;
    }
    const JsonValue *text = v.find("metrics");
    if (text == nullptr || text->kind != JsonValue::Kind::String) {
        error = "metrics reply carries no 'metrics' string";
        return false;
    }
    exposition = text->string;
    return true;
}

std::string
submitAckLine(const std::string &ticket, std::size_t jobs,
              std::size_t cached, std::size_t shared)
{
    return "{\"ok\":true,\"ticket\":" + quoted(ticket) +
           ",\"jobs\":" + u64(jobs) + ",\"cached\":" + u64(cached) +
           ",\"shared\":" + u64(shared) + "}\n";
}

std::string
statusReplyLine(const ServerStatus &status)
{
    std::string reply = "{\"ok\":true";
    for (const ServeStatRow &row : serve_stat_rows) {
        if (row.statusKey == nullptr)
            continue;
        reply += ",\"" + std::string(row.statusKey) + "\":";
        if (row.flag != nullptr)
            reply += status.*row.flag ? "true" : "false";
        else
            reply += u64(status.*row.count);
    }
    reply += ",\"job_attempts\":{";
    bool first = true;
    for (const auto &[fp, attempts] : status.job_attempts) {
        if (!first)
            reply += ",";
        first = false;
        reply += quoted(fp) + ":" + u64(attempts);
    }
    reply += "},\"quarantine\":{";
    first = true;
    for (const auto &[fp, reason] : status.quarantine) {
        if (!first)
            reply += ",";
        first = false;
        reply += quoted(fp) + ":" + quoted(reason);
    }
    reply += "},\"faults\":";
    reply += status.faults_json.empty() ? "{}" : status.faults_json;
    reply += "}\n";
    return reply;
}

void
setServeMetrics(obs::MetricsRegistry &metrics,
                const ServerStatus &status)
{
    for (const ServeStatRow &row : serve_stat_rows) {
        const ServeMetricDef &def = row.metric;
        if (def.name == nullptr)
            continue;
        if (std::string(def.type) == "counter")
            metrics.counter(def.name, def.help).set(status.*row.count);
        else
            metrics.gauge(def.name, def.help).set(row.valueOf(status));
    }
}

std::string
jobResultLine(std::size_t index, const std::string &fp,
              const RunResult &run)
{
    return "{\"job\":" + u64(index) + ",\"fp\":" + quoted(fp) +
           ",\"run\":" + runResultRecord(run) + "}\n";
}

std::string
jobErrorLine(std::size_t index, const std::string &fp,
             const std::string &message)
{
    return "{\"job\":" + u64(index) + ",\"fp\":" + quoted(fp) +
           ",\"error\":" + quoted(message) + "}\n";
}

std::string
doneLine(const std::string &ticket, std::size_t jobs)
{
    return "{\"done\":true,\"ticket\":" + quoted(ticket) +
           ",\"jobs\":" + u64(jobs) + "}\n";
}

// --- worker channel framing -------------------------------------------------

std::string
workerJobLine(std::uint64_t id, const SweepJob &job)
{
    // The daemon only dispatches jobs that arrived through
    // jobFromWire(), so re-serialization cannot fail; the error slot
    // is unreachable here.
    std::string error;
    return "{\"id\":" + u64(id) + ",\"job\":" +
           jobToWire(job, &error) + "}\n";
}

bool
parseWorkerJobLine(const std::string &line, std::uint64_t &id,
                   SweepJob &out, std::string &error)
{
    JsonValue v;
    std::string parse_error;
    if (!parseJson(line, v, &parse_error)) {
        error = "malformed JSON: " + parse_error;
        return false;
    }
    if (v.kind != JsonValue::Kind::Object ||
        !getU64(v, "id", id, error)) {
        error = error.empty() ? "job frame is not an object"
                              : error;
        return false;
    }
    const JsonValue *job = v.find("job");
    if (job == nullptr) {
        error = "missing field 'job'";
        return false;
    }
    return jobFromWire(*job, out, error);
}

std::string
workerResultLine(std::uint64_t id, const std::string &fp,
                 const RunResult &run)
{
    return "{\"id\":" + u64(id) + ",\"fp\":" + quoted(fp) +
           ",\"run\":" + runResultRecord(run) + "}\n";
}

std::string
workerErrorLine(std::uint64_t id, const std::string &fp,
                const std::string &message)
{
    return "{\"id\":" + u64(id) + ",\"fp\":" + quoted(fp) +
           ",\"error\":" + quoted(message) + "}\n";
}

bool
parseWorkerResultLine(const std::string &line, WorkerResult &out,
                      std::string &error)
{
    JsonValue v;
    std::string parse_error;
    if (!parseJson(line, v, &parse_error)) {
        error = "malformed JSON: " + parse_error;
        return false;
    }
    if (v.kind != JsonValue::Kind::Object) {
        error = "result frame is not an object";
        return false;
    }
    out = WorkerResult();
    if (!getU64(v, "id", out.id, error) ||
        !getString(v, "fp", out.fp, error))
        return false;
    if (const JsonValue *err = v.find("error")) {
        if (err->kind != JsonValue::Kind::String) {
            error = "non-string field 'error'";
            return false;
        }
        out.error = err->string;
        if (out.error.empty()) {
            error = "empty worker error message";
            return false;
        }
        return true;
    }
    const JsonValue *run = v.find("run");
    if (run == nullptr) {
        error = "result frame carries neither 'run' nor 'error'";
        return false;
    }
    if (!runResultFromJson(*run, out.run)) {
        error = "unrestorable 'run' record";
        return false;
    }
    return true;
}

} // namespace serve
} // namespace nosq
