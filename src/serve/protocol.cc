/**
 * @file
 * nosq-serve-v1 message building and parsing (see protocol.hh).
 */

#include "serve/protocol.hh"

#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "memsys/coherence.hh"
#include "ooo/uarch_params.hh"
#include "sim/journal.hh"
#include "sim/sampling.hh"
#include "workload/multicore.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace serve {

namespace {

/** Room for one job's wire form (about 1.2 KB with today's
 * UarchParams). */
constexpr std::size_t job_wire_bytes = 1536;

std::string
quoted(std::string_view s)
{
    std::string out;
    jsonString(out, s);
    return out;
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

/** The params wire keys, in forEachUarchField order. */
const std::vector<std::string_view> &
paramsKeys()
{
    static const std::vector<std::string_view> keys = [] {
        std::vector<std::string_view> out;
        UarchParams probe;
        forEachUarchField(probe, [&](const char *key, auto &) {
            out.emplace_back(key);
        });
        return out;
    }();
    return keys;
}

/**
 * Parse the "params" wire object into @p params. Strict both ways:
 * every enumerated field must be present and in range for its member
 * type, and every wire key must be enumerated -- an unknown key
 * means the two binaries disagree about UarchParams, and
 * half-applying the rest would fingerprint a configuration nobody
 * asked for. jobToWire() writes the keys in forEachUarchField order,
 * so each is read at its own position; a sender's other order is
 * indexed by name once, which finds a repeat in one pass.
 */
bool
paramsFromWire(const JsonValue &v, UarchParams &params,
               std::string &error)
{
    if (v.kind != JsonValue::Kind::Object) {
        error = "'params' is not an object";
        return false;
    }
    const std::vector<std::string_view> &keys = paramsKeys();
    const auto &members = v.object;
    // While in_order, members [0, i) are the first i keys, so hold no
    // repeat; from the first member out of place, all are indexed.
    bool in_order = true;
    std::unordered_map<std::string_view, const JsonValue *> index;
    for (std::size_t i = 0; i < members.size(); ++i) {
        const std::string &key = members[i].first;
        std::uint64_t n = 0;
        if (!jsonExactCounter(members[i].second, n)) {
            error = "params field '" + key +
                    "' is not an exact non-negative integer";
            return false;
        }
        if (in_order && i < keys.size() && key == keys[i])
            continue;
        if (in_order) {
            in_order = false;
            index.reserve(members.size());
            for (std::size_t j = 0; j < i; ++j)
                index.emplace(members[j].first, &members[j].second);
        }
        if (!index.emplace(key, &members[i].second).second) {
            error = "duplicate params field '" + key + "'";
            return false;
        }
    }
    // The member holding keys[k]. In order, the members are a prefix
    // of the keys; otherwise it is taken out of the index, which so
    // ends holding just the members no key names.
    const auto find = [&](std::size_t k) -> const JsonValue * {
        if (in_order)
            return k < members.size() ? &members[k].second : nullptr;
        const auto it = index.find(keys[k]);
        if (it == index.end())
            return nullptr;
        const JsonValue *member = it->second;
        index.erase(it);
        return member;
    };
    bool ok = true;
    std::size_t next = 0;
    forEachUarchField(params, [&](const char *key, auto &slot) {
        if (!ok)
            return;
        const JsonValue *member = find(next++);
        if (member == nullptr) {
            error = std::string("params missing field '") + key +
                    "'";
            ok = false;
            return;
        }
        // Exact: every member passed jsonExactCounter() above.
        std::uint64_t n = 0;
        jsonExactCounter(*member, n);
        using T = std::decay_t<decltype(slot)>;
        slot = static_cast<T>(n);
        // Round-trip equality rejects any value the member cannot
        // hold exactly (oversized widths, bools > 1, enum codes
        // beyond the narrow storage type).
        if (static_cast<std::uint64_t>(slot) != n) {
            error = std::string("params field '") + key +
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
    });
    if (!ok)
        return false;
    // Every key was found and none repeats, so the members left in
    // the index are ones this binary does not enumerate: name the
    // first.
    if (index.empty())
        return true;
    for (const auto &[key, member] : members) {
        (void)member;
        if (index.count(key) != 0) {
            error = "unknown params field '" + key + "'";
            return false;
        }
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

    std::string out;
    out.reserve(job_wire_bytes);
    out += "{\"bench\":";
    jsonString(out, bench);
    out += ",\"suite\":";
    jsonString(out, suiteName(suite));
    out += ",\"config\":";
    jsonString(out, job.config);
    out += ",\"memsys\":";
    jsonString(out, job.memsysLabel);
    // runnerTag is hashed into the job fingerprint even for
    // default-pipeline jobs, so it must cross the wire for the two
    // ends to fingerprint identically.
    out += ",\"rtag\":";
    jsonString(out, job.runnerTag);
    out += ",\"seed\":";
    jsonU64(out, job.seed);
    out += ",\"insts\":";
    jsonU64(out, job.insts);
    out += ",\"warmup\":";
    jsonU64(out, job.warmup);
    out += ",\"cores\":";
    jsonU64(out, job.cores);
    out += ",\"qdepth\":";
    jsonU64(out, job.queueDepth);
    out += ",\"smp\":{\"on\":";
    jsonU64(out, job.sampling.enabled ? 1 : 0);
    out += ",\"ff\":";
    jsonU64(out, job.sampling.ffLength);
    out += ",\"warm\":";
    jsonU64(out, job.sampling.warmupLength);
    out += ",\"int\":";
    jsonU64(out, job.sampling.interval);
    out += ",\"n\":";
    jsonU64(out, job.sampling.intervals);
    out += ",\"seed\":";
    jsonU64(out, job.sampling.seed);
    out += "},\"params\":{";
    const char *separator = "\"";
    forEachUarchField(job.params,
                      [&](const char *key, const auto &v) {
        out += separator;
        separator = ",\"";
        out += key;
        out += "\":";
        jsonU64(out, static_cast<std::uint64_t>(v));
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
    std::string out;
    out.reserve(64 + jobs.size() * job_wire_bytes);
    out += "{\"schema\":";
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

ReplyCheck
checkReplyLine(const std::string &line, JsonValue &reply,
               std::string &detail)
{
    detail.clear();
    if (!parseJson(line, reply, &detail))
        return ReplyCheck::Malformed;
    if (reply.kind != JsonValue::Kind::Object) {
        detail = "not a JSON object";
        return ReplyCheck::Malformed;
    }
    const JsonValue *okv = reply.find("ok");
    if (okv != nullptr && okv->kind == JsonValue::Kind::Bool &&
        okv->boolean)
        return ReplyCheck::Ok;
    if (const JsonValue *msg = reply.find("error");
        msg != nullptr && msg->kind == JsonValue::Kind::String)
        detail = msg->string;
    return ReplyCheck::Refused;
}

bool
parseMetricsReplyLine(const std::string &line,
                      std::string &exposition, std::string &error)
{
    JsonValue v;
    switch (checkReplyLine(line, v, error)) {
      case ReplyCheck::Malformed:
        error = "malformed metrics reply: " + error;
        return false;
      case ReplyCheck::Refused:
        if (error.empty())
            error = "metrics request refused";
        return false;
      case ReplyCheck::Ok:
        break;
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

std::string
metricsExposition(const ServerStatus &status, const FaultInjector &faults,
                  const obs::Histogram &submit_latency,
                  const obs::Histogram &service_time)
{
    std::string out;
    auto header = [&out](const ServeMetricDef &def) {
        obs::exposeHeader(out, def.name, def.type, def.help);
    };
    for (const ServeStatRow &row : serve_stat_rows) {
        if (row.metric.name == nullptr)
            continue;
        header(row.metric);
        if (row.count != nullptr)
            obs::exposeSample(out, row.metric.name, "",
                              status.*row.count);
        else
            obs::exposeSample(out, row.metric.name, "",
                              row.valueOf(status));
    }
    if (faults.enabled()) {
        using Count = std::uint64_t (FaultInjector::*)(FaultSite) const;
        const std::pair<ServeMetricDef, Count> families[] = {
            {fault_hits_metric, &FaultInjector::hits},
            {fault_fired_metric, &FaultInjector::fired}};
        for (const auto &[def, count] : families) {
            header(def);
            for (std::size_t i = 0; i < fault_site_count; ++i) {
                const FaultSite site = static_cast<FaultSite>(i);
                if (faults.planned(site))
                    obs::exposeSample(
                        out, def.name,
                        "site=\"" + std::string(faultSiteName(site)) +
                            "\"",
                        (faults.*count)(site));
            }
        }
    }
    header(submit_latency_metric);
    obs::exposeHistogram(out, submit_latency_metric.name, submit_latency);
    header(service_time_metric);
    obs::exposeHistogram(out, service_time_metric.name, service_time);
    return out;
}

namespace {

/** Start a result line: `{"job":N,"fp":...` or, for a worker
 * frame, `{"fp":...`. */
std::string
resultLineHead(std::optional<std::size_t> index, const std::string &fp,
               std::size_t reserve)
{
    std::string line;
    line.reserve(reserve);
    line += '{';
    if (index) {
        line += "\"job\":";
        jsonU64(line, *index);
        line += ',';
    }
    line += "\"fp\":";
    jsonString(line, fp);
    return line;
}

} // anonymous namespace

std::string
jobResultLine(std::optional<std::size_t> index, const std::string &fp,
              const RunResult &run)
{
    std::string line = resultLineHead(index, fp, 1024);
    line += ",\"run\":";
    appendJson(line, run, JsonSpacing::Compact);
    line += "}\n";
    return line;
}

std::string
jobErrorLine(std::optional<std::size_t> index, const std::string &fp,
             const std::string &message)
{
    std::string line = resultLineHead(index, fp, 64 + message.size());
    line += ",\"error\":";
    jsonString(line, message);
    line += "}\n";
    return line;
}

std::string
doneLine(const std::string &ticket, std::size_t jobs)
{
    return "{\"done\":true,\"ticket\":" + quoted(ticket) +
           ",\"jobs\":" + u64(jobs) + "}\n";
}

bool
parseJobResultLine(const std::string &line, JobResult &out,
                   std::string &error)
{
    JsonValue v;
    std::string parse_error;
    if (!parseJson(line, v, &parse_error)) {
        error = "malformed JSON: " + parse_error;
        return false;
    }
    if (v.kind != JsonValue::Kind::Object) {
        error = "result line is not an object";
        return false;
    }
    out = JobResult();
    if (v.find("job") != nullptr) {
        std::uint64_t index = 0;
        if (!getU64(v, "job", index, error))
            return false;
        out.index = index;
    }
    if (!getString(v, "fp", out.fp, error))
        return false;
    if (const JsonValue *err = v.find("error")) {
        if (err->kind != JsonValue::Kind::String) {
            error = "non-string field 'error'";
            return false;
        }
        out.error = err->string;
        if (out.error.empty()) {
            error = "empty error message";
            return false;
        }
        return true;
    }
    const JsonValue *run = v.find("run");
    if (run == nullptr) {
        error = "result line carries neither 'run' nor 'error'";
        return false;
    }
    if (!runResultFromJson(*run, out.run)) {
        error = "unrestorable 'run' record";
        return false;
    }
    return true;
}

// --- worker job frames ------------------------------------------------------

std::string
workerJobLine(const SweepJob &job, FaultAction fault)
{
    // The daemon only dispatches jobs that arrived through
    // jobFromWire(), so re-serialization cannot fail; the error slot
    // is unreachable here.
    std::string error;
    std::string line = "{";
    if (fault != FaultAction::None) {
        line += "\"fault\":";
        jsonString(line, faultActionName(fault));
        line += ',';
    }
    line += "\"job\":";
    line += jobToWire(job, &error);
    line += "}\n";
    return line;
}

bool
parseWorkerJobLine(const std::string &line, SweepJob &out,
                   FaultAction &fault, std::string &error)
{
    JsonValue v;
    std::string parse_error;
    if (!parseJson(line, v, &parse_error)) {
        error = "malformed JSON: " + parse_error;
        return false;
    }
    if (v.kind != JsonValue::Kind::Object) {
        error = "job frame is not an object";
        return false;
    }
    fault = FaultAction::None;
    if (const JsonValue *f = v.find("fault");
        f != nullptr && (f->kind != JsonValue::Kind::String ||
                         !parseFaultAction(f->string, fault))) {
        error = "bad field 'fault'";
        return false;
    }
    const JsonValue *job = v.find("job");
    if (job == nullptr) {
        error = "missing field 'job'";
        return false;
    }
    return jobFromWire(*job, out, error);
}

// --- framing ----------------------------------------------------------------

LineChannel &
LineChannel::operator=(LineChannel &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        read_ = other.read_;
        send_ = other.send_;
        in_ = std::move(other.in_);
        consumed_ = other.consumed_;
        scanned_ = other.scanned_;
        out_ = std::move(other.out_);
    }
    return *this;
}

void
LineChannel::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

LineChannel::Io
LineChannel::fill()
{
    if (consumed_ > 0) {
        in_.erase(0, consumed_);
        scanned_ -= consumed_;
        consumed_ = 0;
    }
    char buffer[1 << 16];
    for (;;) {
        const ssize_t got = read_(fd_, buffer, sizeof(buffer));
        if (got > 0) {
            in_.append(buffer, static_cast<std::size_t>(got));
            return Io::Done;
        }
        if (got == 0)
            return Io::Closed;
        if (errno == EINTR)
            continue;
        return errno == EAGAIN || errno == EWOULDBLOCK ? Io::Again
                                                       : Io::Error;
    }
}

bool
LineChannel::nextLine(std::string &line)
{
    const std::size_t nl = in_.find('\n', scanned_);
    if (nl == std::string::npos) {
        scanned_ = in_.size();
        return false;
    }
    line.assign(in_, consumed_, nl - consumed_);
    consumed_ = scanned_ = nl + 1;
    if (consumed_ == in_.size())
        discardInput();
    return true;
}

void
LineChannel::discardInput()
{
    in_.clear();
    consumed_ = scanned_ = 0;
}

LineChannel::Io
LineChannel::readLine(std::string &line)
{
    while (!nextLine(line)) {
        const Io io = fill();
        if (io != Io::Done)
            return io;
    }
    return Io::Done;
}

LineChannel::Io
LineChannel::flush()
{
    std::size_t sent = 0;
    while (sent < out_.size()) {
        const ssize_t n = send_(fd_, out_.data() + sent,
                                out_.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        const Io io = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)
                          ? Io::Again
                          : Io::Error;
        out_.erase(0, sent);
        return io;
    }
    out_.clear();
    return Io::Done;
}

} // namespace serve
} // namespace nosq
