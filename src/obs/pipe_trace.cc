/**
 * @file
 * Chrome trace_event JSON emission (see pipe_trace.hh).
 */

#include "obs/pipe_trace.hh"

#include "common/cli.hh"

namespace nosq {
namespace obs {

bool
parsePipeTraceSpec(const std::string &spec, PipeTraceConfig &out,
                   std::string &error)
{
    out = PipeTraceConfig();
    const std::vector<std::string> fields = cli::splitList(spec, ':');
    out.path = fields.front();
    if (fields.size() == 2 || fields.size() > 3) {
        error = "trace spec '" + spec +
                "' is neither FILE nor FILE:skip:count";
        return false;
    }
    if (fields.size() == 3) {
        try {
            out.skip = cli::parseNumber(fields[1], 0, ~std::uint64_t(0));
            out.count = cli::parseNumber(fields[2], 0, ~std::uint64_t(0));
        } catch (const cli::UsageError &) {
            error = "trace spec '" + spec +
                    "' has a non-numeric window field";
            return false;
        }
    }
    if (out.path.empty()) {
        error = "trace spec '" + spec + "' names no file";
        return false;
    }
    return true;
}

PipeTracer::PipeTracer(PipeTraceConfig config)
    : cfg(std::move(config))
{
}

PipeTracer::~PipeTracer()
{
    std::string ignored;
    finish(ignored);
}

bool
PipeTracer::open(std::string &error)
{
    out = std::fopen(cfg.path.c_str(), "w");
    if (out == nullptr) {
        error = "cannot open trace file '" + cfg.path + "'";
        return false;
    }
    if (std::fputs("{\"traceEvents\":[", out) < 0) {
        error = "write to trace file '" + cfg.path + "' failed";
        std::fclose(out);
        out = nullptr;
        return false;
    }
    return true;
}

void
PipeTracer::event(TraceLane lane, const char *cat, const char *name,
                  std::uint64_t cycle_ts, std::uint64_t seq,
                  std::uint64_t pc, const std::string &extra_args)
{
    if (out == nullptr || failed || !inWindow(seq))
        return;
    // Instant events ("ph":"i", thread scope): every hook marks a
    // point in time; durations would require pairing stage entry and
    // exit, which the stages themselves do not model.
    const int n = std::fprintf(
        out,
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
        "\"s\":\"t\",\"ts\":%llu,\"pid\":0,\"tid\":%u,"
        "\"args\":{\"seq\":%llu,\"pc\":\"0x%llx\"%s%s}}",
        emitted == 0 ? "" : ",", name, cat,
        static_cast<unsigned long long>(cycle_ts),
        static_cast<unsigned>(lane),
        static_cast<unsigned long long>(seq),
        static_cast<unsigned long long>(pc),
        extra_args.empty() ? "" : ",", extra_args.c_str());
    if (n < 0) {
        // Keep simulating: tracing is observability, not ground
        // truth, so a full disk must not alter the run. finish()
        // reports the failure.
        failed = true;
        return;
    }
    ++emitted;
}

bool
PipeTracer::finish(std::string &error)
{
    if (out == nullptr)
        return !failed;
    bool ok = !failed;
    if (std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", out) < 0)
        ok = false;
    if (std::fclose(out) != 0)
        ok = false;
    out = nullptr;
    if (!ok) {
        failed = true;
        error = "write to trace file '" + cfg.path + "' failed";
    }
    return ok;
}

} // namespace obs
} // namespace nosq
