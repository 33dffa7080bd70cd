#include "common/logging.hh"

#include <cstdarg>
#include <cstring>
#include <ctime>

#include <unistd.h>

namespace nosq {

namespace {

std::string log_role;

bool
prefixEnabled()
{
    // Latched once: flipping the environment mid-run would tear
    // multi-line output apart anyway.
    static const bool enabled = [] {
        const char *v = std::getenv("NOSQ_LOG_PREFIX");
        return v != nullptr && *v != '\0' &&
               std::strcmp(v, "0") != 0;
    }();
    return enabled;
}

void
vreport(FILE *stream, const char *prefix, const char *fmt, va_list args)
{
    std::fprintf(stream, "%s", prefix);
    std::vfprintf(stream, fmt, args);
    std::fprintf(stream, "\n");
    std::fflush(stream);
}

} // anonymous namespace

void
setLogRole(const char *role)
{
    log_role = role != nullptr ? role : "";
}

std::string
logPrefix()
{
    if (!prefixEnabled())
        return "";
    char stamp[40];
    const std::time_t now = std::time(nullptr);
    struct tm utc;
    gmtime_r(&now, &utc);
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    std::string out = "[";
    out += stamp;
    out += " ";
    if (!log_role.empty()) {
        out += log_role;
        out += "/";
    }
    out += std::to_string(static_cast<long>(getpid()));
    out += "] ";
    return out;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    vreport(stderr, "", fmt, args);
    va_end(args);
    std::abort();
}

void
assertFailImpl(const char *file, int line, const char *cond,
               const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: assertion '%s' failed: ", file,
                 line, cond);
    va_list args;
    va_start(args, fmt);
    vreport(stderr, "", fmt, args);
    va_end(args);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    vreport(stderr, "", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(stderr, (logPrefix() + "warn: ").c_str(), fmt, args);
    va_end(args);
}

void
informImpl(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport(stdout, (logPrefix() + "info: ").c_str(), fmt, args);
    va_end(args);
}

} // namespace nosq
