/**
 * @file
 * Error and status reporting, after gem5's logging conventions.
 *
 * panic()  - an internal invariant was violated (simulator bug); aborts.
 * fatal()  - the simulation cannot continue due to a user/config error;
 *            exits with an error code.
 * warn()   - something is suspicious but the simulation continues.
 * inform() - normal operational status.
 *
 * When the environment variable NOSQ_LOG_PREFIX is set (non-empty,
 * not "0"), warn() and inform() lines gain a
 * "[<ISO-8601 UTC> <role>/<pid>] " prefix so interleaved daemon and
 * worker output (nosq_sweepd forks its pool) can be attributed and
 * ordered. The role tag is set per process via setLogRole()
 * ("daemon", "worker"); without one the prefix carries just the
 * pid. Off by default: single-process tools keep byte-identical
 * output.
 */

#ifndef NOSQ_COMMON_LOGGING_HH
#define NOSQ_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace nosq {

/** Print a formatted message to stderr and abort. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Report the failed nosq_assert() condition @p cond, verbatim, and
 * the caller's formatted message, then abort. */
[[noreturn, gnu::cold]] void
assertFailImpl(const char *file, int line, const char *cond,
               const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/** Print a formatted message to stderr and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Print a formatted warning to stderr. */
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a formatted status message to stdout. */
void informImpl(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Set this process's role tag for the NOSQ_LOG_PREFIX line prefix
 * (e.g. "daemon", "worker"). Survives fork(); call again in the
 * child to re-tag it. */
void setLogRole(const char *role);

/** The rendered "[<ISO-8601 UTC> <role>/<pid>] " prefix, or "" when
 * NOSQ_LOG_PREFIX is unset/empty/"0". Exposed so subsystems with
 * their own line formats (serve/dispatcher.cc's logLine()) stay
 * consistent with warn()/inform(). */
std::string logPrefix();

} // namespace nosq

#define nosq_panic(...) \
    ::nosq::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

#define nosq_fatal(...) \
    ::nosq::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

#define nosq_warn(...) ::nosq::warnImpl(__VA_ARGS__)

#define nosq_inform(...) ::nosq::informImpl(__VA_ARGS__)

/**
 * Invariant check that is active in all build types (unlike assert).
 * Use for simulator-correctness invariants whose violation indicates a
 * modeling bug. The arguments after @p cond are a printf format and
 * its arguments, printed after the condition's text.
 */
#define nosq_assert(cond, ...)                                         \
    do {                                                               \
        if (!(cond))                                                   \
            ::nosq::assertFailImpl(__FILE__, __LINE__, #cond,          \
                                   __VA_ARGS__);                       \
    } while (0)

#endif // NOSQ_COMMON_LOGGING_HH
