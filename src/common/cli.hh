/**
 * @file
 * Table-driven command-line parsing for the tools.
 *
 * Each binary declares its flags once, as a table of Option rows:
 * the flag, what it takes, its metavar and help text, a handler that
 * stores the value, and the modes it applies to. The parser, the
 * `--help` text (renderHelp()) and the check that rejects a flag
 * given outside its modes (checkModes()) all come from that table.
 *
 * Every error is a UsageError whose message names the flag; the
 * binary prints it as one stderr line and picks the exit status.
 */

#ifndef NOSQ_COMMON_CLI_HH
#define NOSQ_COMMON_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace nosq::cli {

/** A malformed, unknown or misplaced flag. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Bit set of the modes of operation a flag applies to. */
using ModeMask = std::uint32_t;

/**
 * Stores a flag's value ("" for a switch or a bare Arg::Optional);
 * throws UsageError, which the parser prefixes with the flag.
 */
using Handler = std::function<void(const std::string &value)>;

/** What a flag takes on the command line. */
enum class Arg {
    None,     ///< a switch: --flag
    Required, ///< --flag VALUE or --flag=VALUE, never empty
    Optional, ///< --flag, or --flag=VALUE, never empty
    Help,     ///< ends parsing; the binary prints renderHelp()
};

/**
 * One row of an option table. A null @c flag makes the row a
 * section heading, printed as its @c help; a null @c help keeps a
 * flag out of the help text.
 */
struct Option
{
    const char *flag;
    Arg arg;
    /** Value placeholder in the help ("N", "FILE"), or null. */
    const char *metavar;
    const char *help;
    Handler apply;
    ModeMask modes = ~ModeMask(0);
};

/** A binary's whole flag surface. */
struct Table
{
    /** First help line, e.g. "usage: nosq_sim [options]". */
    const char *usage;
    /** Paragraph printed after the usage line, or null. */
    const char *intro;
    std::vector<Option> options;
    /** Each mode bit's name, for checkModes()' message. */
    std::vector<std::pair<ModeMask, const char *>> modeNames;
};

inline Option
heading(const char *text)
{
    return Option{nullptr, Arg::None, nullptr, text, {}};
}

/** What one command line gave. */
struct Parsed
{
    /** An Arg::Help flag was given; nothing after it was read. */
    bool help = false;
    /** The rows given, in order. */
    std::vector<const Option *> given;
};

/**
 * Parse argv[1..argc) against @p table, running each row's handler.
 * @throws UsageError on an unknown flag, a missing, empty or
 *         unexpected value, or a value the handler rejects
 */
Parsed parse(const Table &table, int argc, char **argv);

/**
 * @throws UsageError naming the first given flag that does not apply
 *         to @p mode (one bit)
 */
void checkModes(const Table &table, const Parsed &parsed,
                ModeMask mode);

/** The usage line, the intro and every listed row, word-wrapped. */
std::string renderHelp(const Table &table);

/**
 * Parse @p text as a decimal integer in [@p lo, @p hi]: digits only,
 * so a sign, blanks, a suffix or an overflow is an error.
 * @throws UsageError quoting the value
 */
std::uint64_t parseNumber(const std::string &text, std::uint64_t lo,
                          std::uint64_t hi);

/**
 * The environment variable @p name as parseNumber() reads it, or
 * nullopt when it is unset.
 * @throws UsageError naming the variable on a malformed value
 */
std::optional<std::uint64_t> parseEnvNumber(const char *name,
                                            std::uint64_t lo,
                                            std::uint64_t hi);

/** parseNumber() into an unsigned, by default over its full range. */
inline unsigned
parseUnsigned(const std::string &text, unsigned lo = 0,
              unsigned hi = std::numeric_limits<unsigned>::max())
{
    return static_cast<unsigned>(parseNumber(text, lo, hi));
}

// --- handlers for the common rows -----------------------------------------

/** Store the value in @p slot. */
inline Handler
store(std::string &slot)
{
    return [&slot](const std::string &v) { slot = v; };
}

/** A switch: set @p slot to @p value. */
inline Handler
set(bool &slot, bool value)
{
    return [&slot, value](const std::string &) { slot = value; };
}

/** Store parseNumber(value, lo, hi) in @p slot, an integer or an
 * std::optional of one. */
template <typename T>
Handler
number(T &slot, std::uint64_t lo, std::uint64_t hi)
{
    return [&slot, lo, hi](const std::string &v) {
        slot = parseNumber(v, lo, hi);
    };
}

/** Split a @p separator-separated list ("a,b" -> {"a", "b"}). */
std::vector<std::string> splitList(const std::string &list,
                                   char separator = ',');

} // namespace nosq::cli

#endif // NOSQ_COMMON_CLI_HH
