#include "common/cli.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace nosq::cli {

namespace {

/** Help text wraps to this many columns. */
constexpr std::size_t help_width = 79;

const Option *
findOption(const Table &table, const std::string &flag)
{
    for (const Option &option : table.options) {
        if (option.flag != nullptr && flag == option.flag)
            return &option;
    }
    return nullptr;
}

/** "--flag", "--flag METAVAR" or "--flag[=METAVAR]". */
std::string
synopsis(const Option &option)
{
    std::string out = option.flag;
    if (option.metavar == nullptr)
        return out;
    if (option.arg == Arg::Optional)
        return out + "[=" + option.metavar + "]";
    return out + " " + option.metavar;
}

/**
 * Append @p text word-wrapped to help_width, continuation lines
 * indented to @p indent, the column the first line starts at.
 */
void
wrap(std::string &out, const std::string &text, std::size_t indent)
{
    std::istringstream words(text);
    std::string word;
    std::size_t column = indent;
    while (words >> word) {
        if (column > indent && column + 1 + word.size() > help_width) {
            out += "\n" + std::string(indent, ' ');
            column = indent;
        } else if (column > indent) {
            out += ' ';
            ++column;
        }
        out += word;
        column += word.size();
    }
    out += '\n';
}

} // anonymous namespace

Parsed
parse(const Table &table, int argc, char **argv)
{
    Parsed parsed;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        bool attached = false;
        const std::size_t eq = flag.find('=');
        if (flag.rfind("--", 0) == 0 && eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
            attached = true;
        }
        const Option *option = findOption(table, flag);
        if (option == nullptr) {
            throw UsageError("unknown option '" + std::string(argv[i]) +
                             "'");
        }
        const bool takes_value = option->arg == Arg::Required ||
            option->arg == Arg::Optional;
        if (attached && !takes_value)
            throw UsageError(flag + " takes no value");
        if (option->arg == Arg::Required && !attached) {
            if (i + 1 >= argc) {
                throw UsageError(flag + " needs a value (" +
                                 option->metavar + ")");
            }
            value = argv[++i];
        }
        if (value.empty() && (attached || option->arg == Arg::Required))
            throw UsageError(flag + " needs a non-empty value");
        if (option->arg == Arg::Help) {
            parsed.help = true;
            return parsed;
        }
        try {
            option->apply(value);
        } catch (const UsageError &e) {
            throw UsageError(flag + ": " + e.what());
        }
        parsed.given.push_back(option);
    }
    return parsed;
}

void
checkModes(const Table &table, const Parsed &parsed, ModeMask mode)
{
    for (const Option *option : parsed.given) {
        if ((option->modes & mode) != 0)
            continue;
        const char *name = "this";
        for (const auto &[bit, mode_name] : table.modeNames) {
            if (bit == mode)
                name = mode_name;
        }
        throw UsageError(std::string(option->flag) +
                         " does not apply to " + name + " mode");
    }
}

std::string
renderHelp(const Table &table)
{
    std::size_t flag_width = 0;
    for (const Option &option : table.options) {
        if (option.flag != nullptr && option.help != nullptr)
            flag_width = std::max(flag_width, synopsis(option).size());
    }
    const std::size_t indent = 2 + flag_width + 2;

    std::string out = std::string(table.usage) + "\n";
    if (table.intro != nullptr) {
        out += "\n";
        wrap(out, table.intro, 0);
        out += "\n";
    }
    for (const Option &option : table.options) {
        if (option.help == nullptr)
            continue;
        if (option.flag == nullptr) {
            out += std::string(option.help) + "\n";
            continue;
        }
        std::string lead = "  " + synopsis(option);
        lead.resize(indent, ' ');
        out += lead;
        wrap(out, option.help, indent);
    }
    return out;
}

std::uint64_t
parseNumber(const std::string &text, std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        throw UsageError("'" + text + "' is not a number");
    std::uint64_t value = 0;
    bool overflow = false;
    for (const char c : text) {
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        overflow |= value > (~std::uint64_t(0) - digit) / 10;
        value = value * 10 + digit;
    }
    if (overflow || value < lo || value > hi) {
        throw UsageError("'" + text + "' is out of range (" +
                         std::to_string(lo) + ".." +
                         std::to_string(hi) + ")");
    }
    return value;
}

std::optional<std::uint64_t>
parseEnvNumber(const char *name, std::uint64_t lo, std::uint64_t hi)
{
    const char *value = std::getenv(name);
    if (value == nullptr)
        return std::nullopt;
    try {
        return parseNumber(value, lo, hi);
    } catch (const UsageError &e) {
        throw UsageError(std::string(name) + ": " + e.what());
    }
}

std::vector<std::string>
splitList(const std::string &list, char separator)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = list.find(separator, start);
        if (comma == std::string::npos) {
            items.push_back(list.substr(start));
            return items;
        }
        items.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
}

} // namespace nosq::cli
