#include "sim/report.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>

#include <unistd.h>

namespace nosq {

// --- reductions ------------------------------------------------------------

namespace {

constexpr const char *overall_group = "overall";

/** Per-benchmark value series behind one reductions cell. */
struct ReductionSeries
{
    std::size_t runs = 0;
    std::vector<double> relTime;
    std::vector<double> cacheReads;
    std::vector<double> reexecRate;
};

MeanPair
reduceSeries(const std::vector<double> &values)
{
    MeanPair m;
    if (values.empty()) {
        m.geomean = m.amean =
            std::numeric_limits<double>::quiet_NaN();
        return m;
    }
    m.geomean = geomean(values);
    m.amean = amean(values);
    return m;
}

double
totalCacheReads(const SimResult &r)
{
    return static_cast<double>(r.dcacheReadsCore +
                               r.dcacheReadsBackend);
}

/**
 * The "/wNNN" machine-size tail of a cross-product config name
 * (crossConfigs() naming), or "" for single-machine configs.
 * Relative series must never mix the paper's two machines, so a
 * run's baseline is the baseline config on the run's own window.
 */
std::string
windowSuffix(const std::string &config)
{
    const std::size_t at = config.rfind("/w");
    if (at == std::string::npos || at + 2 >= config.size())
        return "";
    for (std::size_t i = at + 2; i < config.size(); ++i)
        if (!std::isdigit(static_cast<unsigned char>(config[i])))
            return "";
    return config.substr(at);
}

/** @p config without its window suffix. */
std::string
configStem(const std::string &config)
{
    return config.substr(0,
                         config.size() - windowSuffix(config).size());
}

} // anonymous namespace

bool
statsValid(const RunResult &r)
{
    return r.valid && std::isfinite(r.sim.ipc());
}

SweepReductions
computeReductions(const std::vector<RunResult> &results,
                  const std::string &baseline_config)
{
    SweepReductions red;
    if (!baseline_config.empty())
        red.baseline = baseline_config;
    else if (!results.empty())
        red.baseline = results.front().config;

    // Baseline run per (benchmark, machine size), valid runs only:
    // in a two-window cross sweep each run normalizes against the
    // baseline mode on its own machine, matching the paper's
    // within-machine normalization of Figures 2 and 3.
    const std::string base_stem = configStem(red.baseline);
    std::map<std::string, const RunResult *> baselines;
    for (const RunResult &r : results)
        if (statsValid(r) && configStem(r.config) == base_stem)
            baselines.emplace(r.benchmark + '\0' +
                              windowSuffix(r.config), &r);

    // group -> config -> series, preserving first-appearance order.
    std::vector<std::string> group_order;
    std::map<std::string, std::vector<std::string>> config_order;
    std::map<std::string,
             std::map<std::string, ReductionSeries>> cells;

    auto add = [&](const std::string &group, const RunResult &r) {
        auto &group_cells = cells[group];
        if (group_cells.empty() && group != overall_group)
            group_order.push_back(group);
        auto [it, inserted] =
            group_cells.emplace(r.config, ReductionSeries());
        if (inserted)
            config_order[group].push_back(r.config);
        ReductionSeries &series = it->second;
        ++series.runs;
        series.reexecRate.push_back(r.sim.reexecRate());
        const auto base = baselines.find(
            r.benchmark + '\0' + windowSuffix(r.config));
        if (base == baselines.end())
            return;
        const SimResult &b = base->second->sim;
        if (b.cycles > 0) {
            series.relTime.push_back(
                static_cast<double>(r.sim.cycles) / b.cycles);
        }
        if (totalCacheReads(b) > 0) {
            series.cacheReads.push_back(totalCacheReads(r.sim) /
                                        totalCacheReads(b));
        }
    };

    for (const RunResult &r : results) {
        if (!statsValid(r))
            continue;
        add(suiteName(r.suite), r);
        add(overall_group, r);
    }
    if (cells.count(overall_group))
        group_order.push_back(overall_group);

    for (const std::string &group : group_order) {
        std::vector<std::pair<std::string, ReductionStats>> configs;
        for (const std::string &config : config_order[group]) {
            const ReductionSeries &series = cells[group][config];
            ReductionStats stats;
            stats.runs = series.runs;
            stats.relTime = reduceSeries(series.relTime);
            stats.cacheReads = reduceSeries(series.cacheReads);
            stats.reexecRate = reduceSeries(series.reexecRate);
            configs.emplace_back(config, stats);
        }
        red.groups.emplace_back(group, std::move(configs));
    }
    return red;
}

// --- emission --------------------------------------------------------------

bool
writeTextFile(const std::string &path, const std::string &contents)
{
    // Atomic replace (tmp + fsync + rename): a reader of `path`
    // sees the old bytes or the new bytes, never a truncated
    // half-report from a writer killed mid-stream.
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write '%s'\n", tmp.c_str());
        return false;
    }
    const bool wrote = std::fputs(contents.c_str(), f) >= 0 &&
                       std::fflush(f) == 0 &&
                       fsync(fileno(f)) == 0;
    if (std::fclose(f) != 0 || !wrote) {
        std::fprintf(stderr, "error writing '%s'\n", tmp.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "cannot replace '%s'\n", path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    // JSON has no NaN/Inf; null marks the value as unusable instead
    // of forging a finite one.
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer a shorter form when it parses back exactly.
    for (int precision = 1; precision < 17; ++precision) {
        char probe[32];
        std::snprintf(probe, sizeof(probe), "%.*g", precision, v);
        if (std::strtod(probe, nullptr) == v)
            return probe;
    }
    return buf;
}

namespace {

std::string
pad(int indent)
{
    return std::string(static_cast<std::size_t>(indent), ' ');
}

/** @p row's value in @p o as a JSON literal. */
template <typename Owner>
std::string
statJson(const StatRow<Owner> &row, const Owner &o)
{
    return row.counter != nullptr ? std::to_string(o.*row.counter)
                                  : jsonNumber(row.valueOf(o));
}

} // anonymous namespace

std::string
toJson(const SimResult &r, int indent)
{
    const std::string inner = pad(indent + 2);
    std::string out = "{\n";
    const char *separator = "";
    auto member = [&](const std::string &prefix, const char *key,
                      const std::string &value) {
        out += separator;
        out += inner;
        out += '"';
        out += prefix;
        out += key;
        out += "\": ";
        out += value;
        separator = ",\n";
    };
    const std::string no_prefix;
    for (const StatSection section : stat_sections) {
        const auto flag = statSectionFlag(section);
        if (flag != nullptr && !(r.*flag))
            continue;
        // Stored values first, then the values derived from them.
        for (const bool derived : {false, true})
            for (const StatRow<SimResult> &row : sim_stat_rows)
                if (row.section == section && row.key != nullptr &&
                    (row.derived != nullptr) == derived)
                    member(no_prefix, row.key, statJson(row, r));
        if (section != StatSection::Multicore)
            continue;
        for (std::size_t i = 0; i < r.perCore.size(); ++i) {
            const std::string prefix =
                "core" + std::to_string(i) + "_";
            for (const auto &row : per_core_stat_rows)
                member(prefix, row.key, statJson(row, r.perCore[i]));
        }
    }
    out += "\n" + pad(indent) + "}";
    return out;
}

std::string
toJson(const RunResult &r, int indent)
{
    // Same predicate the reductions aggregate by: completed AND
    // every derived statistic finite.
    const bool valid = statsValid(r);
    const std::string inner = pad(indent + 2);
    std::string out = "{\n";
    out += inner + "\"benchmark\": \"" + jsonEscape(r.benchmark) +
        "\",\n";
    out += inner + "\"suite\": \"" + jsonEscape(suiteName(r.suite)) +
        "\",\n";
    out += inner + "\"config\": \"" + jsonEscape(r.config) + "\",\n";
    if (!r.memsys.empty()) {
        out += inner + "\"memsys\": \"" + jsonEscape(r.memsys) +
            "\",\n";
    }
    out += inner + "\"valid\": " + (valid ? "true" : "false") +
        ",\n";
    out += inner + "\"stats\": " + toJson(r.sim, indent + 2) + "\n";
    out += pad(indent) + "}";
    return out;
}

namespace {

std::string
meanPairJson(const MeanPair &m)
{
    return "{\"geomean\": " + jsonNumber(m.geomean) +
        ", \"amean\": " + jsonNumber(m.amean) + "}";
}

std::string
reductionsJson(const SweepReductions &red, int indent)
{
    const std::string g_pad = pad(indent + 2);
    const std::string c_pad = pad(indent + 4);
    const std::string f_pad = pad(indent + 6);
    std::string out = "{";
    for (std::size_t g = 0; g < red.groups.size(); ++g) {
        const auto &[group, configs] = red.groups[g];
        out += g ? ",\n" : "\n";
        out += g_pad + '"' + jsonEscape(group) + "\": {";
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const auto &[config, stats] = configs[c];
            out += c ? ",\n" : "\n";
            out += c_pad + '"' + jsonEscape(config) + "\": {\n";
            out += f_pad + "\"runs\": " +
                std::to_string(stats.runs) + ",\n";
            out += f_pad + "\"rel_time\": " +
                meanPairJson(stats.relTime) + ",\n";
            out += f_pad + "\"cache_reads\": " +
                meanPairJson(stats.cacheReads) + ",\n";
            out += f_pad + "\"reexec_rate\": " +
                meanPairJson(stats.reexecRate) + "\n";
            out += c_pad + "}";
        }
        out += configs.empty() ? "}" : "\n" + g_pad + "}";
    }
    out += red.groups.empty() ? "}" : "\n" + pad(indent) + "}";
    return out;
}

} // anonymous namespace

std::string
sweepReportJson(const std::vector<RunResult> &results,
                std::uint64_t insts,
                const std::string &baseline_config)
{
    const SweepReductions red =
        computeReductions(results, baseline_config);
    std::string out = "{\n";
    out += "  \"schema\": \"nosq-sweep-v2\",\n";
    out += "  \"insts\": " + std::to_string(insts) + ",\n";
    out += "  \"baseline\": \"" + jsonEscape(red.baseline) + "\",\n";
    out += "  \"runs\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        out += toJson(results[i], 4);
    }
    out += results.empty() ? "],\n" : "\n  ],\n";
    out += "  \"reductions\": " + reductionsJson(red, 2) + "\n";
    out += "}\n";
    return out;
}

// --- parsing ---------------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &member : object)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

namespace {

/** Recursive-descent parser over the emitted JSON subset. */
class JsonParser
{
  public:
    JsonParser(const std::string &text_, std::string *error_)
        : text(text_), error(error_)
    {}

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos != text.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &message)
    {
        if (error && error->empty()) {
            *error = "JSON error at offset " + std::to_string(pos) +
                ": " + message;
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, JsonValue &out, JsonValue::Kind kind,
            bool boolean)
    {
        const std::size_t len = std::string(word).size();
        if (text.compare(pos, len, word) != 0)
            return fail("invalid literal");
        pos += len;
        out.kind = kind;
        out.boolean = boolean;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                const unsigned code = static_cast<unsigned>(
                    std::strtoul(text.substr(pos, 4).c_str(),
                                 nullptr, 16));
                pos += 4;
                // Emitted strings only escape control bytes; decode
                // the BMP subset as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        // JSON grammar: -?int frac? exp?  (strtod alone is too
        // permissive: it accepts "+1", "1.2" of "1.2.3", hex, inf).
        const std::size_t start = pos;
        consume('-');
        std::size_t digits = 0;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos]))) {
            ++pos;
            ++digits;
        }
        if (digits == 0)
            return fail("expected number");
        if (digits > 1 && text[start + (text[start] == '-')] == '0')
            return fail("leading zero in number");
        if (consume('.')) {
            digits = 0;
            while (pos < text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text[pos]))) {
                ++pos;
                ++digits;
            }
            if (digits == 0)
                return fail("expected fraction digits");
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            digits = 0;
            while (pos < text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text[pos]))) {
                ++pos;
                ++digits;
            }
            if (digits == 0)
                return fail("expected exponent digits");
        }
        out.kind = JsonValue::Kind::Number;
        out.number =
            std::strtod(text.substr(start, pos - start).c_str(),
                        nullptr);
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        }
        if (c == 't')
            return literal("true", out, JsonValue::Kind::Bool, true);
        if (c == 'f')
            return literal("false", out, JsonValue::Kind::Bool,
                           false);
        if (c == 'n')
            return literal("null", out, JsonValue::Kind::Null, false);
        return parseNumber(out);
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        consume('{');
        skipSpace();
        if (consume('}'))
            return true;
        for (;;) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace_back(std::move(key),
                                    std::move(value));
            skipSpace();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        consume('[');
        skipSpace();
        if (consume(']'))
            return true;
        for (;;) {
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.array.push_back(std::move(value));
            skipSpace();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }

    const std::string &text;
    std::string *error;
    std::size_t pos = 0;
};

} // anonymous namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string *error)
{
    if (error)
        error->clear();
    JsonParser parser(text, error);
    return parser.parse(out);
}

// --- schema validation -----------------------------------------------------

namespace {

bool
schemaFail(std::string *error, const std::string &message)
{
    if (error)
        *error = "nosq-sweep-v2: " + message;
    return false;
}

bool
isNumberOrNull(const JsonValue &v)
{
    return v.kind == JsonValue::Kind::Number ||
        v.kind == JsonValue::Kind::Null;
}

/** Check one {"geomean": num|null, "amean": num|null} pair. */
bool
validMeanPair(const JsonValue *pair)
{
    if (pair == nullptr || pair->kind != JsonValue::Kind::Object)
        return false;
    const JsonValue *g = pair->find("geomean");
    const JsonValue *a = pair->find("amean");
    return g && a && isNumberOrNull(*g) && isNumberOrNull(*a);
}

bool
validRun(const JsonValue &run, std::size_t index, std::string *error)
{
    const auto where = "runs[" + std::to_string(index) + "]";
    if (run.kind != JsonValue::Kind::Object)
        return schemaFail(error, where + " is not an object");
    for (const char *key : {"benchmark", "suite", "config"}) {
        const JsonValue *v = run.find(key);
        if (v == nullptr || v->kind != JsonValue::Kind::String)
            return schemaFail(error, where + "." + key +
                              " missing or not a string");
    }
    const std::string &suite = run.find("suite")->string;
    if (suite != suiteName(Suite::Media) &&
        suite != suiteName(Suite::Int) &&
        suite != suiteName(Suite::Fp))
        return schemaFail(error, where + ".suite unknown: '" +
                          suite + "'");
    // The hierarchy label is optional (memsys sweeps only), but when
    // present it must be a string.
    const JsonValue *memsys = run.find("memsys");
    if (memsys != nullptr &&
        memsys->kind != JsonValue::Kind::String)
        return schemaFail(error, where + ".memsys is not a string");
    const JsonValue *valid = run.find("valid");
    if (valid == nullptr || valid->kind != JsonValue::Kind::Bool)
        return schemaFail(error, where +
                          ".valid missing or not a bool");
    const JsonValue *stats = run.find("stats");
    if (stats == nullptr || stats->kind != JsonValue::Kind::Object)
        return schemaFail(error, where +
                          ".stats missing or not an object");
    // Keys added to v2 after its introduction are optional, so older
    // reports still validate, but typed when present. The per-core
    // "core<i>_*" keys are accepted as unlisted extras (unknown
    // stats keys are never rejected).
    for (const StatRow<SimResult> &row : sim_stat_rows) {
        if (row.key == nullptr)
            continue;
        const JsonValue *v = stats->find(row.key);
        if (v == nullptr && !row.required)
            continue;
        if (v == nullptr || !isNumberOrNull(*v))
            return schemaFail(error, where + ".stats." + row.key +
                              (row.required
                                   ? " missing or not a number/null"
                                   : " is not a number/null"));
    }
    return true;
}

bool
validReductions(const JsonValue &reductions, std::string *error)
{
    if (reductions.kind != JsonValue::Kind::Object)
        return schemaFail(error, "reductions is not an object");
    for (const auto &[group, configs] : reductions.object) {
        const auto g_where = "reductions." + group;
        if (configs.kind != JsonValue::Kind::Object)
            return schemaFail(error, g_where + " is not an object");
        for (const auto &[config, cell] : configs.object) {
            const auto where = g_where + "." + config;
            if (cell.kind != JsonValue::Kind::Object)
                return schemaFail(error, where +
                                  " is not an object");
            const JsonValue *runs = cell.find("runs");
            if (runs == nullptr ||
                runs->kind != JsonValue::Kind::Number)
                return schemaFail(error, where +
                                  ".runs missing or not a number");
            for (const char *key :
                 {"rel_time", "cache_reads", "reexec_rate"}) {
                if (!validMeanPair(cell.find(key)))
                    return schemaFail(error, where + "." + key +
                                      " missing or malformed");
            }
        }
    }
    return true;
}

} // anonymous namespace

bool
validateSweepReport(const JsonValue &doc, std::string *error)
{
    if (doc.kind != JsonValue::Kind::Object)
        return schemaFail(error, "document is not an object");
    const JsonValue *schema = doc.find("schema");
    if (schema == nullptr ||
        schema->kind != JsonValue::Kind::String)
        return schemaFail(error, "schema missing or not a string");
    if (schema->string != "nosq-sweep-v2")
        return schemaFail(error, "unexpected schema tag '" +
                          schema->string + "'");
    const JsonValue *insts = doc.find("insts");
    if (insts == nullptr || insts->kind != JsonValue::Kind::Number)
        return schemaFail(error, "insts missing or not a number");
    const JsonValue *baseline = doc.find("baseline");
    if (baseline == nullptr ||
        baseline->kind != JsonValue::Kind::String)
        return schemaFail(error, "baseline missing or not a string");
    const JsonValue *runs = doc.find("runs");
    if (runs == nullptr || runs->kind != JsonValue::Kind::Array)
        return schemaFail(error, "runs missing or not an array");
    for (std::size_t i = 0; i < runs->array.size(); ++i)
        if (!validRun(runs->array[i], i, error))
            return false;
    const JsonValue *reductions = doc.find("reductions");
    if (reductions == nullptr)
        return schemaFail(error, "reductions missing");
    return validReductions(*reductions, error);
}

} // namespace nosq
