/**
 * @file
 * Documentation drift tests. The docs under docs/ make concrete,
 * checkable claims -- the counter glossary lists every counter, the
 * CLI reference lists every flag, relative links resolve -- and
 * this suite pins each claim to the code so the docs cannot rot
 * silently. The flag check scrapes both binaries' --help, which is
 * rendered from their option tables (common/cli.hh), so it compares
 * docs/cli.md with the flags the parsers actually accept. Built
 * with NOSQ_SOURCE_DIR (the repo root), NOSQ_SIM_PATH and
 * NOSQ_SWEEPD_PATH (the two binaries) baked in by CMake.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ooo/sim_stats.hh"
#include "serve/serve_metrics.hh"
#include "sim/report.hh"

namespace nosq {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
sourcePath(const std::string &rel)
{
    return std::string(NOSQ_SOURCE_DIR) + "/" + rel;
}

/** Every `--flag` token in @p text (letters/digits/dashes after the
 * leading dashes; table rules like `|----|` don't count). */
std::set<std::string>
extractFlags(const std::string &text)
{
    std::set<std::string> flags;
    for (std::size_t i = 0; i + 2 < text.size(); ++i) {
        if (text[i] != '-' || text[i + 1] != '-')
            continue;
        if (i > 0 && text[i - 1] == '-')
            continue; // inside a ---- rule
        std::size_t j = i + 2;
        if (j >= text.size() || !std::islower(
                static_cast<unsigned char>(text[j])))
            continue;
        while (j < text.size() &&
               (std::islower(static_cast<unsigned char>(text[j])) ||
                std::isdigit(static_cast<unsigned char>(text[j])) ||
                text[j] == '-'))
            ++j;
        flags.insert(text.substr(i, j - i));
        i = j;
    }
    return flags;
}

TEST(Docs, CounterGlossaryCoversEveryCounter)
{
    // Every JSON key of the stats table, and the label of every row
    // only the single-run stats table shows.
    const std::string doc = readFile(sourcePath("docs/counters.md"));
    for (const StatRow<SimResult> &row : sim_stat_rows) {
        const std::string name = row.key ? row.key : row.label;
        EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
            << "statistic '" << name
            << "' (sim_stat_rows) missing from docs/counters.md";
    }
    for (const StatRow<SimResult::PerCore> &row : per_core_stat_rows) {
        EXPECT_NE(doc.find("`core<i>_" + std::string(row.key) + "`"),
                  std::string::npos)
            << "per-core counter 'core<i>_" << row.key
            << "' missing from docs/counters.md";
    }
}

/** The flag set a binary advertises via `--help`. */
std::set<std::string>
helpFlags(const std::string &binary)
{
    const std::string cmd = binary + " --help 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    if (pipe == nullptr)
        return {};
    std::string help;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof buf, pipe)) > 0)
        help.append(buf, n);
    EXPECT_EQ(pclose(pipe), 0)
        << binary << " --help exited nonzero";
    EXPECT_FALSE(help.empty());
    return extractFlags(help);
}

TEST(Docs, CliReferenceMatchesHelpOutput)
{
    // Both binaries' advertised flags, checked against docs/cli.md
    // in BOTH directions so neither the help text nor the reference
    // can drift.
    const std::set<std::string> sim_flags =
        helpFlags(NOSQ_SIM_PATH);
    ASSERT_FALSE(sim_flags.empty());
    const std::set<std::string> sweepd_flags =
        helpFlags(NOSQ_SWEEPD_PATH);
    ASSERT_FALSE(sweepd_flags.empty());
    const std::set<std::string> doc_flags =
        extractFlags(readFile(sourcePath("docs/cli.md")));

    // Every advertised flag is documented...
    for (const std::string &flag : sim_flags) {
        EXPECT_TRUE(doc_flags.count(flag))
            << "nosq_sim flag '" << flag
            << "' is in --help but not docs/cli.md";
    }
    for (const std::string &flag : sweepd_flags) {
        EXPECT_TRUE(doc_flags.count(flag))
            << "nosq_sweepd flag '" << flag
            << "' is in --help but not docs/cli.md";
    }
    // ...and every documented flag exists in one of the binaries
    // (--help itself is the one flag the help text doesn't list).
    for (const std::string &flag : doc_flags) {
        EXPECT_TRUE(sim_flags.count(flag) ||
                    sweepd_flags.count(flag) || flag == "--help")
            << "flag '" << flag
            << "' is in docs/cli.md but in neither --help";
    }
}

TEST(Docs, MetricsCatalogMatchesObservabilityDoc)
{
    // Both directions: every catalogued series is documented, and
    // every `nosq_sweepd_*` token the doc mentions is a real series
    // -- a metric cannot be added, renamed, or removed without
    // updating docs/OBSERVABILITY.md.
    const std::string doc =
        readFile(sourcePath("docs/OBSERVABILITY.md"));
    std::set<std::string> catalog;
    serve::forEachServeMetric([&](const serve::ServeMetricDef &def) {
        catalog.insert(def.name);
        EXPECT_NE(doc.find("`" + std::string(def.name) + "`"),
                  std::string::npos)
            << "series '" << def.name << "' (forEachServeMetric) "
            << "missing from docs/OBSERVABILITY.md";
    });

    const std::string stem = "nosq_sweepd_";
    std::size_t pos = 0;
    while ((pos = doc.find(stem, pos)) != std::string::npos) {
        std::size_t end = pos;
        while (end < doc.size() &&
               (std::islower(static_cast<unsigned char>(doc[end])) ||
                std::isdigit(static_cast<unsigned char>(doc[end])) ||
                doc[end] == '_'))
            ++end;
        const std::string name = doc.substr(pos, end - pos);
        EXPECT_TRUE(catalog.count(name))
            << "docs/OBSERVABILITY.md mentions '" << name
            << "' which is not in the serve metrics catalog";
        pos = end;
    }
}

TEST(Docs, MarkdownRelativeLinksResolve)
{
    const std::vector<std::string> files = {
        "README.md", "ROADMAP.md", "docs/ARCHITECTURE.md",
        "docs/counters.md", "docs/cli.md", "docs/SERVING.md",
        "docs/OBSERVABILITY.md"};
    for (const std::string &file : files) {
        const std::string text = readFile(sourcePath(file));
        const std::string dir =
            file.find('/') == std::string::npos
                ? ""
                : file.substr(0, file.rfind('/') + 1);
        std::size_t pos = 0;
        while ((pos = text.find("](", pos)) != std::string::npos) {
            pos += 2;
            const std::size_t end = text.find(')', pos);
            if (end == std::string::npos)
                break;
            std::string target = text.substr(pos, end - pos);
            if (target.empty() || target[0] == '#' ||
                target.find("://") != std::string::npos ||
                target.rfind("mailto:", 0) == 0)
                continue;
            const std::size_t anchor = target.find('#');
            if (anchor != std::string::npos)
                target = target.substr(0, anchor);
            std::ifstream probe(sourcePath(dir + target));
            EXPECT_TRUE(probe.good())
                << file << " links to missing file '" << target
                << "'";
        }
    }
}

} // namespace
} // namespace nosq
