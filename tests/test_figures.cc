/**
 * @file
 * Tests for the figure table (sim/figures.hh): every figure renders
 * one row per benchmark (per point in the memsys study) and one mean
 * row per suite, and the suite cells of the statistics the report
 * reduces are exactly the formatted computeReductions() values, so
 * the table and the JSON cannot disagree.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/figures.hh"
#include "sim/report.hh"

namespace nosq {
namespace {

/** Two MediaBench and two SPECint profiles. */
const char *const test_benchmarks[] = {"g721.e", "mesa.o", "gcc", "gzip"};

DimensionArgs
testArgs()
{
    DimensionArgs args;
    args.capacities = {{"512", 512}, {"2K", 2048}, {"Inf", 0}};
    args.history = {4, 8};
    return args;
}

/** Plausible, distinct statistics for job @p i. */
RunResult
syntheticResult(const SweepJob &job, std::size_t i)
{
    RunResult r;
    r.benchmark = job.profile->name;
    r.suite = job.profile->suite;
    r.config = job.config;
    r.memsys = job.memsysLabel;
    SimResult &s = r.sim;
    s.insts = 20000;
    // Spread widely enough that an amean and a geomean of the same
    // ratios print differently.
    s.cycles = 8000 + 1499 * ((7 * i) % 11);
    s.loads = 5000 + 13 * (i % 7);
    s.commLoads = 400 + 11 * (i % 5);
    s.partialCommLoads = 20 + i % 3;
    s.delayedLoads = 30 + i % 11;
    s.bypassMispredicts = 2 + i % 4;
    s.reexecLoads = 100 + 7 * (i % 9);
    s.dcacheReadsCore = 3000 + 701 * ((5 * i) % 9);
    s.dcacheReadsBackend = 150 + 3 * (i % 17);
    return r;
}

/** The cells of every table line, keyed by its first cell. */
std::map<std::string, std::vector<std::string>>
tableRows(const std::string &text, std::vector<std::string> &header)
{
    std::map<std::string, std::vector<std::string>> rows;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.size() < 2 || line[0] != '|')
            continue;
        std::vector<std::string> cells;
        std::size_t start = 1;
        for (std::size_t bar; (bar = line.find('|', start)) !=
                              std::string::npos;
             start = bar + 1) {
            std::string cell = line.substr(start, bar - start);
            cell.erase(0, cell.find_first_not_of(' '));
            cell.erase(cell.find_last_not_of(' ') + 1);
            cells.push_back(cell);
        }
        if (header.empty())
            header = cells;
        else
            EXPECT_TRUE(rows.emplace(cells.front(), cells).second)
                << "two rows for " << cells.front();
    }
    return rows;
}

TEST(Figures, SuiteRowsMatchReportReductions)
{
    std::size_t checked = 0;
    for (const SweepDimension &dimension : sweep_dimensions) {
        for (const Figure &figure : dimension.figures) {
            SCOPED_TRACE(std::string(dimension.name) + " figure " +
                         std::to_string(&figure - &dimension.figures[0]));
            SweepSpec spec;
            for (const char *name : test_benchmarks)
                spec.benchmarks.push_back(findProfile(name));
            spec.configs = dimension.configs(testArgs());
            spec.insts = 20000;
            const std::vector<SweepJob> jobs = buildJobs(spec);
            std::vector<RunResult> results;
            for (std::size_t i = 0; i < jobs.size(); ++i)
                results.push_back(syntheticResult(jobs[i], i));
            const std::size_t num_configs = spec.configs.size();

            const std::string text =
                renderFigure(figure, jobs, results, num_configs);
            EXPECT_EQ(text.find('{'), std::string::npos)
                << "an unexpanded field:\n" << text;
            std::vector<std::string> header;
            const auto rows = tableRows(text, header);

            if (figure.layout == FigureLayout::Points) {
                EXPECT_EQ(rows.size(), num_configs / 2);
                continue;
            }
            for (const char *name : test_benchmarks)
                EXPECT_EQ(rows.count(name), 1u) << name;
            const std::size_t suites = 2;
            EXPECT_EQ(rows.size(), std::size(test_benchmarks) +
                          (figure.meanLabel ? suites : 0));
            if (figure.meanLabel == nullptr)
                continue;

            const SweepReductions reductions =
                computeReductions(results, jobs.front().config);
            for (const auto &[group, cells] : reductions.groups) {
                if (group == "overall")
                    continue;
                const auto row = rows.find(group + figure.meanLabel);
                ASSERT_NE(row, rows.end()) << group;
                std::map<std::string, const ReductionStats *> by_config;
                for (const auto &[config, stats] : cells)
                    by_config[config] = &stats;
                auto expected = [&](const FigureColumn &column,
                                    std::size_t c) {
                    const ReductionStats &stats =
                        *by_config.at(jobs[c].config);
                    return fmtDouble(column.mean == FigureMean::RelTime
                                         ? stats.relTime.geomean
                                         : stats.cacheReads.amean,
                                     column.precision);
                };
                for (const FigureColumn &column : figure.columns) {
                    if (column.mean != FigureMean::RelTime &&
                        column.mean != FigureMean::CacheReads)
                        continue;
                    // (header, the cell the reductions give)
                    std::vector<std::pair<std::string, std::string>> want;
                    if (column.config != each_point) {
                        want.emplace_back(column.header,
                                          expected(column, column.config));
                    } else if (figure.layout ==
                               FigureLayout::PairedPoints) {
                        for (std::size_t c = 1; c < num_configs; c += 2) {
                            const std::string &name = jobs[c].config;
                            want.emplace_back(
                                name.substr(name.find('-') + 1),
                                expected(column, c) + " (" +
                                    expected(column, c + 1) + ")");
                        }
                    } else {
                        for (std::size_t c = 1; c < num_configs; ++c) {
                            const std::string &name = jobs[c].config;
                            want.emplace_back(
                                name.substr(name.find('-') + 1),
                                expected(column, c));
                        }
                    }
                    for (const auto &[head, cell] : want) {
                        std::size_t at = 0;
                        while (at < header.size() && header[at] != head)
                            ++at;
                        ASSERT_LT(at, header.size()) << head;
                        EXPECT_EQ(row->second[at], cell) << head;
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

} // namespace
} // namespace nosq
