#include "sim/figures.hh"

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <numeric>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/report.hh"

namespace nosq {

namespace {

double
relTime(const FigureCell &c)
{
    return static_cast<double>(c.run.cycles) /
        static_cast<double>(c.base.cycles);
}

double
cacheReads(const FigureCell &c)
{
    return c.run.dcacheReads() / c.base.dcacheReads();
}

/** The run's statistic @p Stat, times @p Scale. */
template <double (SimResult::*Stat)() const, int Scale = 1>
double
stat(const FigureCell &c)
{
    return Scale * (c.run.*Stat)();
}

/** The run's @p Reads over the baseline run's data-cache reads. */
template <std::uint64_t SimResult::*Reads>
double
readsShare(const FigureCell &c)
{
    return c.run.*Reads / c.base.dcacheReads();
}

/** The paper's value @p Field of the benchmark. */
template <double BenchmarkProfile::*Field>
double
paper(const FigureCell &c)
{
    return c.profile.*Field;
}

/** The Figs. 2 and 3 bars at @p indices: 0 sq-perfect, 1 sq-storesets,
 * 2 nosq-nodelay, 3 nosq-delay, 4 nosq-perfect. */
std::vector<SweepConfig>
bars(std::initializer_list<std::size_t> indices)
{
    const std::vector<SweepConfig> all = paperFigureConfigs(false);
    std::vector<SweepConfig> configs;
    for (const std::size_t i : indices)
        configs.push_back(all[i]);
    return configs;
}

/** @p configs after the SQ + perfect-scheduling baseline of Fig. 5. */
std::vector<SweepConfig>
afterBaseline(std::vector<SweepConfig> configs)
{
    configs.insert(configs.begin(), bars({0}).front());
    return configs;
}

/** The columns of Figs. 2 and 3: ideal IPC, the paper's IPC (Fig. 2
 * only), and time relative to the baseline. */
std::vector<FigureColumn>
lsuColumns(bool paper_ipc)
{
    std::vector<FigureColumn> columns{
        {"ideal IPC", 0, stat<&SimResult::ipc>, 2, FigureMean::None},
        {"(paper)", 0, paper<&BenchmarkProfile::idealIpc>, 2,
         FigureMean::None},
        {"assoc-SQ", 1, relTime, 3, FigureMean::RelTime},
        {"NoSQ no-dly", 2, relTime, 3, FigureMean::RelTime},
        {"NoSQ dly", 3, relTime, 3, FigureMean::RelTime},
        {"perfect SMB", 4, relTime, 3, FigureMean::RelTime},
    };
    if (!paper_ipc)
        columns.erase(columns.begin() + 1);
    return columns;
}

} // anonymous namespace

const std::vector<SweepDimension> sweep_dimensions = {
    {"lsu", [](const DimensionArgs &) { return paperFigureConfigs(false); },
     {{"Figure 2: relative execution time, 128-entry window\n"
       "(normalized to associative SQ + perfect scheduling; {insts} "
       "measured insts)\n",
       FigureLayout::Benchmarks, lsuColumns(true), ".gmean",
       "Paper shape checks:\n"
       "  - StoreSets tracks the ideal scheduler closely\n"
       "    (within ~2% everywhere in the paper)\n"
       "  - NoSQ with delay matches or slightly beats the\n"
       "    conventional design on average (paper: ~2%)\n"
       "  - perfect SMB bounds the benefit (~3.7% in the\n"
       "    paper); realistic NoSQ captures about half\n"},
      {"Figure 3: relative execution time, 256-entry window\n"
       "(normalized to associative SQ + perfect scheduling on the "
       "same machine)\n",
       FigureLayout::Benchmarks, lsuColumns(false), ".gmean",
       "Paper shape check: NoSQ's average improvement shrinks on the "
       "larger window\n(paper: from ~2% to ~1%) while perfect SMB "
       "improves.\n"}}},
    {"cache-reads", [](const DimensionArgs &) { return bars({1, 3}); },
     {{"Figure 4: data cache reads, NoSQ (delay) relative to "
       "associative-SQ baseline\n",
       FigureLayout::Benchmarks,
       {{"core reads", 1, readsShare<&SimResult::dcacheReadsCore>, 3,
         FigureMean::Amean},
        {"backend reads", 1, readsShare<&SimResult::dcacheReadsBackend>, 3,
         FigureMean::Amean},
        {"total", 1, cacheReads, 3, FigureMean::CacheReads},
        {"reexec% of loads", 1, stat<&SimResult::reexecRate, 100>, 2,
         FigureMean::Amean}},
       ".amean",
       "Section 4.5 claims:\n"
       "  measured mean total reads vs baseline: {total} (paper: ~0.91 "
       "overall, down to 0.6 for mesa.o)\n"
       "  measured mean re-execution rate: {reexec% of loads}% of loads "
       "(paper: ~0.7%)\n"}}},
    {"capacity",
     [](const DimensionArgs &args) {
         return afterBaseline(predictorCapacityConfigs(args.capacities));
     },
     {{"Figure 5 (top): predictor capacity sweep\n"
       "(total entries across both tables; relative to assoc SQ + "
       "perfect scheduling)\n",
       FigureLayout::Benchmarks,
       {{nullptr, each_point, relTime, 3, FigureMean::RelTime}}, ".gmean",
       "Paper shape check: 2K is nearly as good as unbounded; 512 "
       "entries costs\nSPECint ~4% but barely hurts "
       "MediaBench/SPECfp.\n"}}},
    {"history",
     [](const DimensionArgs &args) {
         return afterBaseline(predictorHistoryConfigs(args.history, true));
     },
     {{"Figure 5 (bottom): path history length sweep\n"
       "(2K-entry predictor, with unbounded capacity in parentheses)\n",
       FigureLayout::PairedPoints,
       {{nullptr, each_point, relTime, 3, FigureMean::RelTime}}, ".gmean",
       "Paper shape check: 6-8 bits capture most of the benefit; "
       "longer histories\nhurt the bounded predictor through capacity "
       "pressure.\n"}}},
    {"delay", [](const DimensionArgs &) { return bars({2, 3}); },
     {{"Table 5: communication behaviour and prediction accuracy\n"
       "(model: {insts} measured instructions per benchmark, {warmup} "
       "warm-up)\n",
       FigureLayout::Benchmarks,
       {{"comm%", 1, stat<&SimResult::pctCommLoads>, 1, FigureMean::Amean},
        {"(paper)", 1, paper<&BenchmarkProfile::pctComm>, 1,
         FigureMean::None},
        {"partial%", 1, stat<&SimResult::pctPartialCommLoads>, 1,
         FigureMean::Amean},
        {"(paper)", 1, paper<&BenchmarkProfile::pctPartial>, 1,
         FigureMean::None},
        {"mw/10k no-dly", 0, stat<&SimResult::mispredictsPer10kLoads>, 1,
         FigureMean::Amean},
        {"mw/10k dly", 1, stat<&SimResult::mispredictsPer10kLoads>, 1,
         FigureMean::Amean},
        {"dly%", 1, stat<&SimResult::pctLoadsDelayed>, 1,
         FigureMean::Amean}},
       ".avg",
       "Paper shape checks:\n"
       "  - majority of loads do not communicate; a few\n"
       "    benchmarks reach 30-48% communication (mesa)\n"
       "  - delay cuts mis-predictions by roughly an order\n"
       "    of magnitude at the cost of delaying a few\n"
       "    percent of loads\n"}}},
    {"svw",
     [](const DimensionArgs &) {
         std::vector<SweepConfig> configs = bars({3, 3});
         configs[0].name = "nosq-svw";
         configs[1].name = "nosq-reexec-all";
         configs[1].tweak = [](UarchParams &p) { p.svwFilter = false; };
         return configs;
     },
     {{"Ablation: SVW-filtered re-execution vs re-execute everything "
       "(NoSQ)\n",
       FigureLayout::Benchmarks,
       {{"slowdown w/o SVW", 1, relTime, 3, FigureMean::Amean},
        {"reexec% with", 0, stat<&SimResult::reexecRate, 100>, 2,
         FigureMean::None},
        {"reexec% without", 1, stat<&SimResult::reexecRate, 100>, 2,
         FigureMean::None},
        {"backend reads x", 1,
         [](const FigureCell &c) {
             return c.base.dcacheReadsBackend
                 ? static_cast<double>(c.run.dcacheReadsBackend) /
                     c.base.dcacheReadsBackend
                 : 0.0;
         },
         0, FigureMean::None}},
       nullptr,
       "Mean slowdown without the filter: {slowdown w/o SVW} (paper: "
       "overheads that overwhelm\nthe benefit of the speculation; our "
       "single shared dcache port makes every\nload contend with store "
       "commit).\n"}}},
    {"memsys", [](const DimensionArgs &) { return memsysConfigs(); },
     {{"Memory-hierarchy scaling: NoSQ (delay) vs associative-SQ "
       "baseline per hierarchy point\n"
       "({benchmarks} benchmarks x {points} points; bus occupancy "
       "modeled)\n",
       FigureLayout::Points,
       {{"rel time", 1, relTime, 3, FigureMean::Geomean},
        {"rel reads", 1, cacheReads, 3, FigureMean::Geomean},
        {"nosq MPKI", 1, stat<&SimResult::l1dMpki>, 2, FigureMean::Amean},
        {"miss lat", 1, stat<&SimResult::avgMissLatency>, 1,
         FigureMean::Amean},
        {"pref acc%", 1, stat<&SimResult::prefetchAccuracy, 100>, 1,
         FigureMean::Amean}},
       nullptr,
       "rel time / rel reads: NoSQ over the SQ baseline on the SAME "
       "hierarchy point (geomean).\nMPKI, miss lat, pref acc: NoSQ "
       "absolute values (amean).\n"}}},
    {"multicore",
     [](const DimensionArgs &args) {
         return multicoreConfigs(args.cores, args.queueDepths);
     },
     {}, true},
};

const SweepDimension *
findSweepDimension(const std::string &name)
{
    for (const SweepDimension &dimension : sweep_dimensions)
        if (name == dimension.name)
            return &dimension;
    return nullptr;
}

std::string
renderFigure(const Figure &figure, const std::vector<SweepJob> &jobs,
             const std::vector<RunResult> &results,
             std::size_t num_configs)
{
    const std::size_t benchmarks = jobs.size() / num_configs;
    nosq_assert(results.size() == jobs.size() &&
                    benchmarks * num_configs == jobs.size(),
                "a figure needs every benchmark x config result");
    const bool paired = figure.layout == FigureLayout::PairedPoints;
    const bool points = figure.layout == FigureLayout::Points;
    constexpr double none = std::numeric_limits<double>::quiet_NaN();
    const SweepReductions reductions =
        computeReductions(results, jobs.front().config);

    // Each column on its configuration: an each_point column becomes
    // one column per point.
    struct Column
    {
        const FigureColumn *spec;
        std::string header;
        std::size_t config;
    };
    std::vector<Column> columns;
    for (const FigureColumn &spec : figure.columns) {
        for (std::size_t c = 1; spec.config == each_point &&
             c < num_configs; c += paired ? 2 : 1) {
            const std::string &name = jobs[c].config;
            columns.push_back({&spec, name.substr(name.find('-') + 1), c});
        }
        if (spec.config != each_point)
            columns.push_back({&spec, spec.header,
                               static_cast<std::size_t>(spec.config)});
    }

    // Benchmark b's value of a column on configuration c against
    // configuration base; none when either run failed.
    auto value = [&](const Column &column, std::size_t b, std::size_t c,
                     std::size_t base) {
        const RunResult &run = results[b * num_configs + c];
        const RunResult &baseline = results[b * num_configs + base];
        if (!statsValid(run) || !statsValid(baseline))
            return none;
        return column.spec->value(
            {run.sim, baseline.sim, *jobs[b * num_configs].profile});
    };
    // A column's mean on configuration c over the benchmarks members:
    // the reductions' cell of group where the report reduces it, else
    // the mean of the finite values.
    auto mean = [&](const Column &column,
                    const std::vector<std::size_t> &members, std::size_t c,
                    std::size_t base, const std::string &group) {
        const FigureMean kind = column.spec->mean;
        if (kind == FigureMean::RelTime || kind == FigureMean::CacheReads) {
            for (const auto &[name, cells] : reductions.groups)
                for (const auto &[config, stats] : cells)
                    if (name == group && config == jobs[c].config)
                        return kind == FigureMean::RelTime
                            ? stats.relTime.geomean : stats.cacheReads.amean;
            return none;
        }
        std::vector<double> values;
        for (const std::size_t b : members)
            if (const double v = value(column, b, c, base); std::isfinite(v))
                values.push_back(v);
        if (values.empty())
            return none;
        return kind == FigureMean::Geomean ? geomean(values)
                                           : amean(values);
    };
    // A column's cell, at(c) giving configuration c's value: "-" for
    // none, "bounded (unbounded)" for a paired point.
    auto cell = [&](const Column &column, const auto &at) {
        auto text = [&](double v) {
            return std::isnan(v) ? std::string("-")
                                 : fmtDouble(v, column.spec->precision);
        };
        return text(at(column.config)) +
            (paired ? " (" + text(at(column.config + 1)) + ")" : "");
    };

    std::vector<std::size_t> all(benchmarks);
    std::iota(all.begin(), all.end(), 0);
    TextTable table;
    std::vector<std::string> row{points ? "hierarchy" : "bench"};
    for (const Column &column : columns)
        row.push_back(column.header);
    table.header(row);
    // Points: a row per (baseline, NoSQ) configuration pair, whose
    // offsets the columns name.
    for (std::size_t base = 0; points && base + 1 < num_configs; base += 2) {
        row = {jobs[base + 1].memsysLabel};
        for (const Column &column : columns) {
            row.push_back(cell(column, [&](std::size_t offset) {
                return mean(column, all, base + offset, base, "");
            }));
        }
        table.row(row);
    }
    for (const Suite suite : {Suite::Media, Suite::Int, Suite::Fp}) {
        std::vector<std::size_t> members;
        for (const std::size_t b : all)
            if (!points && jobs[b * num_configs].profile->suite == suite)
                members.push_back(b);
        for (const std::size_t b : members) {
            row = {jobs[b * num_configs].profile->name};
            for (const Column &column : columns) {
                row.push_back(cell(column, [&](std::size_t c) {
                    return value(column, b, c, 0);
                }));
            }
            table.row(row);
        }
        if (members.empty() || figure.meanLabel == nullptr)
            continue;
        const std::string group = suiteName(suite);
        row = {group + figure.meanLabel};
        for (const Column &column : columns) {
            row.push_back(column.spec->mean == FigureMean::None
                              ? ""
                              : cell(column, [&](std::size_t c) {
                                    return mean(column, members, c, 0,
                                                group);
                                }));
        }
        table.row(row);
        table.separator();
    }

    // The {FIELD}s of the title and the note: the sweep's shape, and
    // each column's mean over every benchmark.
    std::map<std::string, std::string> fields{
        {"insts", std::to_string(jobs.front().insts)},
        {"warmup", std::to_string(jobs.front().warmup)},
        {"benchmarks", std::to_string(benchmarks)},
        {"points", std::to_string(num_configs / 2)},
    };
    for (const Column &column : columns) {
        fields.emplace(column.header, cell(column, [&](std::size_t c) {
                           return mean(column, all, c, 0, "overall");
                       }));
    }
    auto expand = [&](const char *text) {
        std::string out;
        for (const char *p = text; *p != '\0'; ++p) {
            const char *close = *p == '{' ? std::strchr(p, '}') : nullptr;
            out += close ? fields.at(std::string(p + 1, close))
                         : std::string(1, *p);
            p = close ? close : p;
        }
        return out;
    };
    return expand(figure.title) + "\n" + table.render() + "\n" +
        expand(figure.note);
}

} // namespace nosq
