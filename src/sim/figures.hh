/**
 * @file
 * The sweep dimensions and the paper figure each one prints.
 *
 * Every `nosq_sim --sweep=DIM` dimension is one row of
 * sweep_dimensions: its name, its configurations and, for the
 * paper's results (Figs. 2-5, Table 5, the SVW ablation, the
 * memory-hierarchy study), the text table it prints without --json.
 * One renderer draws every table: a line per benchmark, then per
 * suite (Table 5 order) a mean row and a separator. Suite cells of
 * the statistics the nosq-sweep-v2 report reduces (the rel_time
 * geomean, the cache_reads amean) are read from computeReductions(),
 * so the table and the JSON cannot disagree.
 */

#ifndef NOSQ_SIM_FIGURES_HH
#define NOSQ_SIM_FIGURES_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.hh"

namespace nosq {

/** How a column reduces in a mean row and in the note. */
enum class FigureMean : std::uint8_t {
    None,       ///< blank
    Amean,      ///< arithmetic mean of the column's cells
    Geomean,    ///< geometric mean of the column's cells
    RelTime,    ///< the report's rel_time geomean of the column's config
    CacheReads, ///< the report's cache_reads amean of the column's config
};

/** What a cell is computed from: a run, the run it is relative to
 * (the benchmark's first configuration, or in the Points layout the
 * point's baseline) and the benchmark. */
struct FigureCell
{
    const SimResult &run;
    const SimResult &base;
    const BenchmarkProfile &profile;
};

/** FigureColumn::config: one column per swept point, headed by its
 * configuration name after the first '-' ("cap-1K" -> "1K"). */
inline constexpr int each_point = -1;

struct FigureColumn
{
    const char *header;
    /** The configuration the cell shows, or each_point; in the Points
     * layout, the run's offset within its point's pair. */
    int config;
    double (*value)(const FigureCell &cell);
    int precision;
    FigureMean mean;
};

enum class FigureLayout : std::uint8_t {
    Benchmarks,   ///< a line per benchmark, a mean row per suite
    PairedPoints, ///< Benchmarks; each point a "bounded (unbounded)" pair
    Points,       ///< a line per (baseline, NoSQ) pair: means over all
};

struct Figure
{
    /** Lines above the table; {insts}, {warmup}, {benchmarks} and
     * {points} expand to the sweep's values. */
    const char *title;
    FigureLayout layout;
    std::vector<FigureColumn> columns;
    /** Suffix of a suite's mean-row label; nullptr: no mean rows. */
    const char *meanLabel;
    /** Lines below the table; {HEADER} expands to the mean over every
     * benchmark of the column with that header. */
    const char *note;
};

/** The command-line points a dimension's configurations take. */
struct DimensionArgs
{
    /** Predictor capacities: (label, total entries; 0: unbounded). */
    std::vector<std::pair<std::string, unsigned>> capacities;
    std::vector<unsigned> history;
    std::vector<unsigned> cores;
    std::vector<unsigned> queueDepths;
};

struct SweepDimension
{
    const char *name;
    /** Its configurations; the first is the reductions' baseline. */
    std::vector<SweepConfig> (*configs)(const DimensionArgs &args);
    /** Its figure on the 128-entry machine, then on the 256-entry one
     * where that differs; none: the generic per-run table. */
    std::vector<Figure> figures;
    /** Its workloads are the multicore kernels, not profiles. */
    bool kernels = false;
};

/** Every --sweep=DIM dimension: the one list of their names. */
extern const std::vector<SweepDimension> sweep_dimensions;

/** The dimension called @p name, or nullptr. */
const SweepDimension *findSweepDimension(const std::string &name);

/**
 * Draw @p figure over a finished sweep: @p jobs benchmark-major
 * (buildJobs()) with @p num_configs configurations per benchmark,
 * @p results in job order. The table is a function of the results
 * alone, so a served sweep draws the same bytes as a local one.
 */
std::string renderFigure(const Figure &figure,
                         const std::vector<SweepJob> &jobs,
                         const std::vector<RunResult> &results,
                         std::size_t num_configs);

} // namespace nosq

#endif // NOSQ_SIM_FIGURES_HH
