/**
 * @file
 * nosq_sim: command-line driver for the simulator.
 *
 * Run any benchmark profile under any LSU configuration and print
 * the full statistics block, or run a parallel multi-configuration
 * sweep. Examples:
 *
 *   nosq_sim --list
 *   nosq_sim --bench gzip
 *   nosq_sim --bench mesa.o --mode nosq --insts 1000000
 *   nosq_sim --bench gcc --mode storesets --window 256
 *   nosq_sim --bench g721.e --mode nosq --no-delay
 *   nosq_sim --sweep --jobs 8 --json
 *   nosq_sim --sweep --suite int --modes nosq,storesets \
 *            --windows 128,256 --json --out sweep.json
 *   nosq_sim --sweep=capacity --bench gcc,g721.e \
 *            --capacities 512,2K,Inf --json
 *   nosq_sim --sweep=history --suite int --json
 *   nosq_sim --sweep=cache-reads --json --out fig4.json
 *   nosq_sim --sweep=lsu --suite all           # Figure 2's table
 *   nosq_sim --validate sweep.json
 *
 * Every flag is declared once, in optionTable(): the table drives
 * parsing, the --help text and the check that a flag applies to the
 * mode it is given in. A single run is a one-job sweep: it builds its
 * job with the sweep's own machine-flag mapping and runs it through
 * runSweepJob().
 */

#include <sys/stat.h>

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/table.hh"
#include "memsys/coherence.hh"
#include "obs/pipe_trace.hh"
#include "obs/progress.hh"
#include "serve/client.hh"
#include "serve/fault.hh"
#include "sim/figures.hh"
#include "sim/journal.hh"
#include "sim/perf.hh"
#include "sim/report.hh"
#include "sim/sampling.hh"
#include "sim/sweep.hh"
#include "workload/multicore.hh"
#include "workload/profiles.hh"

using namespace nosq;
using cli::UsageError;

namespace {

/** The modes of operation; each run is in exactly one. */
enum Mode : cli::ModeMask {
    Run = 1u << 0,       ///< one benchmark profile
    KernelRun = 1u << 1, ///< one multicore producer/consumer kernel
    Sweep = 1u << 2,     ///< --sweep: modes x windows x benchmarks
    /** --sweep=DIM, a row of sweep_dimensions (sim/figures.hh) over
     * benchmark profiles. */
    DimensionSweep = 1u << 3,
    KernelSweep = 1u << 4, ///< --sweep=DIM over the multicore kernels
    Perf = 1u << 5,
    Validate = 1u << 6,
    ValidateTrace = 1u << 7,
    List = 1u << 8,
    ServerStatus = 1u << 9,
    ServerMetrics = 1u << 10,
};

constexpr cli::ModeMask single_runs = Run | KernelRun;
constexpr cli::ModeMask sweeps = Sweep | DimensionSweep | KernelSweep;
/** Modes that simulate a machine the machine flags describe. */
constexpr cli::ModeMask simulations = single_runs | sweeps;
constexpr cli::ModeMask single_core_sims =
    simulations & ~(KernelRun | KernelSweep);

const char *default_capacities = "64,128,256,512,1K,2K,4K,Inf";

/** A machine flag's UarchParams edit, given the value it parsed. */
using MachineEdit = void (*)(UarchParams &p, unsigned value);

/** Everything the flags set; every mode reads this one struct. */
struct Options
{
    /** The Mode a mode flag selected; 0: a single run. */
    cli::ModeMask selected = 0;
    /** --sweep=DIM's dimension; nullptr in every other mode. */
    const SweepDimension *dimension = nullptr;
    /** --validate or --validate-trace FILE. */
    std::string validatePath;

    // Workload.
    std::string bench;
    std::vector<const BenchmarkProfile *> suite = selectedProfiles();
    std::uint64_t insts = 300000;
    std::optional<std::uint64_t> warmup;
    std::uint64_t seed = 1;
    SamplingParams sampling;

    // Machine.
    std::optional<LsuMode> mode;
    std::optional<unsigned> window;
    bool delay = true;
    std::optional<unsigned> cores;
    std::optional<unsigned> queueDepth;
    /** --history points; more than one only with --sweep=history,
     * where they are the swept points instead of a knob. */
    std::vector<unsigned> history;
    /** The UarchParams edits the machine flags make, in command-line
     * order, each with the value its flag parsed. */
    std::vector<std::pair<MachineEdit, unsigned>> machine;

    // Sweep.
    std::vector<LsuMode> modes;
    std::vector<unsigned> windows;
    std::vector<std::pair<std::string, unsigned>> capacities;
    unsigned jobs = 0;
    bool json = false;
    std::string outPath;
    std::string checkpointPath;
    std::string resumePath;
    /** nosq_sweepd socket; non-empty runs the sweep as a client. */
    std::string server;
    /** Total --server connection attempts (see RetryPolicy). */
    unsigned retries = 5;

    // Observability.
    std::optional<obs::PipeTraceConfig> tracePipe;
};

LsuMode
parseMode(const std::string &name)
{
    if (name == "perfect")
        return LsuMode::SqPerfect;
    if (name == "storesets")
        return LsuMode::SqStoreSets;
    if (name == "nosq")
        return LsuMode::Nosq;
    if (name == "nosq-perfect")
        return LsuMode::NosqPerfect;
    throw UsageError("unknown mode '" + name +
                     "' (perfect | storesets | nosq | nosq-perfect)");
}

/**
 * Parse a window size: only the paper's two machines exist, so
 * anything but 128 or 256 is rejected, never silently coerced.
 */
unsigned
parseWindow(const std::string &value)
{
    const unsigned size = cli::parseUnsigned(value);
    if (size != 128 && size != 256)
        throw UsageError("invalid window size '" + value +
                         "' (must be 128 or 256)");
    return size;
}

/**
 * Parse --capacities points: total entries with an optional K
 * suffix, or Inf (0) for unbounded. Totals must be a multiple of 8
 * (two equally split 4-way tables) so the labeled capacity is
 * exactly the simulated one, never a rounded approximation.
 */
std::vector<std::pair<std::string, unsigned>>
parseCapacities(const std::string &list)
{
    std::vector<std::pair<std::string, unsigned>> points;
    for (const std::string &label : cli::splitList(list)) {
        std::uint64_t total = 0; // Inf: unbounded
        if (label != "Inf" && label != "inf") {
            const bool kilo = !label.empty() &&
                (label.back() == 'K' || label.back() == 'k');
            const std::uint64_t scale = kilo ? 1024 : 1;
            // 2^30 caps any sane geometry and keeps the total far
            // from wrapping 32 bits.
            try {
                total = scale * cli::parseNumber(
                    label.substr(0, label.size() - kilo), 1,
                    (std::uint64_t(1) << 30) / scale);
            } catch (const UsageError &) {
            }
            if (total == 0 || total % 8 != 0) {
                throw UsageError("invalid capacity '" + label +
                                 "' (total entries, multiple of 8, "
                                 "K suffix allowed, or Inf)");
            }
        }
        points.emplace_back(label, static_cast<unsigned>(total));
    }
    return points;
}

/** The profiles of a --suite name. */
std::vector<const BenchmarkProfile *>
parseSuite(const std::string &name)
{
    if (name == "all")
        return allProfilePtrs();
    if (name == "selected")
        return selectedProfiles();
    if (name == "media")
        return profilesOfSuite(Suite::Media);
    if (name == "int")
        return profilesOfSuite(Suite::Int);
    if (name == "fp")
        return profilesOfSuite(Suite::Fp);
    throw UsageError("unknown suite '" + name +
                     "' (media | int | fp | selected | all)");
}

/** Every --sweep=DIM name: "lsu | cache-reads | ...". */
std::string
dimensionNames()
{
    std::string names;
    for (const SweepDimension &dimension : sweep_dimensions)
        names += std::string(names.empty() ? "" : " | ") + dimension.name;
    return names;
}

/** Every nosq_sim flag, declared once. */
cli::Table
optionTable(Options &o)
{
    using cli::Arg;
    using cli::number;
    using cli::set;
    using cli::store;
    constexpr std::uint64_t any = ~std::uint64_t(0);
    // Each mode flag applies only to the mode it selects, so
    // checkModes() rejects any second one.
    auto select = [&o](Mode mode) {
        return [&o, mode](const std::string &) { o.selected = mode; };
    };
    auto validate = [&o](Mode mode) {
        return [&o, mode](const std::string &v) {
            o.selected = mode;
            o.validatePath = v;
        };
    };
    // A machine flag records the UarchParams edit it makes, with its
    // value parsed in lo..hi (a switch has none: ""), and
    // applyMachineFlags() replays the edits onto every configuration.
    auto edit = [&o](MachineEdit apply, unsigned lo = 0, unsigned hi = 0) {
        return [&o, apply, lo, hi](const std::string &v) {
            o.machine.emplace_back(
                apply, v.empty() ? 0 : cli::parseUnsigned(v, lo, hi));
        };
    };
    // The table keeps a pointer into the --sweep help: build it once.
    static const std::string sweep_help = "run a sweep in parallel: "
        "bare, the modes x windows x benchmarks cross-product, or DIM = " +
        dimensionNames() + " (docs/cli.md describes each). Without "
        "--json, a paper-figure dimension prints the figure's table and "
        "the others a per-run table. The machine flags apply to every "
        "configuration; the swept dimension wins on its own knob";
    return cli::Table{
        "usage: nosq_sim [options]",
        nullptr,
        {
            {"--list", Arg::None, nullptr,
             "list benchmark profiles", select(List), List},
            {"--bench", Arg::Required, "NAME",
             "benchmark profile or multicore kernel to run (required "
             "for a single run); in sweep mode, a comma-separated "
             "list restricting the sweep",
             store(o.bench), simulations},
            {"--mode", Arg::Required, "MODE",
             "perfect | storesets | nosq | nosq-perfect (default: "
             "nosq)",
             [&o](const std::string &v) { o.mode = parseMode(v); },
             single_runs | Sweep},
            {"--insts", Arg::Required, "N",
             "measured instructions, at least 1 (default 300000)",
             number(o.insts, 1, any),
             simulations | Perf},
            {"--warmup", Arg::Required, "N",
             "warm-up instructions (default insts/3)",
             number(o.warmup, 0, any),
             simulations | Perf},
            {"--window", Arg::Required, "SIZE",
             "128 | 256 (default 128)",
             [&o](const std::string &v) { o.window = parseWindow(v); },
             simulations},
            {"--no-delay", Arg::None, nullptr,
             "disable the delay mechanism", set(o.delay, false),
             simulations},
            {"--no-svw", Arg::None, nullptr,
             "disable SVW filtering (re-execute all)",
             edit([](UarchParams &p, unsigned) { p.svwFilter = false; }),
             simulations},
            {"--history", Arg::Required, "BITS",
             "bypassing predictor history bits; with --sweep=history "
             "a comma list of the swept points",
             [&o](const std::string &v) {
                 o.history.clear();
                 for (const std::string &bits : cli::splitList(v))
                     o.history.push_back(cli::parseUnsigned(bits));
                 // A --sweep=history dimension sets its own points.
                 o.machine.emplace_back(
                     [](UarchParams &p, unsigned bits) {
                         p.bypass.historyBits = bits;
                     },
                     o.history.front());
             },
             simulations},
            {"--entries", Arg::Required, "N",
             "bypassing predictor entries per table, a nonzero "
             "multiple of 4",
             [&o](const std::string &v) {
                 // A zero entry count would crash the predictor's
                 // set indexing, and a set holds 4 ways.
                 const unsigned n = cli::parseUnsigned(v, 1);
                 if (n % 4 != 0)
                     throw UsageError("'" + v + "' is not a nonzero "
                                      "multiple of 4");
                 o.machine.emplace_back(
                     [](UarchParams &p, unsigned entries) {
                         p.bypass.entriesPerTable = entries;
                     },
                     n);
             },
             simulations},
            {"--mshrs", Arg::Required, "N",
             "L1D miss-status holding registers, 0..256 (0: legacy "
             "blocking-latency miss model, the default)",
             edit([](UarchParams &p, unsigned n) { p.memsys.mshrs = n; },
                  0, 256),
             simulations},
            {"--prefetch", Arg::Required, "N",
             "stream-prefetcher degree (lines per trigger), 0..64 "
             "(0: off, the default)",
             edit([](UarchParams &p,
                     unsigned n) { p.memsys.prefetchDegree = n; },
                  0, 64),
             simulations},
            {"--bus-occupancy", Arg::None, nullptr,
             "model DRAM-bus occupancy (queueing) instead of the "
             "flat transfer cost",
             edit([](UarchParams &p,
                     unsigned) { p.memsys.busContention = true; }),
             simulations},
            {"--cores", Arg::Required, "N",
             "core count, 1..64 (default 1, or 2 for a multicore "
             "kernel --bench); > 1 runs an N-core System over a "
             "shared coherent L2",
             number(o.cores, 1, max_cores), simulations},
            {"--queue-depth", Arg::Required, "N",
             "multicore kernel ring slots, a power of two in "
             "8..4096 (default 16)",
             [&o](const std::string &v) {
                 const unsigned n = cli::parseUnsigned(v, 8, 4096);
                 if ((n & (n - 1)) != 0)
                     throw UsageError("'" + v + "' is not a power of "
                                      "two in 8..4096");
                 o.queueDepth = n;
             },
             KernelRun | KernelSweep},
            {"--seed", Arg::Required, "N",
             "workload seed (default 1)",
             number(o.seed, 0, any),
             simulations},
            {"--no-skip", Arg::None, nullptr,
             "disable event-driven cycle skipping (wall-clock only: "
             "statistics are bit-identical)",
             edit([](UarchParams &p, unsigned) { p.eventSkip = false; }),
             simulations},
            {"--sample", Arg::Required, "SPEC",
             "SMARTS-style sampled simulation; SPEC is "
             "ff:warmup:interval:count[:seed] in instructions: each "
             "period fast-forwards ff, re-warms warmup and measures "
             "interval. Stats are sums plus an IPC mean and 95% "
             "confidence interval; --insts/--warmup are ignored",
             [&o](const std::string &v) {
                 std::string error;
                 if (!parseSamplingSpec(v, o.sampling, error))
                     throw UsageError("'" + v + "': " + error);
             },
             single_core_sims},
            cli::heading("sweep mode:"),
            {"--sweep", Arg::Optional, "DIM", sweep_help.c_str(),
             [&o](const std::string &v) {
                 o.selected = Sweep;
                 if (v.empty())
                     return;
                 o.dimension = findSweepDimension(v);
                 if (o.dimension == nullptr)
                     throw UsageError("unknown sweep dimension '" + v +
                                      "' (" + dimensionNames() + ")");
                 o.selected =
                     o.dimension->kernels ? KernelSweep : DimensionSweep;
             },
             sweeps},
            {"--jobs", Arg::Required, "N",
             "worker threads (default: NOSQ_JOBS env, else hardware "
             "concurrency)",
             number(o.jobs, 0, std::numeric_limits<unsigned>::max()),
             sweeps},
            {"--suite", Arg::Required, "NAME",
             "media | int | fp | selected | all (default: selected)",
             [&o](const std::string &v) { o.suite = parseSuite(v); },
             sweeps & ~KernelSweep},
            {"--modes", Arg::Required, "LIST",
             "comma-separated mode list, --sweep only (default: all "
             "four modes, or --mode when given)",
             [&o](const std::string &v) {
                 o.modes.clear();
                 for (const std::string &name : cli::splitList(v))
                     o.modes.push_back(parseMode(name));
             },
             Sweep},
            {"--windows", Arg::Required, "LIST",
             "comma-separated window sizes, each 128 or 256 (--sweep "
             "default: 128,256 or --window when given; dimension "
             "sweeps take exactly one, default 128)",
             [&o](const std::string &v) {
                 o.windows.clear();
                 for (const std::string &size : cli::splitList(v))
                     o.windows.push_back(parseWindow(size));
             },
             sweeps},
            {"--capacities", Arg::Required, "LIST",
             "--sweep=capacity points: total entries, K suffix "
             "allowed, Inf for unbounded (default "
             "64,128,256,512,1K,2K,4K,Inf)",
             [&o](const std::string &v) {
                 o.capacities = parseCapacities(v);
             },
             DimensionSweep},
            {"--checkpoint", Arg::Required, "FILE",
             "store each completed job in FILE, a nosq-store-v1 "
             "result store (starts empty; refuses a FILE holding "
             "results of this sweep)",
             store(o.checkpointPath), sweeps},
            {"--resume", Arg::Required, "FILE",
             "resume an interrupted sweep from store FILE: reuse the "
             "results whose job fingerprints match, run the rest and "
             "keep storing to FILE; the report is byte-identical to "
             "an uninterrupted run",
             store(o.resumePath), sweeps},
            {"--server", Arg::Required, "SOCK",
             "run the sweep on the nosq_sweepd daemon at Unix socket "
             "SOCK; the report is byte-identical to a local sweep. "
             "Not with --checkpoint/--resume: the daemon owns its own "
             "store",
             store(o.server), sweeps | ServerStatus | ServerMetrics},
            {"--server-status", Arg::None, nullptr,
             "print the daemon's one-line status JSON and exit; "
             "requires --server",
             select(ServerStatus), ServerStatus},
            {"--server-metrics", Arg::None, nullptr,
             "print the daemon's metrics in the Prometheus text "
             "format and exit; requires --server",
             select(ServerMetrics), ServerMetrics},
            {"--retries", Arg::Required, "N",
             "total --server connection attempts, 1..1000 (default "
             "5); dropped connections and 'draining' or 'overloaded' "
             "replies back off and resume the result stream",
             number(o.retries, 1, 1000),
             sweeps},
            {"--json", Arg::None, nullptr,
             "emit the nosq-sweep-v2 JSON report to stdout instead of "
             "a table",
             set(o.json, true), sweeps},
            {"--out", Arg::Required, "FILE",
             "write the JSON report to FILE (the table still prints "
             "without --json)",
             store(o.outPath), sweeps | Perf},
            cli::heading("observability:"),
            {"--trace-pipe", Arg::Required, "SPEC",
             "export a pipeline trace of a single-core single run as "
             "Chrome trace-event JSON; SPEC is FILE[:SKIP:COUNT] "
             "(default: the first 50000 instructions)",
             [&o](const std::string &v) {
                 obs::PipeTraceConfig config;
                 std::string error;
                 if (!obs::parsePipeTraceSpec(v, config, error))
                     throw UsageError(error);
                 o.tracePipe = std::move(config);
             },
             Run},
            cli::heading("validation mode:"),
            {"--validate", Arg::Required, "FILE",
             "strict-parse FILE and check it against the "
             "nosq-sweep-v2 schema",
             validate(Validate), Validate},
            {"--validate-trace", Arg::Required, "FILE",
             "strict-check FILE as a --trace-pipe export (event "
             "shape, nondecreasing timestamps) and print per-event "
             "counts",
             validate(ValidateTrace), ValidateTrace},
            cli::heading("perf mode:"),
            {"--perf", Arg::None, nullptr,
             "time the simulator over the reference workload and emit "
             "nosq-bench-core-v1 JSON; honours --insts/--warmup and "
             "writes --out",
             select(Perf), Perf},
            {"--help", Arg::Help, nullptr, nullptr, {}},
        },
        {
            {Run, "single-run"},
            {KernelRun, "multicore-kernel single-run"},
            {Sweep, "--sweep"},
            {DimensionSweep, "--sweep=DIM"},
            {KernelSweep, "--sweep=multicore"},
            {Perf, "--perf"},
            {Validate, "--validate"},
            {ValidateTrace, "--validate-trace"},
            {List, "--list"},
            {ServerStatus, "--server-status"},
            {ServerMetrics, "--server-metrics"},
        },
    };
}

/**
 * The checks that depend on flag values, not just on the mode (the
 * mode checks come from the option table).
 */
void
checkCombinations(const Options &o, cli::ModeMask mode)
{
    if (o.history.size() > 1 &&
        o.dimension != findSweepDimension("history"))
        throw UsageError("--history takes a comma list only with "
                         "--sweep=history");
    if (!o.capacities.empty() &&
        o.dimension != findSweepDimension("capacity"))
        throw UsageError("--capacities applies only to --sweep=capacity");
    if (o.sampling.enabled && o.cores.value_or(1) > 1)
        throw UsageError("--sample is single-core only");
    if (o.tracePipe && o.cores.value_or(1) > 1)
        throw UsageError("--trace-pipe applies only to single-core "
                         "runs");
    if ((mode & (ServerStatus | ServerMetrics)) && o.server.empty())
        throw UsageError("--server-status and --server-metrics "
                         "require --server SOCK");
    const bool journaled =
        !o.checkpointPath.empty() || !o.resumePath.empty();
    if (!o.server.empty() && journaled)
        throw UsageError("--server and --checkpoint/--resume are "
                         "mutually exclusive (journaling is "
                         "server-side: the daemon owns a persistent "
                         "result store)");
    if (!o.checkpointPath.empty() && !o.resumePath.empty())
        throw UsageError("--checkpoint and --resume are mutually "
                         "exclusive (--resume keeps journaling to its "
                         "own file)");
    if (o.dimension != nullptr && o.windows.size() > 1)
        throw UsageError("dimension sweeps take a single --window "
                         "(128 or 256)");
    if (mode & single_runs) {
        if (o.bench.empty())
            throw UsageError("--bench is required in single-run mode "
                             "(try --list)");
        if (mode == KernelRun && o.cores.value_or(2) < 2)
            throw UsageError("multicore kernel '" + o.bench +
                             "' needs --cores >= 2");
    }
}

void
listProfiles()
{
    TextTable table;
    table.header({"name", "suite", "comm%", "partial%",
                  "paper IPC"});
    for (const auto &p : allProfiles()) {
        table.row({p.name, suiteName(p.suite), fmtPct(p.pctComm),
                   fmtPct(p.pctPartial), fmtDouble(p.idealIpc, 2)});
    }
    std::fputs(table.render().c_str(), stdout);
}

/**
 * Apply the machine flags to @p config, shared by single runs and
 * every sweep family: the UarchParams edits their option rows
 * recorded, then the config's own tweak (a swept dimension), so the
 * dimension wins on its own knob.
 */
void
applyMachineFlags(const Options &o, SweepConfig &config)
{
    if (!o.delay)
        config.nosqDelay = false;
    // The multicore dimension already baked --cores/--queue-depth
    // into its grid, so re-applying them is a no-op there.
    if (o.cores)
        config.cores = *o.cores;
    if (o.queueDepth)
        config.queueDepth = *o.queueDepth;
    config.tweak = [edits = o.machine, dimension = std::move(config.tweak)](
                       UarchParams &p) {
        for (const auto &[apply, value] : edits)
            apply(p, value);
        if (dimension)
            dimension(p);
    };
}

/**
 * The jobs of @p configs, with the machine flags applied, over the
 * workloads --bench names: multicore kernels in a multicore mode,
 * profiles otherwise. A sweep takes a comma-separated list and
 * defaults to every kernel or to the --suite profiles.
 * @return false, with the reason on stderr, on an unknown name
 */
bool
buildRunJobs(const Options &o, cli::ModeMask mode,
             std::vector<SweepConfig> configs,
             std::vector<SweepJob> &jobs)
{
    const bool multicore = mode == KernelRun || mode == KernelSweep;
    std::vector<const BenchmarkProfile *> profiles;
    std::vector<std::string> kernels;
    std::vector<std::string> names;
    if (mode & single_runs)
        names = {o.bench};
    else if (!o.bench.empty())
        names = cli::splitList(o.bench);
    else if (multicore)
        kernels = multicoreWorkloads();
    else
        profiles = o.suite;
    for (const std::string &name : names) {
        const BenchmarkProfile *profile = findProfile(name);
        if (multicore ? !isMulticoreWorkload(name) : profile == nullptr) {
            std::fprintf(stderr,
                         multicore ? "unknown multicore kernel '%s' "
                                     "(spsc-ring | mpsc-queue)\n"
                                   : "unknown benchmark '%s' "
                                     "(try --list)\n",
                         name.c_str());
            return false;
        }
        if (multicore)
            kernels.push_back(name);
        else
            profiles.push_back(profile);
    }

    for (SweepConfig &config : configs)
        applyMachineFlags(o, config);
    if (multicore) {
        jobs = buildMulticoreJobs(kernels, configs, o.insts,
                                  o.warmup.value_or(o.insts / 3),
                                  o.seed);
        return true;
    }
    SweepSpec spec;
    spec.benchmarks = std::move(profiles);
    spec.configs = std::move(configs);
    spec.insts = o.insts;
    spec.warmup = o.warmup.value_or(~std::uint64_t(0));
    spec.seed = o.seed;
    spec.sampling = o.sampling;
    jobs = buildJobs(spec);
    return true;
}

/** The configurations of the sweep the options select. */
std::vector<SweepConfig>
sweepConfigs(const Options &o)
{
    std::vector<unsigned> windows = o.windows;
    if (windows.empty() && o.window)
        windows = {*o.window};
    if (windows.empty())
        windows = o.dimension == nullptr ? std::vector<unsigned>{128, 256}
                                         : std::vector<unsigned>{128};
    if (o.dimension == nullptr) {
        std::vector<LsuMode> modes = o.modes;
        if (modes.empty() && o.mode)
            modes = {*o.mode};
        if (modes.empty()) {
            modes = {LsuMode::SqPerfect, LsuMode::SqStoreSets,
                     LsuMode::Nosq, LsuMode::NosqPerfect};
        }
        return crossConfigs(modes, windows);
    }

    // A dimension sweep; checkCombinations() allows it a single
    // window only.
    DimensionArgs args;
    args.capacities = o.capacities.empty()
        ? parseCapacities(default_capacities) : o.capacities;
    args.history = o.history.empty()
        ? std::vector<unsigned>{4, 6, 8, 10, 12} : o.history;
    args.cores = o.cores ? std::vector<unsigned>{*o.cores}
                         : std::vector<unsigned>{2, 4};
    args.queueDepths = o.queueDepth ? std::vector<unsigned>{*o.queueDepth}
                                    : std::vector<unsigned>{8, 64};
    std::vector<SweepConfig> configs = o.dimension->configs(args);
    for (SweepConfig &config : configs)
        config.bigWindow = windows.front() == 256;
    return configs;
}

int
runSweepMode(const Options &opt, cli::ModeMask mode)
{
    std::vector<SweepConfig> configs = sweepConfigs(opt);
    // Reductions normalize against the first configuration (the
    // SQ baseline of the dimension sweeps).
    const std::string baseline = configs.front().name;
    const std::size_t num_configs = configs.size();
    const Figure *figure = nullptr;
    if (opt.dimension != nullptr && !opt.dimension->figures.empty()) {
        const std::vector<Figure> &figures = opt.dimension->figures;
        figure = configs.front().bigWindow ? &figures.back()
                                           : &figures.front();
    }
    std::vector<SweepJob> jobs;
    if (!buildRunJobs(opt, mode, std::move(configs), jobs))
        return 1;

    // Live progress line: throttled, per-suite breakdown, and
    // TTY-aware -- redirected stderr (CI logs) stays clean.
    std::vector<std::string> job_suites;
    job_suites.reserve(jobs.size());
    for (const SweepJob &job : jobs) {
        job_suites.push_back(suiteName(
            job.profile ? job.profile->suite : job.suite));
    }
    obs::ProgressMeter meter(std::move(job_suites));
    SweepProgress progress;
    if (!opt.json && meter.enabled()) {
        progress = [&meter](std::size_t done, std::size_t total,
                            std::size_t index) {
            meter.report(done, total, index);
        };
    }

    // Checkpoint/resume journal: --resume reuses the matching
    // results of an existing store and keeps appending to it;
    // --checkpoint starts empty. A journal is not movable, so it is
    // built in place from the factory's result.
    std::unique_ptr<SweepJournal> journal;
    if (!opt.resumePath.empty())
        journal.reset(
            new SweepJournal(SweepJournal::resume(opt.resumePath)));
    else if (!opt.checkpointPath.empty())
        journal.reset(new SweepJournal(
            SweepJournal::create(opt.checkpointPath)));

    // Bind up front (the engine then skips its lazy bind) so the
    // salvage warnings and the resume summary print BEFORE the
    // sweep runs. The summary prints unconditionally for --resume:
    // a store with zero matching records used to re-run everything
    // silently, leaving logs with no evidence the resume found
    // nothing -- "resuming: 0/N journaled" makes that state
    // auditable.
    if (journal) {
        try {
            journal->bind(jobs);
        } catch (const JournalError &e) {
            for (const std::string &warning : journal->warnings())
                std::fprintf(stderr, "journal: %s\n",
                             warning.c_str());
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        for (const std::string &warning : journal->warnings())
            std::fprintf(stderr, "journal: %s\n", warning.c_str());
        // The report must never clobber the journal. The bound
        // journal exists on disk, so comparing inodes sees through
        // "./x" vs "x" and symlinks, before any job runs.
        struct stat out_stat, journal_stat;
        if (!opt.outPath.empty() &&
            ::stat(opt.outPath.c_str(), &out_stat) == 0 &&
            ::stat(journal->path().c_str(), &journal_stat) == 0 &&
            out_stat.st_dev == journal_stat.st_dev &&
            out_stat.st_ino == journal_stat.st_ino) {
            std::fprintf(stderr, "--out '%s' is the journal file; "
                         "refusing to overwrite it\n",
                         opt.outPath.c_str());
            return 1;
        }
        if (!opt.resumePath.empty()) {
            std::fprintf(stderr, "journal: resuming: %zu/%zu "
                         "journaled job(s) from '%s'\n",
                         journal->doneCount(), jobs.size(),
                         journal->path().c_str());
        }
    }

    std::vector<RunResult> results;
    int exit_code = 0;
    if (!opt.server.empty()) {
        // Client mode: the daemon runs the jobs; the report below
        // is assembled from the streamed results exactly as a local
        // sweep would and is byte-identical to one.
        serve::ClientOutcome outcome;
        std::string error;
        serve::RetryPolicy retry;
        retry.attempts = opt.retries;
        const bool served = serve::runSweepOnServer(
            opt.server, jobs, outcome, error, progress, retry);
        meter.finish();
        if (serve::FaultInjector::global().enabled()) {
            // Let harnesses assert the client-side plan fired.
            std::fprintf(
                stderr, "client fault sites: %s\n",
                serve::FaultInjector::global().statusJson().c_str());
        }
        if (!served) {
            std::fprintf(stderr, "server sweep failed: %s\n",
                         error.c_str());
            return 1;
        }
        if (!opt.json) {
            std::fprintf(stderr, "server: ticket %s, %zu job(s), "
                         "%zu cached, %zu shared\n",
                         outcome.ticket.c_str(), jobs.size(),
                         outcome.cached, outcome.shared);
        }
        for (const std::string &failure : outcome.failures) {
            std::fprintf(stderr, "server: job %s\n",
                         failure.c_str());
            exit_code = 1;
        }
        results = std::move(outcome.results);
    } else {
        try {
            results = journal
                ? runSweep(jobs, *journal, opt.jobs, progress)
                : runSweep(jobs, opt.jobs, progress);
            meter.finish();
        } catch (const SweepError &e) {
            meter.finish();
            // Per-job failures were isolated by the engine: report
            // the summary (job indices + reasons), salvage the
            // completed runs (failed ones carry "valid": false in
            // the report), and fail the invocation.
            std::fprintf(stderr, "\n%s\n", e.what());
            results = e.results();
            exit_code = 1;
        }
    }
    if (journal && !journal->writeError().empty()) {
        // The sweep itself completed, but a record did not reach
        // the checkpoint -- fail loudly so CI never trusts it.
        std::fprintf(stderr, "%s\n", journal->writeError().c_str());
        exit_code = 1;
    }

    if (opt.json || !opt.outPath.empty()) {
        const std::string report =
            sweepReportJson(results, jobs.front().insts, baseline);
        if (!opt.outPath.empty()) {
            if (!writeTextFile(opt.outPath, report))
                return 1;
        }
        if (opt.json) {
            std::fputs(report.c_str(), stdout);
            return exit_code;
        }
        // --out without --json: file written, table still prints.
    }

    if (figure != nullptr) {
        std::fputs(
            renderFigure(*figure, jobs, results, num_configs).c_str(),
            stdout);
        return exit_code;
    }
    TextTable table;
    table.header({"bench", "config", "IPC", "cycles", "mw/10k",
                  "dly%"});
    for (const RunResult &r : results) {
        table.row({r.benchmark, r.config, fmtDouble(r.sim.ipc(), 3),
                   std::to_string(r.sim.cycles),
                   fmtDouble(r.sim.mispredictsPer10kLoads(), 1),
                   fmtPct(r.sim.pctLoadsDelayed())});
    }
    std::fputs(table.render().c_str(), stdout);
    return exit_code;
}

/**
 * Read and strict-parse the JSON file @p path.
 * @return false, with the reason on stderr, if it cannot be
 */
bool
readJsonFile(const std::string &path, JsonValue &doc)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::string error;
    if (!parseJson(text, doc, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    return true;
}

/** Strict-parse @p path and check the nosq-sweep-v2 schema. */
int
runValidateMode(const std::string &path)
{
    JsonValue doc;
    if (!readJsonFile(path, doc))
        return 1;
    std::string error;
    if (!validateSweepReport(doc, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("%s: valid nosq-sweep-v2 (%zu runs)\n", path.c_str(),
                doc.find("runs")->array.size());
    return 0;
}

/**
 * --validate-trace: strict-check a --trace-pipe export. The file
 * must parse as JSON, carry a traceEvents array whose every event
 * has the emitted shape (name/cat/ph/ts/pid/tid/args.seq), and its
 * timestamps must be nondecreasing in file order. Prints per-name
 * event counts so harnesses can assert specific events appeared.
 */
int
runValidateTraceMode(const std::string &path)
{
    JsonValue doc;
    if (!readJsonFile(path, doc))
        return 1;
    if (doc.kind != JsonValue::Kind::Object) {
        std::fprintf(stderr, "%s: not a JSON object\n",
                     path.c_str());
        return 1;
    }
    const JsonValue *events = doc.find("traceEvents");
    if (events == nullptr ||
        events->kind != JsonValue::Kind::Array) {
        std::fprintf(stderr, "%s: missing traceEvents array\n",
                     path.c_str());
        return 1;
    }
    std::map<std::string, std::uint64_t> by_name;
    double prev_ts = -1.0;
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        auto bad = [&](const char *what) {
            std::fprintf(stderr, "%s: event %zu: %s\n",
                         path.c_str(), i, what);
            return 1;
        };
        if (e.kind != JsonValue::Kind::Object)
            return bad("not an object");
        const JsonValue *name = e.find("name");
        if (name == nullptr ||
            name->kind != JsonValue::Kind::String)
            return bad("missing 'name'");
        const JsonValue *cat = e.find("cat");
        if (cat == nullptr || cat->kind != JsonValue::Kind::String)
            return bad("missing 'cat'");
        const JsonValue *ph = e.find("ph");
        if (ph == nullptr || ph->kind != JsonValue::Kind::String ||
            ph->string != "i")
            return bad("'ph' is not \"i\"");
        const JsonValue *ts = e.find("ts");
        if (ts == nullptr || ts->kind != JsonValue::Kind::Number)
            return bad("missing numeric 'ts'");
        if (ts->number < prev_ts)
            return bad("timestamps go backward");
        prev_ts = ts->number;
        const JsonValue *args = e.find("args");
        if (args == nullptr ||
            args->kind != JsonValue::Kind::Object ||
            args->find("seq") == nullptr)
            return bad("missing 'args.seq'");
        ++by_name[name->string];
    }
    std::printf("%s: valid chrome trace (%zu event(s), "
                "timestamps nondecreasing)\n",
                path.c_str(), events->array.size());
    for (const auto &[name, count] : by_name)
        std::printf("  %s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
    return 0;
}

void
printStats(const SimResult &r)
{
    TextTable table;
    table.header({"statistic", "value"});
    for (const StatSection section : stat_sections) {
        const auto flag = statSectionFlag(section);
        if (flag != nullptr && !(r.*flag))
            continue;
        for (const StatRow<SimResult> &row : sim_stat_rows) {
            if (row.section != section || row.label == nullptr)
                continue;
            table.row({row.label,
                       row.counter != nullptr
                           ? std::to_string(r.*row.counter)
                           : fmtDouble(row.scale * row.valueOf(r),
                                       row.precision)});
        }
        if (section != StatSection::Multicore)
            continue;
        for (std::size_t i = 0; i < r.perCore.size(); ++i) {
            const SimResult::PerCore &pc = r.perCore[i];
            const double ipc = pc.cycles
                ? double(pc.insts) / double(pc.cycles) : 0.0;
            table.row({"core " + std::to_string(i) +
                           " insts/IPC/bypassed",
                       std::to_string(pc.insts) + " / " +
                           fmtDouble(ipc, 3) + " / " +
                           std::to_string(pc.bypassedLoads)});
        }
    }
    std::fputs(table.render().c_str(), stdout);
}

/**
 * A single run: a one-job sweep of --bench under the --mode/--window
 * configuration, its statistics printed as a table.
 */
int
runSingleMode(const Options &opt, cli::ModeMask mode)
{
    SweepConfig config;
    config.mode = opt.mode.value_or(LsuMode::Nosq);
    config.bigWindow = opt.window == 256u;
    // A multicore kernel needs a producer and a consumer.
    config.cores = mode == KernelRun ? 2 : 1;
    std::vector<SweepJob> jobs;
    if (!buildRunJobs(opt, mode, {config}, jobs))
        return 1;
    const SweepJob &job = jobs.front();

    const UarchParams &p = job.params;
    std::printf("benchmark %s | %s | window %u | cores %u | "
                "delay %s | SVW %s | mshrs %u | prefetch %u | "
                "bus %s\n\n",
                opt.bench.c_str(), lsuModeName(p.mode),
                config.bigWindow ? 256u : 128u, job.cores,
                p.nosqDelay ? "on" : "off", p.svwFilter ? "on" : "off",
                p.memsys.mshrs, p.memsys.prefetchDegree,
                p.memsys.busContention ? "occupancy" : "flat");

    // Pipeline trace export: open the sink before the run so an
    // unwritable path fails before cycles are spent. Null tracer =
    // byte-identical default behaviour.
    std::optional<obs::PipeTracer> tracer;
    std::string trace_error;
    if (opt.tracePipe) {
        tracer.emplace(*opt.tracePipe);
        if (!tracer->open(trace_error)) {
            std::fprintf(stderr, "--trace-pipe: %s\n",
                         trace_error.c_str());
            return 1;
        }
    }

    RunResult run;
    try {
        run = runSweepJob(job, tracer ? &*tracer : nullptr);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    if (tracer) {
        if (!tracer->finish(trace_error)) {
            std::fprintf(stderr, "--trace-pipe: %s\n",
                         trace_error.c_str());
            return 1;
        }
        std::fprintf(stderr, "trace: %llu event(s) -> '%s'\n",
                     static_cast<unsigned long long>(
                         tracer->events()),
                     tracer->config().path.c_str());
    }
    printStats(run.sim);
    return 0;
}

/** --server-status / --server-metrics: print the daemon's reply. */
int
runServerQuery(const Options &opt, cli::ModeMask mode)
{
    std::string reply, error;
    const bool ok = mode == ServerStatus
        ? serve::fetchServerStatus(opt.server, reply, error)
        : serve::fetchServerMetrics(opt.server, reply, error);
    if (!ok) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    // The status is one JSON line without its newline; the metrics
    // exposition ends in one.
    std::fputs(reply.c_str(), stdout);
    if (mode == ServerStatus)
        std::fputc('\n', stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Honour NOSQ_FAULT_PLAN before anything touches a syscall
    // seam, so chaos harnesses can exercise the client too.
    {
        std::string fault_error;
        if (!serve::FaultInjector::global().configureFromEnv(
                fault_error)) {
            std::fprintf(stderr, "nosq_sim: %s\n",
                         fault_error.c_str());
            return 2;
        }
    }

    Options opt;
    const cli::Table table = optionTable(opt);
    cli::ModeMask mode = 0;
    try {
        const cli::Parsed parsed = cli::parse(table, argc, argv);
        if (parsed.help) {
            std::fputs(cli::renderHelp(table).c_str(), stdout);
            return 0;
        }
        mode = opt.selected != 0 ? opt.selected
            : isMulticoreWorkload(opt.bench) ? KernelRun : Run;
        cli::checkModes(table, parsed, mode);
        checkCombinations(opt, mode);
        if ((mode & sweeps) && opt.jobs == 0)
            opt.jobs = defaultSweepWorkers();
    } catch (const UsageError &e) {
        std::fprintf(stderr, "nosq_sim: %s\n", e.what());
        return 1;
    }

    switch (mode) {
      case List:
        listProfiles();
        return 0;
      case Validate:
        return runValidateMode(opt.validatePath);
      case ValidateTrace:
        return runValidateTraceMode(opt.validatePath);
      case Perf: {
        const PerfReport report = runPerfHarness(
            opt.insts, opt.warmup.value_or(~std::uint64_t(0)));
        const std::string json = perfReportJson(report);
        if (!opt.outPath.empty() && !writeTextFile(opt.outPath, json))
            return 1;
        std::fputs(json.c_str(), stdout);
        return 0;
      }
      case ServerStatus:
      case ServerMetrics:
        return runServerQuery(opt, mode);
      case Run:
      case KernelRun:
        return runSingleMode(opt, mode);
      default:
        return runSweepMode(opt, mode);
    }
}
