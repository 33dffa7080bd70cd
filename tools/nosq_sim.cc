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
 *   nosq_sim --validate sweep.json
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "memsys/coherence.hh"
#include "obs/metrics.hh"
#include "obs/pipe_trace.hh"
#include "obs/progress.hh"
#include "serve/client.hh"
#include "serve/fault.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/perf.hh"
#include "sim/report.hh"
#include "sim/sampling.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/multicore.hh"
#include "workload/profiles.hh"
#include "workload/program_cache.hh"

using namespace nosq;

namespace {

void
usage()
{
    std::printf(
        "usage: nosq_sim [options]\n"
        "  --list                list benchmark profiles\n"
        "  --bench NAME          benchmark to run (single-run mode:\n"
        "                        required; sweep mode: restrict the\n"
        "                        sweep to this benchmark)\n"
        "  --mode MODE           perfect | storesets | nosq |\n"
        "                        nosq-perfect   (default: nosq)\n"
        "  --insts N             measured instructions "
        "(default 300000)\n"
        "  --warmup N            warm-up instructions "
        "(default insts/3)\n"
        "  --window SIZE         128 | 256 (default 128)\n"
        "  --no-delay            disable the delay mechanism\n"
        "  --no-svw              disable SVW filtering "
        "(re-execute all)\n"
        "  --history BITS        bypassing predictor history bits\n"
        "  --entries N           bypassing predictor entries/table\n"
        "  --mshrs N             L1D miss-status holding registers\n"
        "                        (0: legacy blocking-latency miss\n"
        "                        model, the default)\n"
        "  --prefetch N          stream-prefetcher degree (lines per\n"
        "                        trigger; 0: off, the default)\n"
        "  --bus-occupancy       model DRAM-bus occupancy (queueing)\n"
        "                        instead of the flat transfer cost\n"
        "  --cores N             core count, 1..64 (default 1; > 1\n"
        "                        runs an N-core System with a shared\n"
        "                        coherent L2; a profile --bench\n"
        "                        replicates homogeneously, a\n"
        "                        multicore kernel --bench builds its\n"
        "                        producer/consumer programs)\n"
        "  --queue-depth N       multicore kernel ring slots, a power\n"
        "                        of two in 8..4096 (default 16)\n"
        "  --seed N              workload seed (default 1)\n"
        "  --no-skip             disable event-driven cycle skipping\n"
        "                        (a wall-clock optimization only;\n"
        "                        statistics are bit-identical either\n"
        "                        way)\n"
        "  --sample SPEC         SMARTS-style sampled simulation:\n"
        "                        SPEC is ff:warmup:interval:count\n"
        "                        [:seed] in instructions. Each period\n"
        "                        fast-forwards ff insts\n"
        "                        architecturally, re-warms the timing\n"
        "                        model for warmup insts, then\n"
        "                        measures interval insts; stats are\n"
        "                        sums over the measured intervals\n"
        "                        plus a per-interval IPC mean and 95%%\n"
        "                        confidence interval. seed != 0 adds\n"
        "                        a random initial offset. Applies to\n"
        "                        single runs and sweeps; --insts/\n"
        "                        --warmup are ignored when sampling\n"
        "sweep mode:\n"
        "  --sweep               run a modes x windows x benchmarks\n"
        "                        cross-product in parallel\n"
        "  --sweep=capacity      Fig. 5 (top) dimension: NoSQ over\n"
        "                        total predictor capacities vs a\n"
        "                        SQ+perfect baseline\n"
        "  --sweep=history       Fig. 5 (bottom) dimension: NoSQ\n"
        "                        over path-history lengths (bounded\n"
        "                        and unbounded capacity) vs a\n"
        "                        SQ+perfect baseline\n"
        "  --sweep=cache-reads   Fig. 4 pair: NoSQ vs the\n"
        "                        associative-SQ baseline\n"
        "  --sweep=memsys        memory-hierarchy dimension: L2\n"
        "                        size/latency x MSHR count x\n"
        "                        prefetcher on/off (16 points, DRAM\n"
        "                        bus occupancy on), each point under\n"
        "                        both the associative-SQ baseline\n"
        "                        and NoSQ; report rows carry a\n"
        "                        \"memsys\" hierarchy label\n"
        "  --sweep=multicore     multi-core dimension: core count x\n"
        "                        queue depth over the producer/\n"
        "                        consumer kernels (spsc-ring,\n"
        "                        mpsc-queue), each point under both\n"
        "                        the associative-SQ baseline and\n"
        "                        NoSQ; --bench restricts the kernel\n"
        "                        set, --cores/--queue-depth pin one\n"
        "                        grid axis\n"
        "  --jobs N              worker threads (default: NOSQ_JOBS\n"
        "                        env, else hardware concurrency)\n"
        "  --suite NAME          media | int | fp | selected | all\n"
        "                        (default: selected)\n"
        "  --bench LIST          restrict the sweep to these\n"
        "                        benchmarks (comma-separated)\n"
        "  --modes LIST          comma-separated mode list, --sweep\n"
        "                        only (default: all four modes, or\n"
        "                        --mode when given)\n"
        "  --windows LIST        comma-separated window sizes, each\n"
        "                        128 or 256 (--sweep default:\n"
        "                        128,256 or --window when given;\n"
        "                        dimension sweeps take exactly one,\n"
        "                        default 128)\n"
        "  --capacities LIST     --sweep=capacity points: total\n"
        "                        entries, K suffix allowed, Inf for\n"
        "                        unbounded (default\n"
        "                        64,128,256,512,1K,2K,4K,Inf)\n"
        "  --checkpoint FILE     store each completed job in FILE, a\n"
        "                        nosq-store-v1 result store flushed\n"
        "                        per record (starts empty; refuses a\n"
        "                        FILE holding results of this sweep)\n"
        "  --resume FILE         resume an interrupted sweep: reuse\n"
        "                        the results in store FILE (from any\n"
        "                        sweep or nosq_sweepd) whose job\n"
        "                        fingerprints match, run the rest,\n"
        "                        and keep storing to FILE. The merged\n"
        "                        report is byte-identical to an\n"
        "                        uninterrupted run; corrupt records\n"
        "                        are skipped with a warning\n"
        "  --server SOCK         run the sweep on the nosq_sweepd\n"
        "                        daemon listening at Unix socket\n"
        "                        SOCK instead of in-process worker\n"
        "                        threads; the report is\n"
        "                        byte-identical to a local sweep.\n"
        "                        Mutually exclusive with\n"
        "                        --checkpoint/--resume (the daemon\n"
        "                        owns its own persistent store)\n"
        "  --server-status       print the daemon's one-line status\n"
        "                        JSON (workers, executed,\n"
        "                        cache_hits, ...) and exit;\n"
        "                        requires --server\n"
        "  --server-metrics      scrape the daemon's metrics\n"
        "                        registry and print the Prometheus\n"
        "                        text exposition (queue depth,\n"
        "                        service-time histograms, fault\n"
        "                        counters, ...) and exit; requires\n"
        "                        --server\n"
        "  --retries N           total --server connection attempts\n"
        "                        before giving up; dropped\n"
        "                        connections, 'draining', and\n"
        "                        'overloaded' replies are retried\n"
        "                        with exponential backoff + jitter,\n"
        "                        resuming the result stream where\n"
        "                        it left off (default: 5)\n"
        "  --json                emit the nosq-sweep-v2 JSON report\n"
        "                        (runs + per-suite reductions) to\n"
        "                        stdout instead of a table\n"
        "  --out FILE            write the JSON report to FILE (the\n"
        "                        table still prints without --json)\n"
        "  (--no-delay, --no-svw, --history, --entries, --mshrs,\n"
        "   --prefetch, --bus-occupancy apply to every sweep\n"
        "   configuration; the swept dimension wins on its own\n"
        "   knob, and --history takes a comma list as the\n"
        "   --sweep=history points)\n"
        "observability:\n"
        "  --trace-pipe SPEC     export a pipeline trace of the\n"
        "                        single run as Chrome trace-event\n"
        "                        JSON (chrome://tracing, Perfetto);\n"
        "                        SPEC is FILE[:SKIP:COUNT]: trace\n"
        "                        the COUNT instructions after the\n"
        "                        first SKIP (default: first 50000).\n"
        "                        Single-core single-run mode only\n"
        "validation mode:\n"
        "  --validate FILE       strict-parse FILE and check it\n"
        "                        against the nosq-sweep-v2 schema;\n"
        "                        exits nonzero on any violation\n"
        "  --validate-trace FILE strict-parse FILE as a --trace-pipe\n"
        "                        export: event shape plus\n"
        "                        nondecreasing timestamps; prints\n"
        "                        per-event-name counts and exits\n"
        "                        nonzero on any violation\n"
        "perf mode:\n"
        "  --perf                time the simulator itself over the\n"
        "                        reference workload (serial) and\n"
        "                        emit nosq-bench-core-v1 JSON with\n"
        "                        simulated MIPS to stdout; honours\n"
        "                        --insts/--warmup and writes --out\n");
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

bool
parseMode(const std::string &name, LsuMode &mode)
{
    if (name == "perfect")
        mode = LsuMode::SqPerfect;
    else if (name == "storesets")
        mode = LsuMode::SqStoreSets;
    else if (name == "nosq")
        mode = LsuMode::Nosq;
    else if (name == "nosq-perfect")
        mode = LsuMode::NosqPerfect;
    else
        return false;
    return true;
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) {
            items.push_back(list.substr(start));
            break;
        }
        items.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return items;
}

/** Which family of configurations a sweep invocation runs. */
enum class SweepKind {
    Cross, Capacity, History, CacheReads, Memsys, Multicore
};

struct SweepOptions
{
    SweepKind kind = SweepKind::Cross;
    std::string suite = "selected";
    std::string bench;
    std::string modes;
    std::string windows = "128,256";
    bool windows_explicit = false;
    std::string capacities = "64,128,256,512,1K,2K,4K,Inf";
    bool capacities_explicit = false;
    std::string history_list;
    std::uint64_t insts = 0;
    std::uint64_t warmup = ~std::uint64_t(0);
    std::uint64_t seed = 1;
    unsigned jobs = 0;
    bool json = false;
    std::string out_path;
    std::string checkpoint_path;
    std::string resume_path;
    /** nosq_sweepd socket; non-empty runs the sweep as a client. */
    std::string server;
    /** Total --server connection attempts (see RetryPolicy). */
    unsigned retries = 5;
    // Single-run knobs forwarded into every sweep configuration.
    bool delay = true;
    bool svw = true;
    bool history_set = false;
    unsigned history_bits = 8;
    bool entries_set = false;
    unsigned entries = 1024;
    bool mshrs_set = false;
    unsigned mshrs = 0;
    bool prefetch_set = false;
    unsigned prefetch = 0;
    bool bus_occupancy = false;
    bool event_skip = true;
    bool cores_set = false;
    unsigned cores = 1;
    bool queue_depth_set = false;
    unsigned queue_depth = 0;
    SamplingParams sampling;
};

/**
 * Strictly parse an unsigned decimal value: no sign, no trailing
 * garbage (strtoul alone would coerce "abc" to 0).
 * @return false on a malformed value
 */
bool
parseUnsigned(const std::string &value, unsigned long &out)
{
    char *end = nullptr;
    out = std::strtoul(value.c_str(), &end, 10);
    return end != value.c_str() && *end == '\0';
}

/**
 * Parse a window size: only the paper's two machines exist, so
 * anything but 128 or 256 is rejected, never silently coerced.
 * @return false on a malformed or unsupported size
 */
bool
parseWindow(const std::string &value, bool &big_window)
{
    char *end = nullptr;
    const unsigned long size =
        std::strtoul(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' ||
        (size != 128 && size != 256))
        return false;
    big_window = size == 256;
    return true;
}

/**
 * Parse one --capacities point: total entries with an optional K
 * suffix, or Inf (0) for unbounded. Totals must be a multiple of 8
 * (two equally split 4-way tables) so the labeled capacity is
 * exactly the simulated one, never a rounded approximation.
 * @return false on a malformed point
 */
bool
parseCapacity(const std::string &label, unsigned &total)
{
    if (label == "Inf" || label == "inf") {
        total = 0;
        return true;
    }
    char *end = nullptr;
    const unsigned long v = std::strtoul(label.c_str(), &end, 10);
    unsigned long scale = 1;
    if (*end == 'K' || *end == 'k') {
        scale = 1024;
        ++end;
    }
    // 2^30 caps any sane geometry and keeps v * scale far from
    // wrapping the 32-bit total.
    if (end == label.c_str() || *end != '\0' || v == 0 ||
        v > (1ul << 30) / scale || (v * scale) % 8 != 0)
        return false;
    total = static_cast<unsigned>(v * scale);
    return true;
}

int
runSweepMode(const SweepOptions &opt)
{
    SweepSpec spec;
    spec.insts = opt.insts;
    spec.warmup = opt.warmup;
    spec.seed = opt.seed;
    spec.sampling = opt.sampling;

    // Benchmark set: an explicit comma-separated list narrows the
    // suite selection. The multicore dimension sweeps kernel names
    // (workload/multicore.hh) instead of benchmark profiles.
    std::vector<std::string> kernels;
    if (opt.kind == SweepKind::Multicore) {
        if (opt.bench.empty()) {
            kernels = multicoreWorkloads();
        } else {
            for (const std::string &name : splitList(opt.bench)) {
                if (!isMulticoreWorkload(name)) {
                    std::fprintf(stderr, "unknown multicore kernel "
                                 "'%s' (spsc-ring | mpsc-queue)\n",
                                 name.c_str());
                    return 1;
                }
                kernels.push_back(name);
            }
        }
    } else if (!opt.bench.empty()) {
        for (const std::string &name : splitList(opt.bench)) {
            const BenchmarkProfile *profile = findProfile(name);
            if (profile == nullptr) {
                std::fprintf(stderr, "unknown benchmark '%s' "
                             "(try --list)\n", name.c_str());
                return 1;
            }
            spec.benchmarks.push_back(profile);
        }
    } else if (opt.suite == "all") {
        spec.benchmarks = allProfilePtrs();
    } else if (opt.suite == "selected") {
        spec.benchmarks = selectedProfiles();
    } else if (opt.suite == "media") {
        spec.benchmarks = profilesOfSuite(Suite::Media);
    } else if (opt.suite == "int") {
        spec.benchmarks = profilesOfSuite(Suite::Int);
    } else if (opt.suite == "fp") {
        spec.benchmarks = profilesOfSuite(Suite::Fp);
    } else {
        std::fprintf(stderr, "unknown suite '%s'\n",
                     opt.suite.c_str());
        return 1;
    }

    // Window sizes (dimension sweeps run on one machine size).
    const std::string windows_list =
        (opt.kind != SweepKind::Cross && !opt.windows_explicit)
            ? "128" : opt.windows;
    std::vector<unsigned> windows;
    for (const std::string &w : splitList(windows_list)) {
        bool big = false;
        if (!parseWindow(w, big)) {
            std::fprintf(stderr, "invalid window size '%s' "
                         "(must be 128 or 256)\n", w.c_str());
            return 1;
        }
        windows.push_back(big ? 256u : 128u);
    }

    if (opt.kind == SweepKind::Cross) {
        // Configuration cross-product: modes x window sizes.
        std::vector<LsuMode> modes;
        if (opt.modes.empty()) {
            modes = {LsuMode::SqPerfect, LsuMode::SqStoreSets,
                     LsuMode::Nosq, LsuMode::NosqPerfect};
        } else {
            for (const std::string &name : splitList(opt.modes)) {
                LsuMode mode;
                if (!parseMode(name, mode)) {
                    std::fprintf(stderr, "unknown mode '%s'\n",
                                 name.c_str());
                    return 1;
                }
                modes.push_back(mode);
            }
        }
        if (windows.empty() || modes.empty()) {
            std::fprintf(stderr, "empty sweep\n");
            return 1;
        }
        spec.configs = crossConfigs(modes, windows);
    } else {
        // Fixed-baseline dimension sweep (Figures 4 and 5). Flags
        // the dimension cannot honour are rejected, not silently
        // ignored.
        if (!opt.modes.empty()) {
            std::fprintf(stderr, "--mode/--modes apply only to "
                         "--sweep (dimension sweeps fix their own "
                         "configurations)\n");
            return 1;
        }
        if (windows.size() != 1) {
            std::fprintf(stderr, "dimension sweeps take a single "
                         "--window (128 or 256)\n");
            return 1;
        }
        if (opt.kind == SweepKind::CacheReads)
            spec.configs = cacheReadsConfigs();
        else if (opt.kind == SweepKind::Memsys)
            spec.configs = memsysConfigs();
        else if (opt.kind == SweepKind::Multicore)
            spec.configs = multicoreConfigs(
                opt.cores_set ? std::vector<unsigned>{opt.cores}
                              : std::vector<unsigned>{2, 4},
                opt.queue_depth_set
                    ? std::vector<unsigned>{opt.queue_depth}
                    : std::vector<unsigned>{8, 64});
        else
            spec.configs.push_back(sqPerfectBaseline());
        if (opt.kind == SweepKind::Capacity) {
            std::vector<std::pair<std::string, unsigned>> capacities;
            for (const std::string &label :
                 splitList(opt.capacities)) {
                unsigned total = 0;
                if (!parseCapacity(label, total)) {
                    std::fprintf(stderr, "invalid capacity '%s' "
                                 "(total entries, multiple of 8, "
                                 "K suffix allowed, or Inf)\n",
                                 label.c_str());
                    return 1;
                }
                capacities.emplace_back(label, total);
            }
            for (SweepConfig &config :
                 predictorCapacityConfigs(capacities))
                spec.configs.push_back(std::move(config));
        } else if (opt.kind == SweepKind::History) {
            std::vector<unsigned> bits;
            if (opt.history_list.empty()) {
                bits = {4, 6, 8, 10, 12};
            } else {
                for (const std::string &b :
                     splitList(opt.history_list)) {
                    unsigned long v = 0;
                    if (!parseUnsigned(b, v)) {
                        std::fprintf(stderr, "invalid history "
                                     "length '%s'\n", b.c_str());
                        return 1;
                    }
                    bits.push_back(static_cast<unsigned>(v));
                }
            }
            for (SweepConfig &config : predictorHistoryConfigs(
                     bits, /*with_unbounded=*/true))
                spec.configs.push_back(std::move(config));
        }
        for (SweepConfig &config : spec.configs)
            config.bigWindow = windows.front() == 256;
    }
    const bool have_workloads = opt.kind == SweepKind::Multicore
        ? !kernels.empty() : !spec.benchmarks.empty();
    if (spec.configs.empty() || !have_workloads) {
        std::fprintf(stderr, "empty sweep\n");
        return 1;
    }
    // Reductions normalize against the first configuration (the
    // SQ baseline of the dimension sweeps).
    const std::string baseline = spec.configs.front().name;

    // Forward the single-run knobs into every configuration; the
    // swept dimension is applied last so it wins on its own knob.
    for (SweepConfig &config : spec.configs) {
        if (!opt.delay)
            config.nosqDelay = false;
        // Homogeneous multicore sweep of profile benchmarks; the
        // multicore dimension already baked --cores into its grid,
        // so re-applying the same value is a no-op there.
        if (opt.cores_set)
            config.cores = opt.cores;
        if (opt.queue_depth_set)
            config.queueDepth = opt.queue_depth;
        const std::function<void(UarchParams &)> dimension =
            config.tweak;
        config.tweak = [&opt, dimension](UarchParams &p) {
            p.svwFilter = opt.svw;
            p.eventSkip = opt.event_skip;
            if (opt.history_set)
                p.bypass.historyBits = opt.history_bits;
            if (opt.entries_set)
                p.bypass.entriesPerTable = opt.entries;
            if (opt.mshrs_set)
                p.memsys.mshrs = opt.mshrs;
            if (opt.prefetch_set)
                p.memsys.prefetchDegree = opt.prefetch;
            if (opt.bus_occupancy)
                p.memsys.busContention = true;
            if (dimension)
                dimension(p);
        };
    }

    std::vector<SweepJob> jobs;
    if (opt.kind == SweepKind::Multicore) {
        // Mirror buildJobs()'s insts/warmup defaulting so every
        // sweep family reports the same header numbers.
        const std::uint64_t mc_insts =
            spec.insts ? spec.insts : defaultSimInsts();
        const std::uint64_t mc_warmup =
            spec.warmup == ~std::uint64_t(0) ? mc_insts / 3
                                             : spec.warmup;
        jobs = buildMulticoreJobs(kernels, spec.configs, mc_insts,
                                  mc_warmup, spec.seed);
    } else {
        jobs = buildJobs(spec);
    }
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
    if (!opt.resume_path.empty())
        journal.reset(
            new SweepJournal(SweepJournal::resume(opt.resume_path)));
    else if (!opt.checkpoint_path.empty())
        journal.reset(new SweepJournal(
            SweepJournal::create(opt.checkpoint_path)));

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
        if (!opt.out_path.empty() &&
            ::stat(opt.out_path.c_str(), &out_stat) == 0 &&
            ::stat(journal->path().c_str(), &journal_stat) == 0 &&
            out_stat.st_dev == journal_stat.st_dev &&
            out_stat.st_ino == journal_stat.st_ino) {
            std::fprintf(stderr, "--out '%s' is the journal file; "
                         "refusing to overwrite it\n",
                         opt.out_path.c_str());
            return 1;
        }
        if (!opt.resume_path.empty()) {
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
        retry.attempts = opt.retries > 0 ? opt.retries : 1;
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

    const std::uint64_t insts = jobs.empty() ? 0 : jobs.front().insts;
    if (opt.json || !opt.out_path.empty()) {
        const std::string report =
            sweepReportJson(results, insts, baseline);
        if (!opt.out_path.empty()) {
            if (!writeTextFile(opt.out_path, report))
                return 1;
        }
        if (opt.json) {
            std::fputs(report.c_str(), stdout);
            return exit_code;
        }
        // --out without --json: file written, table still prints.
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

/** Strict-parse @p path and check the nosq-sweep-v2 schema. */
int
runValidateMode(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        return 1;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    JsonValue doc;
    std::string error;
    if (!parseJson(text, doc, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
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
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        return 1;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    JsonValue doc;
    std::string error;
    if (!parseJson(text, doc, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
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

    std::string bench;
    std::string mode = "nosq";
    std::uint64_t insts = 300000;
    std::uint64_t warmup = 0;
    bool warmup_set = false;
    bool big_window = false;
    bool delay = true;
    bool svw = true;
    std::string history_arg;
    unsigned history_bits = 8;
    unsigned entries = 1024;
    unsigned mshrs = 0;
    unsigned prefetch = 0;
    bool bus_occupancy = false;
    bool event_skip = true;
    unsigned cores = 1;
    bool cores_set = false;
    unsigned queue_depth = 0;
    bool queue_depth_set = false;
    SamplingParams sampling;
    std::uint64_t seed = 1;
    bool sweep = false;
    bool perf = false;
    bool mode_set = false;
    bool window_set = false;
    bool windows_set = false;
    bool history_set = false;
    bool entries_set = false;
    bool mshrs_set = false;
    bool prefetch_set = false;
    std::string validate_path;
    std::string validate_trace_path;
    std::string trace_pipe_spec;
    bool server_status = false;
    bool server_metrics = false;
    SweepOptions sweep_opt;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--list") {
            listProfiles();
            return 0;
        } else if (arg == "--bench") {
            bench = next();
        } else if (arg == "--mode") {
            mode = next();
            mode_set = true;
        } else if (arg == "--insts") {
            insts = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--warmup") {
            warmup = std::strtoull(next(), nullptr, 10);
            warmup_set = true;
        } else if (arg == "--window") {
            const char *value = next();
            if (!parseWindow(value, big_window)) {
                std::fprintf(stderr, "invalid --window '%s' "
                             "(must be 128 or 256)\n", value);
                return 1;
            }
            window_set = true;
        } else if (arg == "--no-delay") {
            delay = false;
        } else if (arg == "--no-svw") {
            svw = false;
        } else if (arg == "--history") {
            history_arg = next();
        } else if (arg == "--entries") {
            // A zero or garbage entry count would crash the
            // predictor's set indexing, and the set size must hold
            // whole 4-way sets.
            const char *value = next();
            unsigned long v = 0;
            if (!parseUnsigned(value, v) || v == 0 || v % 4 != 0) {
                std::fprintf(stderr, "invalid --entries '%s' "
                             "(nonzero multiple of 4)\n", value);
                return 1;
            }
            entries = static_cast<unsigned>(v);
            entries_set = true;
        } else if (arg == "--mshrs") {
            const char *value = next();
            unsigned long v = 0;
            if (!parseUnsigned(value, v) || v > 256) {
                std::fprintf(stderr, "invalid --mshrs '%s' "
                             "(0..256; 0 disables the non-blocking "
                             "model)\n", value);
                return 1;
            }
            mshrs = static_cast<unsigned>(v);
            mshrs_set = true;
        } else if (arg == "--prefetch") {
            const char *value = next();
            unsigned long v = 0;
            if (!parseUnsigned(value, v) || v > 64) {
                std::fprintf(stderr, "invalid --prefetch '%s' "
                             "(degree 0..64; 0 disables the "
                             "prefetcher)\n", value);
                return 1;
            }
            prefetch = static_cast<unsigned>(v);
            prefetch_set = true;
        } else if (arg == "--bus-occupancy") {
            bus_occupancy = true;
        } else if (arg == "--cores") {
            const char *value = next();
            unsigned long v = 0;
            if (!parseUnsigned(value, v) || v == 0 ||
                v > max_cores) {
                std::fprintf(stderr, "invalid --cores '%s' "
                             "(1..%u)\n", value,
                             unsigned(max_cores));
                return 1;
            }
            cores = static_cast<unsigned>(v);
            cores_set = true;
        } else if (arg == "--queue-depth") {
            const char *value = next();
            unsigned long v = 0;
            if (!parseUnsigned(value, v) || v < 8 || v > 4096 ||
                (v & (v - 1)) != 0) {
                std::fprintf(stderr, "invalid --queue-depth '%s' "
                             "(power of two in 8..4096)\n", value);
                return 1;
            }
            queue_depth = static_cast<unsigned>(v);
            queue_depth_set = true;
        } else if (arg == "--no-skip") {
            event_skip = false;
        } else if (arg == "--sample" ||
                   arg.rfind("--sample=", 0) == 0) {
            const std::string spec =
                arg == "--sample" ? next() : arg.substr(9);
            std::string error;
            if (!parseSamplingSpec(spec, sampling, error)) {
                std::fprintf(stderr, "invalid --sample '%s': %s\n",
                             spec.c_str(), error.c_str());
                return 1;
            }
        } else if (arg == "--seed") {
            seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--perf") {
            perf = true;
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg.rfind("--sweep=", 0) == 0) {
            sweep = true;
            const std::string dimension = arg.substr(8);
            if (dimension == "capacity") {
                sweep_opt.kind = SweepKind::Capacity;
            } else if (dimension == "history") {
                sweep_opt.kind = SweepKind::History;
            } else if (dimension == "cache-reads") {
                sweep_opt.kind = SweepKind::CacheReads;
            } else if (dimension == "memsys") {
                sweep_opt.kind = SweepKind::Memsys;
            } else if (dimension == "multicore") {
                sweep_opt.kind = SweepKind::Multicore;
            } else {
                std::fprintf(stderr, "unknown sweep dimension '%s' "
                             "(capacity | history | cache-reads | "
                             "memsys | multicore)\n",
                             dimension.c_str());
                return 1;
            }
        } else if (arg == "--capacities") {
            sweep_opt.capacities = next();
            sweep_opt.capacities_explicit = true;
        } else if (arg == "--validate") {
            validate_path = next();
        } else if (arg == "--validate-trace") {
            validate_trace_path = next();
        } else if (arg == "--trace-pipe" ||
                   arg.rfind("--trace-pipe=", 0) == 0) {
            trace_pipe_spec =
                arg == "--trace-pipe" ? next() : arg.substr(13);
            if (trace_pipe_spec.empty()) {
                std::fprintf(stderr, "--trace-pipe needs a "
                             "FILE[:SKIP:COUNT] spec\n");
                return 1;
            }
        } else if (arg == "--jobs") {
            sweep_opt.jobs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--suite") {
            sweep_opt.suite = next();
        } else if (arg == "--modes") {
            sweep_opt.modes = next();
        } else if (arg == "--windows") {
            sweep_opt.windows = next();
            windows_set = true;
        } else if (arg == "--json") {
            sweep_opt.json = true;
        } else if (arg == "--out") {
            sweep_opt.out_path = next();
        } else if (arg == "--checkpoint" ||
                   arg.rfind("--checkpoint=", 0) == 0) {
            sweep_opt.checkpoint_path =
                arg == "--checkpoint" ? next() : arg.substr(13);
            // An empty path (e.g. --checkpoint=$UNSET) must never
            // silently run without crash protection.
            if (sweep_opt.checkpoint_path.empty()) {
                std::fprintf(stderr, "--checkpoint needs a "
                             "non-empty path\n");
                return 1;
            }
        } else if (arg == "--resume" ||
                   arg.rfind("--resume=", 0) == 0) {
            sweep_opt.resume_path =
                arg == "--resume" ? next() : arg.substr(9);
            if (sweep_opt.resume_path.empty()) {
                std::fprintf(stderr, "--resume needs a non-empty "
                             "path\n");
                return 1;
            }
        } else if (arg == "--server" ||
                   arg.rfind("--server=", 0) == 0) {
            sweep_opt.server =
                arg == "--server" ? next() : arg.substr(9);
            if (sweep_opt.server.empty()) {
                std::fprintf(stderr, "--server needs a non-empty "
                             "socket path\n");
                return 1;
            }
        } else if (arg == "--server-status") {
            server_status = true;
        } else if (arg == "--server-metrics") {
            server_metrics = true;
        } else if (arg == "--retries") {
            char *end = nullptr;
            const unsigned long v =
                std::strtoul(next(), &end, 10);
            if (end == nullptr || *end != '\0' || v == 0 ||
                v > 1000) {
                std::fprintf(stderr, "--retries needs an integer "
                             "in 1..1000\n");
                return 1;
            }
            sweep_opt.retries = static_cast<unsigned>(v);
        } else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    if (!validate_path.empty())
        return runValidateMode(validate_path);
    if (!validate_trace_path.empty())
        return runValidateTraceMode(validate_trace_path);

    if (perf) {
        if (sweep) {
            std::fprintf(stderr, "--perf and --sweep are mutually "
                         "exclusive\n");
            return 1;
        }
        const PerfReport report = runPerfHarness(
            insts, warmup_set ? warmup : ~std::uint64_t(0));
        const std::string json = perfReportJson(report);
        if (!sweep_opt.out_path.empty() &&
            !writeTextFile(sweep_opt.out_path, json)) {
            return 1;
        }
        std::fputs(json.c_str(), stdout);
        return 0;
    }

    // --history: a single length everywhere; a comma list only as
    // the --sweep=history points.
    const bool history_is_list =
        history_arg.find(',') != std::string::npos;
    if (!history_arg.empty() && !history_is_list) {
        unsigned long v = 0;
        if (!parseUnsigned(history_arg, v)) {
            std::fprintf(stderr, "invalid --history '%s'\n",
                         history_arg.c_str());
            return 1;
        }
        history_bits = static_cast<unsigned>(v);
        history_set = true;
    }
    if (history_is_list &&
        !(sweep && sweep_opt.kind == SweepKind::History)) {
        std::fprintf(stderr, "--history takes a comma list only "
                     "with --sweep=history\n");
        return 1;
    }
    if (sweep_opt.capacities_explicit &&
        !(sweep && sweep_opt.kind == SweepKind::Capacity)) {
        std::fprintf(stderr, "--capacities applies only to "
                     "--sweep=capacity\n");
        return 1;
    }
    // Multi-core runs: sampled simulation is single-core only, and
    // --queue-depth only shapes the producer/consumer kernels.
    const bool multicore_run =
        (cores_set && cores > 1) ||
        (sweep && sweep_opt.kind == SweepKind::Multicore) ||
        (!sweep && isMulticoreWorkload(bench));
    if (sampling.enabled && multicore_run) {
        std::fprintf(stderr, "--sample is single-core only\n");
        return 1;
    }
    if (queue_depth_set &&
        !((sweep && sweep_opt.kind == SweepKind::Multicore) ||
          (!sweep && isMulticoreWorkload(bench)))) {
        std::fprintf(stderr, "--queue-depth applies only to "
                     "multicore kernel runs\n");
        return 1;
    }
    if (server_status) {
        if (sweep_opt.server.empty()) {
            std::fprintf(stderr, "--server-status requires "
                         "--server SOCK\n");
            return 1;
        }
        std::string reply, error;
        if (!serve::fetchServerStatus(sweep_opt.server, reply,
                                      error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
        std::printf("%s\n", reply.c_str());
        return 0;
    }
    if (server_metrics) {
        if (sweep_opt.server.empty()) {
            std::fprintf(stderr, "--server-metrics requires "
                         "--server SOCK\n");
            return 1;
        }
        std::string exposition, error;
        if (!serve::fetchServerMetrics(sweep_opt.server, exposition,
                                       error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
        std::fputs(exposition.c_str(), stdout);
        return 0;
    }
    if (!sweep_opt.server.empty() && !sweep) {
        std::fprintf(stderr, "--server applies only to sweep "
                     "mode\n");
        return 1;
    }
    if (!sweep_opt.server.empty() &&
        (!sweep_opt.checkpoint_path.empty() ||
         !sweep_opt.resume_path.empty())) {
        std::fprintf(stderr, "--server and --checkpoint/--resume "
                     "are mutually exclusive (journaling is "
                     "server-side: the daemon owns a persistent "
                     "result store)\n");
        return 1;
    }
    if ((!sweep_opt.checkpoint_path.empty() ||
         !sweep_opt.resume_path.empty()) && !sweep) {
        std::fprintf(stderr, "--checkpoint/--resume apply only to "
                     "sweep mode\n");
        return 1;
    }
    if (!sweep_opt.checkpoint_path.empty() &&
        !sweep_opt.resume_path.empty()) {
        std::fprintf(stderr, "--checkpoint and --resume are "
                     "mutually exclusive (--resume keeps "
                     "journaling to its own file)\n");
        return 1;
    }

    if (sweep) {
        sweep_opt.bench = bench;
        sweep_opt.insts = insts;
        if (warmup_set)
            sweep_opt.warmup = warmup;
        sweep_opt.seed = seed;
        // Single-run flags narrow the sweep instead of being
        // silently ignored (--modes/--windows take precedence).
        if (mode_set && sweep_opt.modes.empty())
            sweep_opt.modes = mode;
        if (window_set && !windows_set)
            sweep_opt.windows = big_window ? "256" : "128";
        sweep_opt.windows_explicit = window_set || windows_set;
        sweep_opt.delay = delay;
        sweep_opt.svw = svw;
        // In history-dimension mode, --history (single or list)
        // names the sweep points rather than a fixed knob.
        if (sweep_opt.kind == SweepKind::History)
            sweep_opt.history_list = history_arg;
        if (history_set) {
            sweep_opt.history_set = true;
            sweep_opt.history_bits = history_bits;
        }
        if (entries_set) {
            sweep_opt.entries_set = true;
            sweep_opt.entries = entries;
        }
        if (mshrs_set) {
            sweep_opt.mshrs_set = true;
            sweep_opt.mshrs = mshrs;
        }
        if (prefetch_set) {
            sweep_opt.prefetch_set = true;
            sweep_opt.prefetch = prefetch;
        }
        if (cores_set) {
            sweep_opt.cores_set = true;
            sweep_opt.cores = cores;
        }
        if (queue_depth_set) {
            sweep_opt.queue_depth_set = true;
            sweep_opt.queue_depth = queue_depth;
        }
        sweep_opt.bus_occupancy = bus_occupancy;
        sweep_opt.event_skip = event_skip;
        sweep_opt.sampling = sampling;
        return runSweepMode(sweep_opt);
    }

    if (!trace_pipe_spec.empty() && sweep) {
        std::fprintf(stderr, "--trace-pipe applies only to "
                     "single-run mode\n");
        return 1;
    }

    if (bench.empty()) {
        usage();
        return 1;
    }
    // A multicore kernel name runs an N-core System (default 2
    // cores); a profile name runs single-core unless --cores > 1
    // asks for a homogeneous System.
    const bool mc_kernel = isMulticoreWorkload(bench);
    const BenchmarkProfile *profile =
        mc_kernel ? nullptr : findProfile(bench);
    if (!mc_kernel && profile == nullptr) {
        std::fprintf(stderr, "unknown benchmark '%s' "
                     "(try --list)\n", bench.c_str());
        return 1;
    }
    const unsigned num_cores =
        cores_set ? cores : (mc_kernel ? 2u : 1u);
    if (mc_kernel && num_cores < 2) {
        std::fprintf(stderr, "multicore kernel '%s' needs "
                     "--cores >= 2\n", bench.c_str());
        return 1;
    }

    LsuMode lsu;
    if (!parseMode(mode, lsu)) {
        std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
        return 1;
    }

    UarchParams params = makeParams(lsu, big_window);
    params.nosqDelay = delay;
    params.svwFilter = svw;
    params.bypass.historyBits = history_bits;
    params.bypass.entriesPerTable = entries;
    params.memsys.mshrs = mshrs;
    params.memsys.prefetchDegree = prefetch;
    params.memsys.busContention = bus_occupancy;
    params.eventSkip = event_skip;
    if (!warmup_set)
        warmup = insts / 3;

    std::printf("benchmark %s | %s | window %u | cores %u | "
                "delay %s | SVW %s | mshrs %u | prefetch %u | "
                "bus %s\n\n",
                bench.c_str(), lsuModeName(lsu),
                big_window ? 256u : 128u, num_cores,
                delay ? "on" : "off", svw ? "on" : "off", mshrs,
                prefetch, bus_occupancy ? "occupancy" : "flat");

    // Pipeline trace export: parse and open the sink before the run
    // so a bad spec or unwritable path fails before cycles are
    // spent. Null tracer = byte-identical default behaviour.
    std::optional<obs::PipeTracer> tracer;
    if (!trace_pipe_spec.empty()) {
        if (num_cores > 1) {
            std::fprintf(stderr, "--trace-pipe applies only to "
                         "single-core runs\n");
            return 1;
        }
        obs::PipeTraceConfig trace_cfg;
        std::string trace_error;
        if (!obs::parsePipeTraceSpec(trace_pipe_spec, trace_cfg,
                                     trace_error)) {
            std::fprintf(stderr, "--trace-pipe: %s\n",
                         trace_error.c_str());
            return 1;
        }
        tracer.emplace(std::move(trace_cfg));
        if (!tracer->open(trace_error)) {
            std::fprintf(stderr, "--trace-pipe: %s\n",
                         trace_error.c_str());
            return 1;
        }
    }

    SimResult r;
    if (num_cores > 1) {
        std::vector<std::shared_ptr<const Program>> programs;
        try {
            if (mc_kernel) {
                programs = buildMulticorePrograms(
                    bench, num_cores,
                    queue_depth_set ? queue_depth
                                    : default_queue_depth,
                    seed);
            } else {
                programs.reserve(num_cores);
                for (unsigned i = 0; i < num_cores; ++i) {
                    programs.push_back(ProgramCache::global().get(
                        *profile, seed + i));
                }
            }
            System system(params, std::move(programs));
            r = system.run(insts, warmup);
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    } else {
        OooCore core(params,
                     ProgramCache::global().get(*profile, seed));
        if (tracer)
            core.setTracer(&*tracer);
        r = sampling.enabled ? core.runSampled(sampling)
                             : core.run(insts, warmup);
    }

    if (tracer) {
        std::string trace_error;
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

    TextTable table;
    table.header({"statistic", "value"});
    auto row = [&](const char *name, const std::string &value) {
        table.row({name, value});
    };
    auto count = [&](const char *name, std::uint64_t v) {
        row(name, std::to_string(v));
    };
    count("instructions", r.insts);
    count("cycles", r.cycles);
    row("IPC", fmtDouble(r.ipc(), 3));
    count("loads", r.loads);
    count("stores", r.stores);
    count("branches", r.branches);
    row("comm loads %", fmtPct(r.pctCommLoads()));
    row("partial-word comm %", fmtPct(r.pctPartialCommLoads()));
    count("bypassed loads", r.bypassedLoads);
    count("shift&mask uops", r.shiftUops);
    count("delayed loads", r.delayedLoads);
    count("bypass mispredicts", r.bypassMispredicts);
    row("mispredicts /10k loads",
        fmtDouble(r.mispredictsPer10kLoads(), 2));
    count("load re-executions", r.reexecLoads);
    row("re-execution rate %", fmtDouble(100 * r.reexecRate(), 3));
    count("load value flushes", r.loadFlushes);
    count("dcache reads (core)", r.dcacheReadsCore);
    count("dcache reads (backend)", r.dcacheReadsBackend);
    count("dcache writes", r.dcacheWrites);
    count("branch mispredicts", r.branchMispredicts);
    count("SQ forwards", r.sqForwards);
    count("SQ partial-overlap stalls", r.sqStalls);
    count("SSN wrap drains", r.ssnWrapDrains);
    count("L1I hits", r.l1iHits);
    count("L1I misses", r.l1iMisses);
    count("L1D hits", r.l1dHits);
    count("L1D misses", r.l1dMisses);
    count("L1D writebacks", r.l1dWritebacks);
    row("L1D MPKI", fmtDouble(r.l1dMpki(), 2));
    count("L2 hits", r.l2Hits);
    count("L2 misses", r.l2Misses);
    count("L2 writebacks", r.l2Writebacks);
    row("L2 MPKI", fmtDouble(r.l2Mpki(), 2));
    count("DTLB misses", r.dtlbMisses);
    count("ITLB misses", r.itlbMisses);
    row("avg L1D miss latency", fmtDouble(r.avgMissLatency(), 1));
    count("MSHR secondary merges", r.mshrMerges);
    count("MSHR occupancy stalls", r.mshrStalls);
    count("prefetch fills", r.prefIssued);
    count("prefetch useful", r.prefUseful);
    row("prefetch accuracy %",
        fmtDouble(100 * r.prefetchAccuracy(), 1));
    count("cycles skipped (events)", r.skippedCycles);
    if (r.multicore) {
        count("cores", r.numCores);
        count("coherence invalidations", r.cohInvalidations);
        count("cache-to-cache transfers", r.cohC2cTransfers);
        count("coherence upgrade misses", r.cohUpgradeMisses);
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
    if (r.sampled) {
        count("sample intervals", r.sampleIntervals);
        count("fast-forwarded insts", r.sampleFfInsts);
        row("sampled IPC mean", fmtDouble(r.sampleIpcMean, 3));
        row("sampled IPC 95% CI +/-",
            fmtDouble(r.sampleIpcCi95, 3));
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}
