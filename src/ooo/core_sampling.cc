/**
 * @file
 * SMARTS-style sampled simulation (sim/sampling.hh).
 *
 * Each sampling period is fast-forward -> detailed warmup ->
 * measured interval. Fast-forward applies instructions
 * architecturally (committed memory image, SSN state, SPCT) without
 * touching the timing model; the detailed warmup then re-warms
 * caches and predictors before measurement begins. The aggregate
 * counters of a sampled run are sums over the measured intervals,
 * and the per-interval CPIs yield an IPC estimate + 95% confidence
 * interval reported alongside them.
 *
 * Soundness note: structures that cache SSN-tagged state (T-SSBF,
 * StoreSets) keep pre-fast-forward entries. That is safe by the same
 * argument that makes them safe across normal execution: stale
 * entries only ever force extra verification (re-execution), never
 * suppress it, and the retirement-time value check asserts the
 * filter's soundness on every load.
 */

#include <vector>

#include "common/logging.hh"
#include "ooo/core.hh"
#include "sim/report.hh"

namespace nosq {

namespace {

/** xorshift64: deterministic offset jitter for sampling seeds. */
std::uint64_t
xorshift64(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x ? x : 0x9e3779b97f4a7c15ull;
}

/** Sum every enumerated counter of @p x into @p acc. */
void
addCounters(SimResult &acc, const SimResult &x)
{
    std::vector<std::uint64_t *> dst;
    forEachSimCounter(acc, [&](const char *, std::uint64_t &v) {
        dst.push_back(&v);
    });
    std::size_t i = 0;
    SimResult &mut = const_cast<SimResult &>(x);
    forEachSimCounter(mut, [&](const char *, std::uint64_t &v) {
        *dst[i++] += v;
    });
}

void
exportMemStats(const MemSysStats &m, SimResult &res)
{
    forEachMemSysCounterPair(
        res, m, [](std::uint64_t &dst, const std::uint64_t &src) {
            dst = src;
        });
}

} // anonymous namespace

void
OooCore::flushToCommitted()
{
    // flushAfter squashes everything younger than the boundary and
    // rewinds the stream; the committed boundary squashes it all
    // (and resets fetch-stall/redirect state even when the pipeline
    // happens to be empty).
    flushAfter(stream.retiredSeq());
    nosq_assert(window.empty() && ssn.rename == ssn.commit,
                "flush to committed state left in-flight state");
}

std::uint64_t
OooCore::fastForwardInsts(std::uint64_t n)
{
    nosq_assert(window.empty(),
                "fast-forward requires a drained pipeline");
    std::uint64_t done = 0;
    while (done < n && stream.hasNext()) {
        const DynInst &di = stream.peek();
        if (di.halted) {
            traceExhausted = true;
            break;
        }
        // Functional warming: keep the cache/TLB image tracking the
        // fast-forwarded program so the detailed warmup only has to
        // re-warm the timing-only state (MSHRs, predictors, bus).
        // Without this, every measured interval would start against
        // an arbitrarily stale cache image (classic SMARTS
        // cold-structure bias).
        mem.warmInstFetch(di.pc);
        if (di.isLoad())
            mem.warmDataAccess(di.addr, false);
        if (di.isStore()) {
            mem.warmDataAccess(di.addr, true);
            // Mirror the architectural effects of store commit: the
            // wraparound drain (the pipeline is empty, so it never
            // stalls), SSN advance, the memory image, and the SPCT.
            if (ssn.nextWraps(params.ssnWrapPeriod))
                drainForSsnWrap();
            ++ssn.rename;
            ++ssn.commit;
            nosq_assert(ssn.commit == di.ssn,
                        "fast-forward SSN diverged from oracle");
            image.write(di.addr, di.size, di.memValue);
            if (spct.empty())
                spct.assign(spct_size, 0);
            spct[di.ssn % spct_size] = di.pc;
        }
        const InstSeq seq = di.seq;
        stream.next();
        stream.retireUpTo(seq);
        ++done;
    }
    return done;
}

SimResult
OooCore::runSampled(const SamplingParams &sp)
{
    nosq_assert(sp.enabled && sp.interval > 0 && sp.intervals > 0,
                "runSampled requires an enabled sampling config");

    // One livelock bound covers the whole detailed budget, offset
    // from wherever the clock ends up after fast-forwards.
    const std::uint64_t detailed_per_interval =
        sp.warmupLength + sp.interval;
    const std::uint64_t bound_slack =
        livelockBound(detailed_per_interval * sp.intervals);

    SimResult total;
    std::vector<double> interval_cpis;
    std::uint64_t ff_total = 0;

    // Systematic sampling with an optional random start offset.
    if (sp.seed != 0 && sp.ffLength > 0) {
        flushToCommitted();
        const std::uint64_t offset =
            xorshift64(sp.seed) % sp.ffLength;
        ff_total += fastForwardInsts(offset);
    }

    for (std::uint64_t i = 0; i < sp.intervals; ++i) {
        // --- fast-forward -------------------------------------------------
        if (sp.ffLength > 0) {
            flushToCommitted();
            ff_total += fastForwardInsts(sp.ffLength);
            if (traceExhausted)
                break;
        }

        const std::uint64_t cycle_bound =
            cycle >= ~std::uint64_t(0) - bound_slack
                ? ~std::uint64_t(0) : cycle + bound_slack;

        // --- detailed warmup ----------------------------------------------
        if (sp.warmupLength > 0)
            runUntilCommitted(committed + sp.warmupLength,
                              cycle_bound);

        // --- measured interval --------------------------------------------
        res = SimResult();
        const Cycle cycle_base = cycle;
        const MemSysStats mem_base = mem.stats();
        const std::uint64_t commit_base = committed;
        runUntilCommitted(commit_base + sp.interval, cycle_bound);
        const std::uint64_t measured = committed - commit_base;
        if (measured == 0)
            break; // trace ended inside the warmup
        res.cycles = cycle - cycle_base;
        res.insts = measured;
        exportMemStats(mem.stats() - mem_base, res);
        addCounters(total, res);
        total.skippedCycles += res.skippedCycles;
        // Accumulate CPI, not IPC: intervals are fixed instruction
        // counts, so the arithmetic mean of per-interval CPI equals
        // the aggregate CPI exactly, while a mean of per-interval
        // IPCs (mean of ratios) would be biased high relative to the
        // aggregate (ratio of sums).
        if (res.cycles > 0)
            interval_cpis.push_back(double(res.cycles) / measured);
        if (measured < sp.interval)
            break; // trace ended inside the interval
    }

    total.sampled = true;
    total.sampleIntervals = interval_cpis.size();
    total.sampleFfInsts = ff_total;
    double cpi_mean = 0.0, cpi_ci95 = 0.0;
    meanCi95(interval_cpis, cpi_mean, cpi_ci95);
    if (cpi_mean > 0.0) {
        // First-order (delta-method) propagation of the CPI interval
        // through f(x) = 1/x.
        total.sampleIpcMean = 1.0 / cpi_mean;
        total.sampleIpcCi95 = cpi_ci95 / (cpi_mean * cpi_mean);
    }
    res = total;
    return res;
}

} // namespace nosq
