#include "ooo/core.hh"

#include "common/logging.hh"
#include "obs/pipe_trace.hh"

namespace nosq {

const char *
lsuModeName(LsuMode mode)
{
    switch (mode) {
      case LsuMode::SqPerfect: return "assoc-sq/perfect-sched";
      case LsuMode::SqStoreSets: return "assoc-sq/store-sets";
      case LsuMode::Nosq: return "nosq";
      case LsuMode::NosqPerfect: return "nosq/perfect-smb";
    }
    return "???";
}

UarchParams
makeParams(LsuMode mode, bool big_window)
{
    UarchParams p;
    p.mode = mode;
    if (big_window) {
        // Figure 3: window resources doubled, branch predictor
        // quadrupled; the bypassing predictor is NOT enlarged.
        p.robSize = 256;
        p.iqSize = 80;
        p.lqSize = 96;
        p.sqSize = 48;
        p.numPhysRegs = 320;
        p.fetchBufferSize = 64;
        p.branch.tableEntries = 4 * 4096;
        p.branch.btbEntries = 4 * 2048;
    }
    return p;
}

namespace {

/** Smallest power of two >= @p n (n >= 1). */
std::size_t
nextPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/**
 * Copy a (warmup-windowed) hierarchy snapshot into the run's
 * statistics block (SimResult shares the counter field names).
 */
void
exportMemStats(const MemSysStats &m, SimResult &res)
{
    forEachMemSysCounterPair(
        res, m, [](std::uint64_t &dst, const std::uint64_t &src) {
            dst = src;
        });
}

} // anonymous namespace

OooCore::OooCore(const UarchParams &params_,
                 std::shared_ptr<const Program> program)
    : params(params_), stream(program), rename(params_.numPhysRegs),
      image(program->image), mem(params_.memsys),
      branchPred(params_.branch), sq(params_.sqSize), storeSets(params_.storeSets),
      srq(256), bypassPred(params_.bypass), tssbf(params_.tssbf)
{
    window.setCapacity(params.robSize + params.fetchBufferSize);
    iqWaiting.reserve(params.iqSize + params.renameWidth);
    // Every in-flight store occupies a ROB entry, so a power-of-two
    // ring of at least robSize entries can never alias two live SSNs.
    storeSeqRing.assign(nextPow2(std::max<std::size_t>(
                            params.robSize, 1)), 0);
    storeSeqMask = storeSeqRing.size() - 1;
    skipEnabled = params.eventSkip;
    if (skipEnabled)
        mem.setEventSink(&events);
}

OooCore::OooCore(const UarchParams &params_, const Program &program)
    : OooCore(params_, std::make_shared<const Program>(program))
{
}

/**
 * Livelock-guard cycle bound: total * 1000 + 1000000, saturating at
 * UINT64_MAX instead of wrapping for astronomically large
 * instruction budgets (a wrapped bound would fire the assert on the
 * very first cycle).
 */
std::uint64_t
OooCore::livelockBound(std::uint64_t total)
{
    constexpr std::uint64_t max = ~std::uint64_t(0);
    constexpr std::uint64_t slack = 1000000;
    if (total > (max - slack) / 1000)
        return max;
    return total * 1000 + slack;
}

void
OooCore::runUntilCommitted(std::uint64_t target,
                           std::uint64_t cycle_bound)
{
    commitBudget = target;
    while (committed < target) {
        tick();
        if (drained())
            break;
        nosq_assert(cycle < cycle_bound,
                    "simulation livelock suspected");
        maybeSkip();
    }
}

SimResult
OooCore::run(std::uint64_t max_insts, std::uint64_t warmup_insts)
{
    const std::uint64_t total = max_insts + warmup_insts;
    const std::uint64_t cycle_bound = livelockBound(total);
    Cycle cycle_base = 0;

    if (warmup_insts > 0) {
        // Warm caches, predictors, and filters; then restart the
        // statistics at an exact instruction boundary.
        runUntilCommitted(warmup_insts, cycle_bound);
        res = SimResult();
        cycle_base = cycle;
    }

    // Hierarchy counters live in the memory system (they warm up
    // alongside it); window them to the measured region the same
    // way the cycle count is.
    const MemSysStats mem_base = mem.stats();

    runUntilCommitted(total, cycle_bound);
    res.cycles = cycle - cycle_base;
    res.insts = committed - warmup_insts;
    exportMemStats(mem.stats() - mem_base, res);
    return res;
}

void
OooCore::beginInterval()
{
    res = SimResult();
    intervalCycleBase = cycle;
    intervalCommitBase = committed;
    intervalMemBase = mem.stats();
}

SimResult
OooCore::harvestInterval()
{
    res.cycles = cycle - intervalCycleBase;
    res.insts = committed - intervalCommitBase;
    exportMemStats(mem.stats() - intervalMemBase, res);
    return res;
}

void
OooCore::tick()
{
    ++cycle;
    tickWork = false;
    doRetire();
    doBackendEntry();
    doIssue();
    doRename();
    doFetch();
}

// ---------------------------------------------------------------------
// Event-driven cycle skipping
// ---------------------------------------------------------------------

/**
 * After a fully quiescent tick, jump the clock to just before the
 * earliest cycle at which any stage could possibly act. Every
 * skipped cycle is provably a no-op -- nextEventCycle() never
 * overshoots the first cycle where state would change -- so all
 * simulated statistics, including the final cycle count, are
 * bit-identical with skipping on or off (the golden-stats gate and
 * the skip-identity property test both pin this).
 */
void
OooCore::maybeSkip()
{
    if (!skipEnabled || tickWork)
        return;
    const Cycle wake = nextEventCycle();
    if (wake != EventHorizon::no_event)
        skipTo(wake);
}

void
OooCore::skipTo(Cycle wake)
{
    if (wake <= cycle + 1)
        return;
    res.skippedCycles += wake - cycle - 1;
    cycle = wake - 1;
}

/**
 * Conservative lower bound on the next cycle where any pipeline
 * stage can make progress, assuming the just-finished tick was
 * quiescent. Purely time-gated conditions contribute their known
 * wake cycles; state-gated conditions (structure-full stalls,
 * store-commit waits) are released only by other activity, whose
 * wake cycles are already in the set. Anything this analysis cannot
 * prove quiescent contributes cycle + 1, which degrades to plain
 * ticking rather than risking an overshoot.
 */
Cycle
OooCore::nextEventCycle()
{
    Cycle wake = EventHorizon::no_event;
    const auto consider = [&](Cycle c) {
        if (c > cycle && c < wake)
            wake = c;
    };

    // Retirement: the in-order back end drains at a fixed depth.
    if (!robEmpty() && robHead().inBackend)
        consider(robHead().retireCycle);

    // Back-end entry: the oldest instruction not yet in the back
    // end enters once complete (per-cycle port limits cannot block
    // the first entry of a cycle).
    if (backendCount < robCount()) {
        const Inflight &head = robAt(backendCount);
        if (head.completedFlag)
            consider(head.completeCycle);
    }

    // Issue: a waiting candidate wakes when its sources become
    // ready. Candidates whose sources are already ready are gated by
    // a memory-ordering rule: store-commit waits are released by the
    // retirement chain (the awaited store is older and already
    // contributes a wake), and baseline designated-store waits end
    // at the store's known completion cycle.
    if (!iqWaiting.empty()) {
        const InstSeq front_seq = robHead().di.seq;
        for (const InstSeq seq : iqWaiting) {
            const Inflight &inf =
                robAt(static_cast<std::size_t>(seq - front_seq));
            Cycle src = 0;
            if (inf.physA != invalid_phys_reg)
                src = std::max(src, rename.readyAt(inf.physA));
            if (inf.physB != invalid_phys_reg)
                src = std::max(src, rename.readyAt(inf.physB));
            if (src > cycle) {
                consider(src);
                continue;
            }
            if (inf.waitStoreCommit)
                continue; // released by the retirement chain
            const bool is_load =
                !inf.isShiftUop && inf.di.cls == InstClass::Load;
            if (is_load && !params.isNosq() &&
                inf.depSsn != invalid_ssn &&
                inf.depSsn > ssn.commit) {
                const Inflight *store = findStoreBySsn(inf.depSsn);
                if (store != nullptr) {
                    if (store->completedFlag)
                        consider(store->completeCycle);
                    // else: the store is itself a waiting candidate
                    // and contributes its own wake.
                    continue;
                }
            }
            // Sources ready with no recognized time-gated reason not
            // to have issued: don't skip past it.
            consider(cycle + 1);
        }
    }

    // Rename: the fetch-queue head matures at a fixed cycle;
    // structural stalls are released by the window chain above.
    if (!fetchEmpty()) {
        const Cycle ready = fetchHead().renameReady;
        if (ready > cycle)
            consider(ready);
        else if (robEmpty())
            consider(cycle + 1); // no window chain to release it
    }

    // Fetch: a pending I-cache fill or redirect penalty expires at a
    // known cycle. With a redirect outstanding, fetch waits on the
    // branch's issue (an issue-chain wake).
    if (!traceExhausted && redirectWaitSeq == 0) {
        if (fetchStalledUntil > cycle)
            consider(fetchStalledUntil);
        else if (!fetchFull())
            consider(cycle + 1); // fetch could act: don't skip
    }

    // Completion times the memory system published (MSHR fills, bus
    // slots, I-cache fills) -- advisory early wakes.
    consider(events.nextAfter(cycle));

    return wake;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
OooCore::doFetch()
{
    if (traceExhausted || cycle < fetchStalledUntil ||
        redirectWaitSeq != 0) {
        return;
    }

    unsigned fetched = 0;
    unsigned branches = 0;
    bool taken_seen = false;

    while (fetched < params.fetchWidth && !fetchFull()) {
        if (!stream.hasNext()) {
            traceExhausted = true;
            break;
        }
        const DynInst &di = stream.peek();
        if (di.halted) {
            traceExhausted = true;
            break;
        }

        // Instruction cache: one access per group; a miss stalls the
        // whole group until the fill returns.
        if (fetched == 0) {
            tickWork = true; // the access mutates hierarchy state
            const Cycle lat = mem.instFetch(di.pc, cycle);
            if (lat > params.memsys.l1i.hitLatency) {
                fetchStalledUntil = cycle + lat;
                return;
            }
        }

        // Per-cycle branch limits end the fetch group before the
        // instruction is consumed (checked before the queue slot is
        // claimed: a broken-off instruction must leave no ghost
        // entry behind).
        if (di.isBranch() &&
            (branches == params.maxBranchesPerCycle || taken_seen)) {
            break; // fetch past only one taken branch per cycle
        }

        // Build the window slot in place: Inflight is the pipeline's
        // largest struct, and this is the only time it is written
        // whole (rename admits it into the ROB where it stands).
        Inflight &inf = window.emplaceBack(di);

        if (di.isBranch()) {
            ++branches;
            const auto pred = branchPred.predictAndUpdate(
                di.pc, di.si.op, di.taken, di.npc);
            if (isCondBranch(di.si.op))
                pathHist.condBranch(di.taken);
            else if (di.si.op == Opcode::Call)
                pathHist.call(di.pc);
            if (!BranchPredictor::correct(pred, di.taken, di.npc)) {
                ++res.branchMispredicts;
                inf.branchMispredicted = true;
            } else if (di.taken) {
                taken_seen = true;
            }
        }

        inf.pathHash = pathHist.raw();
        inf.renameReady = cycle + params.fetchToRename;
        stream.next();
        ++fetched;

        if (tracer) {
            tracer->event(obs::TraceLane::Fetch, "pipe", "fetch",
                          cycle, inf.di.seq, inf.di.pc,
                          inf.branchMispredicted
                              ? "\"mispredict\":true" : "");
        }

        if (inf.branchMispredicted) {
            // Fetch must wait until this branch resolves.
            redirectWaitSeq = inf.di.seq;
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Flush (load value mis-speculation recovery)
// ---------------------------------------------------------------------

void
OooCore::flushAfter(InstSeq boundary_seq)
{
    // Un-renamed fetched instructions are simply dropped.
    window.truncate(robN);

    // Squash ROB entries younger than the boundary, youngest first,
    // undoing rename state.
    while (!robEmpty() && robTail().di.seq > boundary_seq) {
        Inflight &inf = robTail();
        if (tracer) {
            tracer->event(obs::TraceLane::Commit, "pipe", "squash",
                          cycle, inf.di.seq, inf.di.pc);
        }
        // Instructions already in the back-end pipe (same commit
        // group as the offender, or behind it) are squashed too;
        // their T-SSBF updates self-heal because the identical
        // dynamic stores re-execute with identical SSNs.
        if (inf.inBackend)
            --backendCount;
        if (inf.allocatesDst || inf.sharesDst)
            rename.undo(inf.archDst, inf.physDst, inf.prevDst);
        if (inf.di.isStore()) {
            nosq_assert(ssn.rename == inf.di.ssn,
                        "SSN rewind out of order");
            // Rewinding SSNrename implicitly retires the squashed
            // store's storeSeqRing entry (live range check).
            --ssn.rename;
            if (!params.isNosq())
                sq.squashAfter(boundary_seq);
        }
        if (inf.inIq && !inf.issued)
            --iqCount;
        if (!params.isNosq() && inf.di.isLoad())
            --lqOccupancy;
        window.popBack();
        --robN;
    }

    // Squashed issue candidates: iqWaiting is seq-ascending, so the
    // squashed set is exactly its tail.
    while (!iqWaiting.empty() && iqWaiting.back() > boundary_seq)
        iqWaiting.pop_back();

    if (!params.isNosq())
        storeSets.squashRepair(ssn.rename);

    if (redirectWaitSeq > boundary_seq)
        redirectWaitSeq = 0;

    // Restore decode-path state to the boundary instruction.
    if (!robEmpty())
        pathHist.restore(robTail().pathHash);

    // Re-fetch from the instruction after the boundary.
    stream.rewindTo(boundary_seq + 1);
    fetchStalledUntil = cycle + 1;
    traceExhausted = false;
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

Inflight *
OooCore::findStoreBySsn(SSN target)
{
    // Live range check replaces the map-membership test: a ring
    // entry is valid iff its store renamed and has neither committed
    // nor been squashed (squash rewinds ssn.rename past it).
    if (target <= ssn.commit || target > ssn.rename)
        return nullptr;
    const InstSeq seq = storeSeqRing[target & storeSeqMask];
    if (robEmpty())
        return nullptr;
    const InstSeq front_seq = robHead().di.seq;
    if (seq < front_seq)
        return nullptr;
    const std::size_t pos = static_cast<std::size_t>(seq - front_seq);
    if (pos >= robCount())
        return nullptr;
    Inflight &inf = robAt(pos);
    nosq_assert(inf.di.seq == seq, "ROB seq indexing broken");
    return &inf;
}

std::uint64_t
OooCore::readImage(Addr addr, unsigned size, Opcode op) const
{
    const std::uint64_t raw = image.read(addr, size);
    return extendValue(raw, size, loadExtend(op));
}

void
OooCore::recordCommOracle(const DynInst &di)
{
    // The windowed partial-word classification is precomputed by the
    // functional simulator (DynInst::oraclePartial): commit order of
    // the stores older than a load is their program order, so the
    // functional-time recent-store window is exactly the
    // retirement-time one this used to maintain as a map + deque.
    if (!di.isLoad())
        return;
    const std::uint64_t wseq = di.youngestWriterSeq();
    if (wseq == 0 || di.seq - wseq >= comm_oracle_window)
        return;
    ++res.commLoads;
    if (di.oraclePartial)
        ++res.partialCommLoads;
}

void
OooCore::drainForSsnWrap()
{
    // Called from rename when the next SSN would wrap: the pipeline
    // has drained (ROB empty); clear every SSN-holding structure.
    tssbf.clear();
    storeSets.clearSsns();
    ++res.ssnWrapDrains;
}

} // namespace nosq
