/**
 * @file
 * The in-order back-end: commit-pipeline entry with SVW filtering
 * (Tables 2 and 4), retirement, value-based verification, flush, and
 * predictor training.
 */

#include "common/logging.hh"
#include "obs/pipe_trace.hh"
#include "ooo/core.hh"

namespace nosq {

/**
 * Move completed instructions from the ROB head into the back-end
 * pipeline, in order, respecting commit width and back-end port
 * limits: one shared data cache port (store write / load
 * re-execution) and, for NoSQ, one store and one load address
 * generation slot per cycle (Section 3.4).
 */
void
OooCore::doBackendEntry()
{
    unsigned entered = 0;
    bool dcache_port_used = false;
    bool store_agen_used = false;
    bool load_agen_used = false;

    while (entered < params.commitWidth && backendCount < robCount()) {
        Inflight &inf = robAt(backendCount);
        if (!inf.completed(cycle))
            break;
        const DynInst &di = *inf.di;

        if (di.isStore()) {
            if (dcache_port_used)
                break;
            if (params.isNosq()) {
                if (store_agen_used)
                    break;
                store_agen_used = true;
            }
            dcache_port_used = true;
            // SVW-stage action: T-SSBF[st.addr] = st.SSN (Table 4).
            tssbf.storeUpdate(di.addr, di.size, di.ssn);
        } else if (di.isLoad()) {
            if (params.isNosq() && inf.bypassed) {
                // Bypassed loads never executed, so their addresses
                // are generated in the back-end on the dedicated
                // load agen port (~10% of loads, Section 3.4).
                // Non-bypassed loads reuse their load-queue record
                // (the paper measures the LQ-present and
                // LQ-eliminated designs as identical).
                if (load_agen_used)
                    break;
                load_agen_used = true;
            }

            // SVW filter test (Table 4): equality for bypassed
            // loads, inequality for everything else.
            bool reexec;
            if (!params.svwFilter) {
                reexec = true;
            } else if (inf.bypassed) {
                reexec = tssbf.needsReexecEquality(di.addr, di.size,
                                                   inf.ssnNvul);
                if (!reexec) {
                    // Shift/coverage verification without replay
                    // (Section 3.5): the entry's size and low-order
                    // address bits must confirm the predicted shift.
                    const TssbfEntry *ent = tssbf.lookup(di.addr);
                    const unsigned store_size = 1u << ent->sizeLog;
                    const Addr store_addr =
                        (di.addr & ~Addr(7)) + ent->offset;
                    if (!bypassable(store_size, store_addr, di.size,
                                    di.addr) ||
                        shiftAmount(store_addr, di.addr) !=
                            inf.predShift) {
                        reexec = true;
                    }
                }
            } else {
                reexec = tssbf.needsReexecInequality(di.addr, di.size,
                                                     inf.ssnNvul);
            }

            if (reexec) {
                if (dcache_port_used)
                    break;
                dcache_port_used = true;
                inf.reexec = true;
                ++res.reexecLoads;
                ++res.dcacheReadsBackend;
                mem.dataRead(di.addr, cycle);
            }

            // Emitted only after the port gate above, so a
            // port-conflict retry next cycle cannot double-trace
            // this load's filter outcome.
            if (tracer && tracer->inWindow(di.seq)) {
                // The SVW filter outcome: pass means the T-SSBF
                // proved re-execution unnecessary.
                std::string args = "\"bypassed\":";
                args += inf.bypassed ? "true" : "false";
                args += ",\"pass\":";
                args += reexec ? "false" : "true";
                tracer->event(obs::TraceLane::Nosq, "nosq",
                              "ssbf_filter", cycle, di.seq, di.pc,
                              args);
                if (reexec) {
                    tracer->event(obs::TraceLane::Nosq, "nosq",
                                  "reexec", cycle, di.seq, di.pc);
                }
            }

            // Snapshot bypass-predictor training facts while the
            // T-SSBF still reflects exactly the stores older than
            // this load (younger stores enter the back-end later).
            if (params.mode == LsuMode::Nosq) {
                const TssbfEntry *ent = tssbf.lookup(di.addr);
                if (ent != nullptr) {
                    inf.trainDistKnown = true;
                    inf.trainDist = static_cast<unsigned>(
                        inf.ssnAtRename - ent->ssn);
                    const unsigned store_size = 1u << ent->sizeLog;
                    const Addr store_addr =
                        (di.addr & ~Addr(7)) + ent->offset;
                    inf.trainCovers =
                        bypassable(store_size, store_addr, di.size,
                                   di.addr) &&
                        (di.addr >> 3) ==
                            ((di.addr + di.size - 1) >> 3);
                    inf.trainShift = inf.trainCovers
                        ? shiftAmount(store_addr, di.addr) : 0;
                    inf.trainSizeLog = ent->sizeLog;
                }
            }
        }

        if (tracer) {
            tracer->event(obs::TraceLane::Backend, "pipe",
                          "backend_entry", cycle, di.seq, di.pc);
        }

        inf.inBackend = true;
        inf.retireCycle = cycle + backendDepth();
        ++backendCount;
        ++entered;
        tickWork = true;
    }
}

void
OooCore::trainBypass(const Inflight &inf, bool mispredicted)
{
    BypassTrainInfo info;
    info.distKnown = inf.trainDistKnown &&
        inf.trainDist <= params.bypass.maxDistance;
    info.actualDist = inf.trainDist;
    info.shouldBypass = info.distKnown && inf.trainCovers;
    info.shift = inf.trainShift;
    info.storeSizeLog = inf.trainSizeLog;
    info.mispredicted = mispredicted;
    info.wasDelayed = inf.delayed;
    info.predictedDistValid = inf.predDistValid;
    info.predictedDist = inf.predDist;
    bypassPred.train(inf.di->pc, inf.pathHash, info);
}

void
OooCore::retireLoad(Inflight &inf, bool &flushed)
{
    const DynInst &di = *inf.di;
    const std::uint64_t correct =
        readImage(di.addr, di.size, di.si.op);

    bool mispredicted = false;
    if (inf.reexec && inf.value != correct) {
        // Value mis-speculation: the load retires with the corrected
        // value (value-based re-execution); everything younger is
        // squashed and re-fetched.
        ++res.loadFlushes;
        mispredicted = true;
        flushed = true;
        if (params.mode == LsuMode::Nosq)
            ++res.bypassMispredicts;
        if (!params.isNosq()) {
            // Train StoreSets: SSN -> PC via the SPCT.
            const std::uint32_t writer = di.youngestWriterSsn();
            if (writer != 0) {
                storeSets.trainViolation(
                    di.pc, spct[writer % spct_size]);
            }
        }
    } else if (!inf.reexec) {
        // Filter soundness invariant: a load that skips re-execution
        // must have obtained the architecturally correct value.
        nosq_assert(inf.value == correct,
                    "SVW filter passed a wrong-valued load "
                    "(seq %llu pc 0x%llx)",
                    static_cast<unsigned long long>(di.seq),
                    static_cast<unsigned long long>(di.pc));
    }

    if (tracer && tracer->inWindow(di.seq)) {
        // Forwarding verification: every load's speculative value is
        // checked against committed state here (by value comparison
        // when it re-executed, by the SVW soundness invariant when
        // it did not).
        std::string args = "\"bypassed\":";
        args += inf.bypassed ? "true" : "false";
        args += ",\"reexec\":";
        args += inf.reexec ? "true" : "false";
        args += ",\"ok\":";
        args += mispredicted ? "false" : "true";
        tracer->event(obs::TraceLane::Nosq, "nosq", "verify", cycle,
                      di.seq, di.pc, args);
    }

    if (params.mode == LsuMode::Nosq)
        trainBypass(inf, mispredicted);

    if (flushed)
        flushAfter(di.seq);
}

void
OooCore::doRetire()
{
    while (!robEmpty() && committed < commitBudget) {
        Inflight &inf = robHead();
        if (!inf.inBackend || inf.retireCycle > cycle)
            break;
        tickWork = true;
        const DynInst &di = *inf.di;
        bool flushed = false;

        if (di.isStore()) {
            image.write(di.addr, di.size, di.memValue);
            // Advancing SSNcommit implicitly retires the store's
            // storeSeqRing entry (live range check).
            ++ssn.commit;
            nosq_assert(ssn.commit == di.ssn,
                        "out-of-order store commit");
            if (!params.isNosq()) {
                sq.commitOldest(di.ssn);
                spct[di.ssn % spct_size] = di.pc;
            }
            mem.dataWrite(di.addr, cycle);
            ++res.dcacheWrites;
            ++res.stores;
        } else if (di.isLoad()) {
            retireLoad(inf, flushed);
            ++res.loads;
            if (!params.isNosq())
                --lqOccupancy;
        } else if (di.isBranch()) {
            ++res.branches;
        }

        recordCommOracle(di);

        if (tracer) {
            tracer->event(obs::TraceLane::Commit, "pipe", "commit",
                          cycle, di.seq, di.pc,
                          flushed ? "\"flushed\":true" : "");
        }

        if (inf.allocatesDst || inf.sharesDst) {
            if (inf.prevDst != invalid_phys_reg)
                rename.release(inf.prevDst);
        }

        ++committed;
        stream.retireUpTo(di.seq);
        --backendCount;
        window.dropFront();
        --robN;
        if (flushed)
            break;
    }
}

} // namespace nosq
