/**
 * @file
 * The out-of-order timing core.
 *
 * A value-exact, trace-driven cycle model of the paper's 4-wide
 * machine. One class implements all four LSU organizations
 * (Figure 1): the conventional associative-store-queue designs
 * (perfect and StoreSets scheduling) and NoSQ (realistic and
 * perfect-predictor).
 *
 * Value exactness: loads executing in the out-of-order core read a
 * committed-state memory image (plus, in the baseline, the
 * associative store queue); bypassed loads read the predicted
 * store's data register through the shift & mask transform. At
 * retirement, SVW-filtered re-execution re-reads the image -- by
 * then architecturally correct -- and a value mismatch flushes the
 * pipeline and retrains the predictors. Mis-speculation is thus
 * detected by genuine value comparison, exactly as in the paper's
 * Table 4, including benign wrong-store-same-value cases.
 */

#ifndef NOSQ_OOO_CORE_HH
#define NOSQ_OOO_CORE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/circular_buffer.hh"
#include "common/sparse_memory.hh"
#include "frontend/branch_predictor.hh"
#include "lsu/store_queue.hh"
#include "lsu/store_sets.hh"
#include "memsys/hierarchy.hh"
#include "nosq/bypass_predictor.hh"
#include "nosq/partial.hh"
#include "nosq/path_history.hh"
#include "nosq/srq.hh"
#include "nosq/ssn.hh"
#include "nosq/tssbf.hh"
#include "ooo/rename.hh"
#include "ooo/sim_stats.hh"
#include "ooo/uarch_params.hh"
#include "sim/events.hh"
#include "sim/sampling.hh"
#include "workload/functional.hh"

namespace nosq {

namespace obs {
class PipeTracer;
}

/** Store PC table size: SSN -> PC for committed stores (SPCT). */
inline constexpr std::size_t spct_size = 1 << 16;

/** One in-flight instruction. */
struct Inflight
{
    Inflight() = default;
    /** Fetch builds each entry once, in its window slot. */
    explicit Inflight(const DynInst &d) : di(&d) {}

    /**
     * The instruction's record, read where it lies in the trace
     * ring: the core pins the ring (TraceStream::pinRecords), so the
     * record stays put until the instruction retires.
     */
    const DynInst *di = nullptr;
    /** Path history checkpoint taken at fetch/decode. */
    std::uint64_t pathHash = 0;

    // --- rename state -------------------------------------------------
    PhysReg physA = invalid_phys_reg;
    PhysReg physB = invalid_phys_reg;
    PhysReg physDst = invalid_phys_reg;
    PhysReg prevDst = invalid_phys_reg;
    RegIndex archDst = reg_zero;
    bool allocatesDst = false;
    bool sharesDst = false; // SMB short-circuit (refcounted)

    // --- scheduling ------------------------------------------------------
    bool inIq = false;
    bool issued = false;
    bool completedFlag = false;
    Cycle renameReady = 0;  // earliest rename cycle
    Cycle completeCycle = 0;

    // --- memory behaviour --------------------------------------------------
    bool bypassed = false;   // SMB handled this load
    bool isShiftUop = false; // partial-word bypass occupies the IQ
    bool delayed = false;    // confidence delay (or baseline stall)
    SSN ssnByp = invalid_ssn;
    unsigned predShift = 0;
    /** The predictor produced this decision (diagnostics). */
    bool predBypass = false;
    bool predHit = false;
    bool predDistValid = false;
    unsigned predDist = 0;
    SSN depSsn = invalid_ssn;   // StoreSets: wait for this store
    bool waitStoreCommit = false;
    SSN waitSsn = 0;            // issue when SSNcommit >= waitSsn
    SSN ssnNvul = 0;
    std::uint64_t value = 0;    // load value obtained speculatively
    bool sawSqForward = false;

    // --- back end -----------------------------------------------------------
    bool inBackend = false;
    bool reexec = false;
    Cycle retireCycle = 0;

    // --- commit-time training snapshot (NoSQ) ----------------------------
    /** SSNrename observed when this instruction renamed. */
    SSN ssnAtRename = 0;
    bool trainDistKnown = false;
    unsigned trainDist = 0;
    bool trainCovers = false;
    unsigned trainShift = 0;
    unsigned trainSizeLog = 3;

    // --- front end ----------------------------------------------------------
    bool branchMispredicted = false;

    bool
    completed(Cycle now) const
    {
        return completedFlag && completeCycle <= now;
    }
};

/**
 * One waiting entry of the issue-candidate index: the facts select
 * tests every cycle, packed densely so the walk reaches an Inflight
 * only for an entry that issues or needs a memory-ordering check.
 * Rename writes it once, in place; none of its fields changes while
 * the entry waits.
 */
struct IssueCandidate
{
    IssueCandidate(InstSeq s, PhysReg a, PhysReg b, InstClass c)
        : seq(s), physA(a), physB(b), cls(c)
    {
    }

    InstSeq seq;
    PhysReg physA;
    PhysReg physB;
    /** The class whose issue limit the entry counts against (a
     * shift & mask uop issues as SimpleInt). */
    InstClass cls;
};

/** The configurable out-of-order core. */
class OooCore
{
  public:
    /**
     * Borrow a shared program: the sweep engine synthesizes each
     * program once (workload/program_cache.hh) and runs many cores
     * over it concurrently, so the core never copies the program.
     */
    OooCore(const UarchParams &params,
            std::shared_ptr<const Program> program);

    /** Copying convenience overload (tests, examples, temporaries). */
    OooCore(const UarchParams &params, const Program &program);

    // The window ring holds every in-flight instruction by value;
    // a core is never copied.
    OooCore(const OooCore &) = delete;
    OooCore &operator=(const OooCore &) = delete;

    /**
     * Run until @p max_insts instructions commit (or the program
     * halts) and return the run statistics.
     *
     * @param warmup_insts commit this many instructions first with
     *        caches and predictors learning, then reset statistics
     *        (the paper's sampling methodology warms structures
     *        before measuring)
     */
    SimResult run(std::uint64_t max_insts,
                  std::uint64_t warmup_insts = 0);

    /**
     * SMARTS-style sampled run (core_sampling.cc): alternate
     * functional fast-forward of architectural state with detailed
     * warmup + measured intervals. The returned counters are sums
     * over the measured intervals; the per-interval IPC mean and 95%
     * confidence interval land in the SimResult sampling fields.
     */
    SimResult runSampled(const SamplingParams &sampling);

    /** Single-step one cycle (exposed for tests). */
    void tick();

    // --- lockstep stepping (sim/system.hh drives N cores one tick
    // --- at a time; these expose run()'s internals piecewise) --------
    /** Reset statistics at the current instruction boundary, exactly
     * as run() does after warmup. */
    void beginInterval();
    /** Close the interval opened by beginInterval(): cycle/inst
     * deltas plus a windowed hierarchy snapshot, as run() computes
     * at the end of a measured region. */
    SimResult harvestInterval();
    /** True if the tick just taken did no work (the cycle was
     * quiescent and would have been skippable solo). */
    bool quiescentTick() const { return !tickWork; }
    /** Earliest cycle at which any stage could act again (valid
     * after a quiescent tick); EventHorizon::no_event if unknown. */
    Cycle nextWake() { return nextEventCycle(); }
    /** Fast-forward the clock to just before @p wake (no-op when
     * wake <= cycle + 1). The System skips all cores to the minimum
     * wake across cores so lockstep is preserved. */
    void skipTo(Cycle wake);
    /** All trace instructions fetched, windowed, and retired. */
    bool
    drained() const
    {
        return traceExhausted && window.empty();
    }
    std::uint64_t committedInsts() const { return committed; }
    /** Cap retirement at @p budget total committed instructions
     * (run() sets this internally; the lockstep System sets it per
     * phase so every core stops at an exact boundary). */
    void setCommitBudget(std::uint64_t budget)
    {
        commitBudget = budget;
    }
    MemHierarchy &memory() { return mem; }
    bool eventSkipOn() const { return skipEnabled; }

    /** Livelock-guard cycle bound for a @p total -instruction run
     * (saturating; shared with the multi-core System's guard). */
    static std::uint64_t livelockBound(std::uint64_t total);

    const SimResult &stats() const { return res; }
    Cycle now() const { return cycle; }

    /**
     * Attach a pipeline tracer (obs/pipe_trace.hh); nullptr
     * detaches. Not owned. The core's timing and statistics are
     * unaffected: with no tracer attached every hook is one
     * predicted branch, which is what keeps default runs
     * byte-identical to pre-tracing builds (the golden-stats gate).
     */
    void setTracer(obs::PipeTracer *t) { tracer = t; }

    /** The committed memory image (for architectural checks). */
    const SparseMemory &committedMemory() const { return image; }

    /** Rename-state invariant check (for tests). */
    bool renameConsistent() const { return rename.consistent(); }

    /** The host work done so far (since construction). */
    WorkCounters
    workCounters() const
    {
        WorkCounters w = work;
        w.traceInstsProduced = stream.functional().instCount();
        return w;
    }

  private:
    // --- pipeline stages (core.cc / core_*.cc) -----------------------
    void doFetch();
    void doRename();
    void doIssue();
    void doBackendEntry();
    void doRetire();

    // --- rename helpers ------------------------------------------------
    bool renameOne(Inflight &inf);
    void renameSources(Inflight &inf);
    void allocateDest(Inflight &inf);
    bool renameLoadNosq(Inflight &inf);
    void renameLoadBaseline(Inflight &inf);
    void renameStore(Inflight &inf);

    // --- issue helpers ----------------------------------------------------
    bool sourcesReady(const IssueCandidate &c) const;
    bool loadMayIssue(Inflight &inf);
    void executeLoad(Inflight &inf);
    void executeStore(Inflight &inf);

    // --- commit helpers -----------------------------------------------------
    void retireLoad(Inflight &inf, bool &flushed);
    void trainBypass(const Inflight &inf, bool mispredicted);
    void flushAfter(InstSeq boundary_seq);

    // --- run-loop / event-skip helpers (core.cc) -----------------------
    void runUntilCommitted(std::uint64_t target,
                           std::uint64_t cycle_bound);
    void maybeSkip();
    Cycle nextEventCycle();

    // --- sampling helpers (core_sampling.cc) ---------------------------
    /** Squash all in-flight state back to the committed boundary. */
    void flushToCommitted();
    /** Apply up to @p n instructions architecturally (no timing);
     * @return the number actually applied (trace end stops early). */
    std::uint64_t fastForwardInsts(std::uint64_t n);

    // --- window segments ----------------------------------------------------
    // The ROB is the oldest robN entries of window; the fetch queue is
    // the rest.
    std::size_t robCount() const { return robN; }
    bool robEmpty() const { return robN == 0; }
    bool robFull() const { return robN == params.robSize; }
    Inflight &robAt(std::size_t pos) { return window.at(pos); }
    Inflight &robHead() { return window.front(); }
    Inflight &robTail() { return window.at(robN - 1); }
    bool fetchEmpty() const { return window.size() == robN; }
    bool fetchFull() const
    {
        return window.size() - robN == params.fetchBufferSize;
    }
    Inflight &fetchHead() { return window.at(robN); }

    // --- misc helpers -------------------------------------------------------
    Inflight *findStoreBySsn(SSN ssn);
    std::uint64_t readImage(Addr addr, unsigned size,
                            Opcode op) const;
    void recordCommOracle(const DynInst &di);
    void drainForSsnWrap();
    unsigned backendDepth() const
    {
        return params.effectiveBackendDepth();
    }

    // --- configuration ------------------------------------------------------
    UarchParams params;

    // --- time ---------------------------------------------------------------
    Cycle cycle = 0;
    /** Set by any stage that did work this tick; a false value after
     * tick() marks the cycle quiescent and skippable. */
    bool tickWork = false;
    /** params.eventSkip, latched at construction. */
    bool skipEnabled = false;
    /** Completion times published by the memory system. */
    EventHorizon events;

    // --- instruction supply -------------------------------------------------
    TraceStream stream;
    bool traceExhausted = false;
    Cycle fetchStalledUntil = 0;
    InstSeq redirectWaitSeq = 0; // mispredicted branch being awaited

    // --- window -------------------------------------------------------------
    /**
     * The instruction window: one preallocated ring of robSize +
     * fetchBufferSize entries holding contiguous dynamic seqs
     * oldest-to-youngest. The oldest robN entries are the ROB and the
     * rest are the fetch queue. Fetch constructs each Inflight in its
     * slot and rename admits the fetch head into the ROB by advancing
     * robN, so an entry is never copied. ROB position lookup is
     * seq - head seq (findStoreBySsn, doIssue).
     */
    CircularBuffer<Inflight> window;
    std::size_t robN = 0;
    std::size_t backendCount = 0; // ROB entries already in back-end
    unsigned iqCount = 0;
    /**
     * Issue-candidate index: one IssueCandidate per ROB entry that is
     * in the issue queue and not yet issued, seq-ascending (insertion
     * order == rename order == seq order). doIssue walks it oldest
     * first up to the issue width, compacting as it goes, and moves
     * the unvisited rest down in one step; flushAfter truncates the
     * squashed tail. Selection order is identical to the full ROB
     * scan it replaced, because both visit waiting entries oldest
     * first.
     */
    std::vector<IssueCandidate> iqWaiting;
    /** Issue limit per InstClass (params.issueSimple ...). */
    std::array<unsigned, num_inst_classes> issueLimit{};

    // --- register state -----------------------------------------------------
    RenameState rename;

    // --- memory state -------------------------------------------------------
    // Committed architectural memory: starts sharing the program's
    // image and privately copies only the pages commits write.
    SparseMemory image;
    MemHierarchy mem;

    // --- front end ----------------------------------------------------------
    BranchPredictor branchPred;
    PathHistory pathHist;

    // --- baseline LSU -------------------------------------------------------
    StoreQueue sq;
    StoreSets storeSets;
    unsigned lqOccupancy = 0;

    // --- NoSQ machinery -----------------------------------------------------
    StoreRegisterQueue srq;
    BypassPredictor bypassPred;
    Tssbf tssbf;

    // --- SSN state ----------------------------------------------------------
    SsnState ssn;
    /**
     * In-flight store directory: SSN -> dynamic seq, stored in a ring
     * indexed by the SSN's low bits (the SRQ idiom: SSNs are dense
     * and monotonic, and squash recovery is free because rewinding
     * SSNrename implicitly discards squashed entries). An entry is
     * live iff ssn.commit < SSN <= ssn.rename; the ring capacity (a
     * power of two >= robSize >= in-flight stores) guarantees live
     * entries never alias.
     */
    std::vector<InstSeq> storeSeqRing;
    std::size_t storeSeqMask = 0;
    /** SPCT: committed-store SSN -> PC (for StoreSets training). */
    std::vector<Addr> spct;

    // --- observability ------------------------------------------------------
    /** Optional pipeline-event tracer (never owned, off by
     * default); see setTracer(). */
    obs::PipeTracer *tracer = nullptr;

    // --- results ------------------------------------------------------------
    /** Host-work counters (workCounters() adds trace production). */
    WorkCounters work;
    SimResult res;
    std::uint64_t committed = 0;
    std::uint64_t commitBudget = ~std::uint64_t(0);

    // --- lockstep-interval bookkeeping (beginInterval/harvestInterval)
    Cycle intervalCycleBase = 0;
    std::uint64_t intervalCommitBase = 0;
    MemSysStats intervalMemBase;
};

} // namespace nosq

#endif // NOSQ_OOO_CORE_HH
