/**
 * @file
 * The architectural (functional) simulator.
 *
 * Executes the micro-ISA one instruction at a time, producing DynInst
 * records annotated with the byte-granular dependence oracle. The
 * timing model treats its output as the correct-path instruction
 * stream (trace-driven control flow).
 */

#ifndef NOSQ_WORKLOAD_FUNCTIONAL_HH
#define NOSQ_WORKLOAD_FUNCTIONAL_HH

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "isa/program.hh"
#include "workload/memory.hh"
#include "workload/trace.hh"

namespace nosq {

/** Architectural interpreter with dependence-oracle annotation. */
class FunctionalSim
{
  public:
    /**
     * Borrow a shared program (the normal path: sweeps run many
     * cores over one synthesized program, see workload/program_cache.hh).
     */
    explicit FunctionalSim(std::shared_ptr<const Program> program);

    /** Copying convenience overload, so callers may pass temporaries. */
    explicit FunctionalSim(const Program &program);

    /**
     * Execute one instruction.
     *
     * @param out receives the dynamic instruction record
     * @param bytes if non-null, receives the per-byte last-writer
     *        detail for loads (zeroed for everything else)
     * @return false once the program has halted (out is not written)
     */
    bool step(DynInst &out, OracleBytes *bytes = nullptr);

    bool halted() const { return isHalted; }
    Addr pc() const { return currentPc; }

    /** Architectural register read (for tests and examples). */
    std::uint64_t reg(RegIndex index) const { return regFile[index]; }

    const SparseMemory &memory() const { return mem; }
    SparseMemory &memory() { return mem; }

    /** Total dynamic instructions executed so far. */
    InstSeq instCount() const { return seqCounter; }

    /** Total dynamic stores executed so far (== last assigned SSN). */
    SSN storeCount() const { return ssnCounter; }

  private:
    std::uint64_t aluResult(const Instruction &si) const;

    // Shared-const so one synthesized program serves many concurrent
    // simulations without a per-core copy (the copying constructor
    // still allows temporaries).
    std::shared_ptr<const Program> prog;
    Addr currentPc;
    std::array<std::uint64_t, num_arch_regs> regFile{};
    SparseMemory mem;
    ShadowMemory shadow;
    InstSeq seqCounter = 0;
    SSN ssnCounter = 0;
    bool isHalted = false;

    /**
     * Ring of the last comm_oracle_stores store seqs, indexed by
     * store ordinal (the SSN) modulo the ring size: the communication
     * oracle's recent-store window, maintained here so DynInst can
     * carry the precomputed partial-word classification instead of
     * the per-byte arrays the timing core used to rescan at
     * retirement.
     */
    std::array<InstSeq, comm_oracle_stores> recentStoreSeqs{};
};

/**
 * Rewindable stream of DynInsts on top of FunctionalSim.
 *
 * The timing model fetches through a cursor; on a pipeline flush it
 * rewinds the cursor to the squashed instruction. Instructions live
 * in a power-of-two ring indexed by seq & mask, into which
 * FunctionalSim::step writes each record directly. Entries more than
 * a small margin older than the retirement barrier are recycled; the
 * ring doubles only when a reader runs further ahead of retirement
 * than its capacity allows.
 *
 * The ring is a single-producer/single-consumer queue whose consumer
 * reads each record where it lies. A record returned by peek() or
 * next() is never overwritten before it retires: a slot is recycled
 * only once its seq has fallen rewind_margin behind the retirement
 * barrier. The one thing that moves records is growth, so a
 * reference stays valid until the ring grows. A reader that holds
 * references to its unretired records (a timing core's window)
 * calls pinRecords() first: that sizes the ring for the reader's
 * window so it never grows, and panics if it ever would. Without
 * pinRecords(), a reference is valid only until the next call that
 * produces an instruction (hasNext(), peek() or next() reaching past
 * the newest produced one).
 */
class TraceStream
{
  public:
    explicit TraceStream(std::shared_ptr<const Program> program);
    explicit TraceStream(const Program &program);

    /**
     * Size the ring so that a reader holding at most @p window
     * unretired records after the retirement barrier never makes it
     * grow, and from then on treat growth as a bug: every record the
     * reader was handed stays where it is until it retires.
     */
    void pinRecords(std::size_t window);

    /** @return true if an instruction is available at the cursor. */
    bool
    hasNext()
    {
        while (cursor >= endSeq) {
            if (!fill())
                return false;
        }
        return true;
    }

    /** Inspect the instruction at the cursor without consuming it. */
    const DynInst &
    peek()
    {
        nosq_assert(hasNext(), "peek past end of trace");
        return slot(cursor);
    }

    /** Consume the instruction at the cursor and advance. */
    const DynInst &
    next()
    {
        nosq_assert(hasNext(), "next past end of trace");
        return slot(cursor++);
    }

    /**
     * Move the cursor back so the next fetched instruction is @p seq.
     * @p seq must not have been retired.
     */
    void rewindTo(InstSeq seq);

    /** Mark all instructions with seq <= @p seq retired. */
    void
    retireUpTo(InstSeq seq)
    {
        retired = std::max(retired, seq);
        // Recycle slots, keeping rewind_margin instructions behind
        // both the barrier and the cursor so rewindTo(retired + 1)
        // always works.
        if (retired < rewind_margin || cursor <= rewind_margin)
            return;
        const InstSeq floor = std::min({retired + 1 - rewind_margin,
                                        cursor - rewind_margin,
                                        endSeq});
        baseSeq = std::max(baseSeq, floor);
    }

    /** Dynamic seq the cursor will deliver next (1-based). */
    InstSeq cursorSeq() const { return cursor; }

    /** Highest seq marked retired (the rewind barrier). */
    InstSeq retiredSeq() const { return retired; }

    /** Current ring capacity in instructions (a power of two). */
    std::size_t capacity() const { return ring.size(); }

    FunctionalSim &functional() { return func; }
    const FunctionalSim &functional() const { return func; }

    /**
     * Initial ring capacity: covers the paper's larger window (a
     * 256-entry ROB plus a 64-entry fetch queue) plus the rewind
     * margin. pinRecords() enlarges it for larger windows.
     */
    static constexpr std::size_t initial_capacity = 512;

  private:
    /** Instructions kept behind the retirement barrier and the
     * cursor so a rewind to just past the barrier always works. */
    static constexpr InstSeq rewind_margin = 64;

    bool
    fill()
    {
        if (endSeq - baseSeq == ring.size())
            grow();
        // The functional simulator writes the record straight into
        // its ring slot: no local, no copy.
        if (!func.step(slot(endSeq)))
            return false;
        ++endSeq;
        return true;
    }
    void grow();
    DynInst &slot(InstSeq seq) { return ring[seq & mask]; }

    FunctionalSim func;
    /** Produced instructions [baseSeq, endSeq), at seq & mask. */
    std::vector<DynInst> ring;
    std::size_t mask = 0;
    InstSeq baseSeq = 1; // oldest seq still held (rewindable)
    InstSeq endSeq = 1;  // next seq to produce
    InstSeq cursor = 1;  // next seq to deliver
    InstSeq retired = 0;
    /** Set by pinRecords(): the ring must never grow again. */
    bool pinned = false;
};

} // namespace nosq

#endif // NOSQ_WORKLOAD_FUNCTIONAL_HH
