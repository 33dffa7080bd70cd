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

#include <array>
#include <memory>
#include <vector>

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
 * a small margin older than the retirement barrier are recycled, so
 * the ring stays at its initial size under any timing core; it
 * doubles only when a reader runs further ahead of retirement than
 * that.
 *
 * A reference returned by peek() or next() stays valid only until
 * the next call that produces an instruction (hasNext(), peek() or
 * next() reaching past the newest produced one): producing may
 * recycle or move ring slots.
 */
class TraceStream
{
  public:
    explicit TraceStream(std::shared_ptr<const Program> program);
    explicit TraceStream(const Program &program);

    /** @return true if an instruction is available at the cursor. */
    bool hasNext();

    /** Inspect the instruction at the cursor without consuming it. */
    const DynInst &peek();

    /** Consume the instruction at the cursor and advance. */
    const DynInst &next();

    /**
     * Move the cursor back so the next fetched instruction is @p seq.
     * @p seq must not have been retired.
     */
    void rewindTo(InstSeq seq);

    /** Mark all instructions with seq <= @p seq retired. */
    void retireUpTo(InstSeq seq);

    /** Dynamic seq the cursor will deliver next (1-based). */
    InstSeq cursorSeq() const { return cursor; }

    /** Highest seq marked retired (the rewind barrier). */
    InstSeq retiredSeq() const { return retired; }

    /** Current ring capacity in instructions (a power of two). */
    std::size_t capacity() const { return ring.size(); }

    FunctionalSim &functional() { return func; }

    /**
     * Initial ring capacity: covers the largest timing window (a
     * 256-entry ROB plus a 64-entry fetch queue) plus the rewind
     * margin, so a core never grows the ring.
     */
    static constexpr std::size_t initial_capacity = 512;

  private:
    /** Instructions kept behind the retirement barrier and the
     * cursor so a rewind to just past the barrier always works. */
    static constexpr InstSeq rewind_margin = 64;

    bool fill();
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
};

} // namespace nosq

#endif // NOSQ_WORKLOAD_FUNCTIONAL_HH
