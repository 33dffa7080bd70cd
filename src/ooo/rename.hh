/**
 * @file
 * Register renaming: the register alias table (RAT), the physical
 * register free list, and explicit reference counting.
 *
 * Reference counting implements the physical register sharing that
 * speculative memory bypassing introduces (Section 3.4 footnote):
 * the DEF and the bypassed load in a DEF-store-load-USE chain map
 * two architectural registers onto one physical register, so a
 * register may only be freed when its count reaches zero.
 */

#ifndef NOSQ_OOO_RENAME_HH
#define NOSQ_OOO_RENAME_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace nosq {

/** RAT + free list + refcounts + per-register ready cycles. */
class RenameState
{
  public:
    /** @param num_phys_regs total physical registers (>= 64). */
    explicit RenameState(unsigned num_phys_regs);

    /** Current mapping of an architectural register. */
    PhysReg lookup(RegIndex arch) const { return rat[arch]; }

    bool hasFree() const { return !freeList.empty(); }
    std::size_t freeCount() const { return freeList.size(); }

    /**
     * Allocate a fresh physical register for @p arch.
     *
     * @param[out] prev the previous mapping (to free at commit)
     * @return the new physical register
     */
    PhysReg
    allocate(RegIndex arch, PhysReg &prev)
    {
        nosq_assert(!freeList.empty(), "physical register underflow");
        nosq_assert(arch != reg_zero, "rename of the zero register");
        const PhysReg phys = freeList.back();
        freeList.pop_back();
        nosq_assert(refs[phys] == 0, "allocating a live register");
        refs[phys] = 1;
        readyCycle[phys] = ~Cycle(0); // not ready until producer issues
        prev = rat[arch];
        rat[arch] = phys;
        return phys;
    }

    /**
     * SMB short-circuit: map @p arch directly onto @p phys,
     * incrementing its reference count.
     *
     * @param[out] prev the previous mapping
     */
    void shareMap(RegIndex arch, PhysReg phys, PhysReg &prev);

    /** Drop one reference; frees the register at zero. */
    void
    release(PhysReg phys)
    {
        nosq_assert(refs[phys] > 0, "double free of physical register");
        if (--refs[phys] == 0)
            freeList.push_back(phys);
    }

    /** Squash undo: restore @p arch to @p prev, releasing @p mapped. */
    void undo(RegIndex arch, PhysReg mapped, PhysReg prev);

    /** Earliest cycle a consumer of @p phys may issue. */
    Cycle readyAt(PhysReg phys) const { return readyCycle[phys]; }

    /** Producer issued: dependents may issue at @p cycle. */
    void setReadyAt(PhysReg phys, Cycle cycle)
    {
        readyCycle[phys] = cycle;
    }

    std::uint32_t refCount(PhysReg phys) const { return refs[phys]; }

    /** Invariant check: refcounts, free list, and RAT are coherent. */
    bool consistent() const;

  private:
    std::vector<PhysReg> rat;
    std::vector<std::uint32_t> refs;
    std::vector<Cycle> readyCycle;
    std::vector<PhysReg> freeList;
};

} // namespace nosq

#endif // NOSQ_OOO_RENAME_HH
