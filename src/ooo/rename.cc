#include "ooo/rename.hh"

#include "common/logging.hh"

namespace nosq {

RenameState::RenameState(unsigned num_phys_regs)
{
    nosq_assert(num_phys_regs >= num_arch_regs + 1,
                "need more physical than architectural registers");
    rat.resize(num_arch_regs);
    refs.assign(num_phys_regs, 0);
    readyCycle.assign(num_phys_regs, 0);
    // Identity-map the architectural state; everything is ready.
    for (RegIndex a = 0; a < num_arch_regs; ++a) {
        rat[a] = a;
        refs[a] = 1;
    }
    for (PhysReg p = num_phys_regs; p-- > num_arch_regs;)
        freeList.push_back(p);
}

void
RenameState::shareMap(RegIndex arch, PhysReg phys, PhysReg &prev)
{
    nosq_assert(arch != reg_zero, "rename of the zero register");
    nosq_assert(refs[phys] > 0, "sharing a dead register");
    ++refs[phys];
    prev = rat[arch];
    rat[arch] = phys;
}

void
RenameState::undo(RegIndex arch, PhysReg mapped, PhysReg prev)
{
    nosq_assert(rat[arch] == mapped, "undo of non-current mapping");
    rat[arch] = prev;
    release(mapped);
}

bool
RenameState::consistent() const
{
    // Every register is either free (ref 0, on the free list) or has
    // a positive count; the free list holds exactly the zero-count
    // registers.
    std::vector<bool> on_free(refs.size(), false);
    for (const PhysReg p : freeList) {
        if (refs[p] != 0 || on_free[p])
            return false;
        on_free[p] = true;
    }
    std::size_t zero_count = 0;
    for (const auto r : refs)
        zero_count += r == 0;
    if (zero_count != freeList.size())
        return false;
    for (RegIndex a = 0; a < num_arch_regs; ++a) {
        if (refs[rat[a]] == 0)
            return false;
    }
    return true;
}

} // namespace nosq
