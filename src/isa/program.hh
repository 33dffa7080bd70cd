/**
 * @file
 * Static program container and an assembler-style builder.
 */

#ifndef NOSQ_ISA_PROGRAM_HH
#define NOSQ_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/sparse_memory.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace nosq {

/**
 * A complete static program: code, entry point, and the initial data
 * image every simulation of it starts its memory from.
 */
struct Program
{
    std::vector<Instruction> code;
    Addr entryPc = 0;

    /**
     * Initial data segment. Simulations copy it, which shares its
     * pages copy-on-write (common/sparse_memory.hh).
     */
    SparseMemory image;

    /** @return the instruction at @p pc; pc must be in range. */
    const Instruction &
    fetch(Addr pc) const
    {
        nosq_assert(validPc(pc), "fetch of invalid PC 0x%llx",
                    static_cast<unsigned long long>(pc));
        return code[pc / inst_bytes];
    }

    /** @return true if @p pc addresses a valid instruction. */
    bool
    validPc(Addr pc) const
    {
        return pc % inst_bytes == 0 && pc / inst_bytes < code.size();
    }

    std::size_t numInsts() const { return code.size(); }
};

/**
 * Builds a Program with named labels and forward references.
 *
 * Branch/call targets may name labels that are defined later; build()
 * resolves all fixups and panics on undefined labels.
 */
class ProgramBuilder
{
  public:
    /** Define a label at the current position. */
    void label(const std::string &name);

    /** @return the PC that the next emitted instruction will get. */
    Addr here() const { return prog.code.size() * inst_bytes; }

    // --- raw emission ----------------------------------------------
    void emit(const Instruction &inst);

    // --- ALU --------------------------------------------------------
    void nop();
    void halt();
    void add(RegIndex rd, RegIndex ra, RegIndex rb);
    void sub(RegIndex rd, RegIndex ra, RegIndex rb);
    void and_(RegIndex rd, RegIndex ra, RegIndex rb);
    void or_(RegIndex rd, RegIndex ra, RegIndex rb);
    void xor_(RegIndex rd, RegIndex ra, RegIndex rb);
    void sll(RegIndex rd, RegIndex ra, RegIndex rb);
    void srl(RegIndex rd, RegIndex ra, RegIndex rb);
    void sra(RegIndex rd, RegIndex ra, RegIndex rb);
    void cmpeq(RegIndex rd, RegIndex ra, RegIndex rb);
    void cmplt(RegIndex rd, RegIndex ra, RegIndex rb);
    void addi(RegIndex rd, RegIndex ra, std::int64_t imm);
    void andi(RegIndex rd, RegIndex ra, std::int64_t imm);
    void ori(RegIndex rd, RegIndex ra, std::int64_t imm);
    void xori(RegIndex rd, RegIndex ra, std::int64_t imm);
    void slli(RegIndex rd, RegIndex ra, std::int64_t imm);
    void srli(RegIndex rd, RegIndex ra, std::int64_t imm);
    void srai(RegIndex rd, RegIndex ra, std::int64_t imm);
    void li(RegIndex rd, std::int64_t imm);
    void mul(RegIndex rd, RegIndex ra, RegIndex rb);
    void fadd(RegIndex rd, RegIndex ra, RegIndex rb);
    void fmul(RegIndex rd, RegIndex ra, RegIndex rb);
    void fdiv(RegIndex rd, RegIndex ra, RegIndex rb);
    void cvtif(RegIndex rd, RegIndex ra);

    // --- memory: load rd <- [ra + ofs] ------------------------------
    void ld1u(RegIndex rd, RegIndex ra, std::int64_t ofs);
    void ld1s(RegIndex rd, RegIndex ra, std::int64_t ofs);
    void ld2u(RegIndex rd, RegIndex ra, std::int64_t ofs);
    void ld2s(RegIndex rd, RegIndex ra, std::int64_t ofs);
    void ld4u(RegIndex rd, RegIndex ra, std::int64_t ofs);
    void ld4s(RegIndex rd, RegIndex ra, std::int64_t ofs);
    void ld8(RegIndex rd, RegIndex ra, std::int64_t ofs);
    void lds(RegIndex rd, RegIndex ra, std::int64_t ofs);

    // --- memory: store [ra + ofs] <- rb -----------------------------
    void st1(RegIndex ra, std::int64_t ofs, RegIndex rb);
    void st2(RegIndex ra, std::int64_t ofs, RegIndex rb);
    void st4(RegIndex ra, std::int64_t ofs, RegIndex rb);
    void st8(RegIndex ra, std::int64_t ofs, RegIndex rb);
    void sts(RegIndex ra, std::int64_t ofs, RegIndex rb);

    // --- control ----------------------------------------------------
    void beq(RegIndex ra, RegIndex rb, const std::string &target);
    void bne(RegIndex ra, RegIndex rb, const std::string &target);
    void blt(RegIndex ra, RegIndex rb, const std::string &target);
    void bge(RegIndex ra, RegIndex rb, const std::string &target);
    void jmp(const std::string &target);
    void call(const std::string &target, RegIndex link = reg_lr);
    void ret(RegIndex link = reg_lr);

    // --- data segment ------------------------------------------------
    /**
     * Write @p count 64-bit words little-endian into the data image
     * from the 8-byte aligned @p base. Word i is word_at(i), asked
     * for once per word in increasing i, so a generator may draw
     * from an Rng; the image is written in address order with no
     * temporary copy (SparseMemory::fillWords).
     */
    template <class WordAt>
    void
    initWords(Addr base, std::size_t count, WordAt &&word_at)
    {
        prog.image.fillWords(base, count, word_at);
    }

    /** Resolve fixups and return the finished program. */
    Program build();

  private:
    void branchTo(Opcode op, RegIndex ra, RegIndex rb,
                  const std::string &target);

    Program prog;
    std::map<std::string, Addr> labels;
    // (instruction index, label) pairs awaiting resolution
    std::vector<std::pair<std::size_t, std::string>> fixups;
    bool built = false;
};

} // namespace nosq

#endif // NOSQ_ISA_PROGRAM_HH
