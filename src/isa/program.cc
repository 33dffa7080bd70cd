#include "isa/program.hh"

#include "common/logging.hh"

namespace nosq {

void
ProgramBuilder::label(const std::string &name)
{
    nosq_assert(!labels.count(name), "duplicate label '%s'",
                name.c_str());
    labels[name] = here();
}

void
ProgramBuilder::emit(const Instruction &inst)
{
    nosq_assert(!built, "emit after build");
    prog.code.push_back(inst);
}

void ProgramBuilder::nop() { emit({Opcode::Nop, 0, 0, 0, 0}); }
void ProgramBuilder::halt() { emit({Opcode::Halt, 0, 0, 0, 0}); }

#define NOSQ_ALU3(name, OP)                                            \
    void                                                               \
    ProgramBuilder::name(RegIndex rd, RegIndex ra, RegIndex rb)        \
    {                                                                  \
        emit({Opcode::OP, rd, ra, rb, 0});                             \
    }

NOSQ_ALU3(add, Add)
NOSQ_ALU3(sub, Sub)
NOSQ_ALU3(and_, And)
NOSQ_ALU3(or_, Or)
NOSQ_ALU3(xor_, Xor)
NOSQ_ALU3(sll, Sll)
NOSQ_ALU3(srl, Srl)
NOSQ_ALU3(sra, Sra)
NOSQ_ALU3(cmpeq, CmpEq)
NOSQ_ALU3(cmplt, CmpLt)
NOSQ_ALU3(mul, Mul)
NOSQ_ALU3(fadd, FAdd)
NOSQ_ALU3(fmul, FMul)
NOSQ_ALU3(fdiv, FDiv)
#undef NOSQ_ALU3

#define NOSQ_ALUI(name, OP)                                            \
    void                                                               \
    ProgramBuilder::name(RegIndex rd, RegIndex ra, std::int64_t imm)   \
    {                                                                  \
        emit({Opcode::OP, rd, ra, 0, imm});                            \
    }

NOSQ_ALUI(addi, AddI)
NOSQ_ALUI(andi, AndI)
NOSQ_ALUI(ori, OrI)
NOSQ_ALUI(xori, XorI)
NOSQ_ALUI(slli, SllI)
NOSQ_ALUI(srli, SrlI)
NOSQ_ALUI(srai, SraI)
#undef NOSQ_ALUI

void
ProgramBuilder::li(RegIndex rd, std::int64_t imm)
{
    emit({Opcode::LdImm, rd, 0, 0, imm});
}

void
ProgramBuilder::cvtif(RegIndex rd, RegIndex ra)
{
    emit({Opcode::CvtIF, rd, ra, 0, 0});
}

#define NOSQ_LOAD(name, OP)                                            \
    void                                                               \
    ProgramBuilder::name(RegIndex rd, RegIndex ra, std::int64_t ofs)   \
    {                                                                  \
        emit({Opcode::OP, rd, ra, 0, ofs});                            \
    }

NOSQ_LOAD(ld1u, Ld1U)
NOSQ_LOAD(ld1s, Ld1S)
NOSQ_LOAD(ld2u, Ld2U)
NOSQ_LOAD(ld2s, Ld2S)
NOSQ_LOAD(ld4u, Ld4U)
NOSQ_LOAD(ld4s, Ld4S)
NOSQ_LOAD(ld8, Ld8)
NOSQ_LOAD(lds, LdS)
#undef NOSQ_LOAD

#define NOSQ_STORE(name, OP)                                           \
    void                                                               \
    ProgramBuilder::name(RegIndex ra, std::int64_t ofs, RegIndex rb)   \
    {                                                                  \
        emit({Opcode::OP, 0, ra, rb, ofs});                            \
    }

NOSQ_STORE(st1, St1)
NOSQ_STORE(st2, St2)
NOSQ_STORE(st4, St4)
NOSQ_STORE(st8, St8)
NOSQ_STORE(sts, StS)
#undef NOSQ_STORE

void
ProgramBuilder::branchTo(Opcode op, RegIndex ra, RegIndex rb,
                         const std::string &target)
{
    fixups.emplace_back(prog.code.size(), target);
    emit({op, 0, ra, rb, 0});
}

void
ProgramBuilder::beq(RegIndex ra, RegIndex rb, const std::string &t)
{
    branchTo(Opcode::Beq, ra, rb, t);
}

void
ProgramBuilder::bne(RegIndex ra, RegIndex rb, const std::string &t)
{
    branchTo(Opcode::Bne, ra, rb, t);
}

void
ProgramBuilder::blt(RegIndex ra, RegIndex rb, const std::string &t)
{
    branchTo(Opcode::Blt, ra, rb, t);
}

void
ProgramBuilder::bge(RegIndex ra, RegIndex rb, const std::string &t)
{
    branchTo(Opcode::Bge, ra, rb, t);
}

void
ProgramBuilder::jmp(const std::string &target)
{
    branchTo(Opcode::Jmp, 0, 0, target);
}

void
ProgramBuilder::call(const std::string &target, RegIndex link)
{
    fixups.emplace_back(prog.code.size(), target);
    emit({Opcode::Call, link, 0, 0, 0});
}

void
ProgramBuilder::ret(RegIndex link)
{
    emit({Opcode::Ret, 0, link, 0, 0});
}

Program
ProgramBuilder::build()
{
    nosq_assert(!built, "double build");
    for (const auto &[index, name] : fixups) {
        auto it = labels.find(name);
        if (it == labels.end())
            nosq_panic("undefined label '%s'", name.c_str());
        prog.code[index].imm = static_cast<std::int64_t>(it->second);
    }
    built = true;
    return std::move(prog);
}

} // namespace nosq
