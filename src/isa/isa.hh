/**
 * @file
 * The micro-ISA executed by the simulator.
 *
 * A minimal 64-bit load/store RISC ISA in the spirit of the Alpha AXP
 * (the paper's experimental platform). It deliberately exposes every
 * property the NoSQ mechanisms observe:
 *
 *  - 1/2/4/8-byte loads and stores with sign/zero extension, so all of
 *    Section 3.5's partial-word mask/shift/extend transformations occur;
 *  - an Alpha lds/sts-style float32 <-> float64 conversion pair (LdS /
 *    StS), the "yet another possible transformation" of Section 3.5;
 *  - calls and returns, so call-site path sensitivity is exercised;
 *  - conditional branches, so branch-direction path history matters.
 *
 * Registers: 64 flat architectural registers. Register 0 reads as zero
 * and writes to it are discarded. By convention register 1 is the stack
 * pointer and register 2 the link register.
 */

#ifndef NOSQ_ISA_ISA_HH
#define NOSQ_ISA_ISA_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "common/types.hh"

namespace nosq {

/** Number of architectural registers. */
constexpr RegIndex num_arch_regs = 64;

/** Architectural register conventions. */
constexpr RegIndex reg_zero = 0;
constexpr RegIndex reg_sp = 1;
constexpr RegIndex reg_lr = 2;

/** Bytes per instruction; PCs advance by this much. */
constexpr Addr inst_bytes = 4;

/** Operation codes. */
enum class Opcode : std::uint8_t {
    Nop,
    Halt,

    // Simple integer ALU, register-register.
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, CmpEq, CmpLt,

    // Simple integer ALU, register-immediate.
    AddI, AndI, OrI, XorI, SllI, SrlI, SraI,

    // Load 64-bit immediate.
    LdImm,

    // Complex integer.
    Mul,

    // Floating point (values are IEEE754 double bit patterns).
    FAdd, FMul, FDiv, CvtIF,

    // Loads: U = zero-extend, S = sign-extend; LdS converts an
    // in-memory float32 to an in-register float64 (Alpha lds).
    Ld1U, Ld1S, Ld2U, Ld2S, Ld4U, Ld4S, Ld8, LdS,

    // Stores truncate the 64-bit register to the access size; StS
    // converts an in-register float64 to an in-memory float32
    // (Alpha sts).
    St1, St2, St4, St8, StS,

    // Control. Conditional branches compare ra against rb.
    Beq, Bne, Blt, Bge,
    Jmp,  // unconditional direct
    Call, // direct call, writes return address to rd
    Ret,  // indirect jump through ra

    NumOpcodes,
};

/** Functional-unit class for scheduling (Section 4.1 issue limits). */
enum class InstClass : std::uint8_t {
    SimpleInt,    // up to 4/cycle
    ComplexIntFp, // up to 2/cycle
    Branch,       // up to 1/cycle
    Load,         // up to 1/cycle
    Store,        // up to 1/cycle
};

/** Number of InstClass values (for per-class arrays). */
constexpr std::size_t num_inst_classes = 5;

/** How a load extends the accessed bytes into a 64-bit register. */
enum class ExtendKind : std::uint8_t {
    Zero,
    Sign,
    FpCvt, // float32 -> float64
};

/** A decoded static instruction. */
struct Instruction
{
    Opcode op = Opcode::Nop;
    RegIndex rd = reg_zero; // destination (loads, ALU, call link)
    RegIndex ra = reg_zero; // source 1 / base address / branch lhs
    RegIndex rb = reg_zero; // source 2 / store data / branch rhs
    std::int64_t imm = 0;   // immediate / displacement / target PC
};

/**
 * Static properties of one opcode. opcode_table below holds one row
 * per opcode, in Opcode order, and every opcode query in this header
 * reads it, so each property is declared exactly once and the
 * queries inline into the cycle loop.
 */
struct OpcodeInfo
{
    Opcode op;
    const char *name;
    InstClass cls;
    /** Access size in bytes; 0 for non-memory opcodes. */
    std::uint8_t memSize;
    /**
     * Memory opcodes: how the value converts between register and
     * memory. Loads extend (FpCvt: float32 -> float64, Alpha lds);
     * only StS stores convert (float64 -> float32, Alpha sts).
     */
    ExtendKind ext;
    /** Execution latency in cycles (loads: address generation only;
     * the memory system adds the cache latency). */
    std::uint8_t latency;
    /** Writes rd (unless rd is the zero register). */
    bool writesRd;
    bool readsRa;
    bool readsRb;
};

namespace opcode_table_detail {

constexpr InstClass S = InstClass::SimpleInt;
constexpr InstClass C = InstClass::ComplexIntFp;
constexpr InstClass B = InstClass::Branch;
constexpr InstClass L = InstClass::Load;
constexpr InstClass W = InstClass::Store;
constexpr ExtendKind Z = ExtendKind::Zero;
constexpr ExtendKind X = ExtendKind::Sign;
constexpr ExtendKind F = ExtendKind::FpCvt;

} // namespace opcode_table_detail

/** Every opcode's properties, indexed by Opcode. */
inline constexpr OpcodeInfo opcode_table[] = {
#define NOSQ_OP(op, name, cls, size, ext, lat, wr, ra, rb)              \
    {Opcode::op, name, opcode_table_detail::cls, size,                 \
     opcode_table_detail::ext, lat, wr, ra, rb}
    //      opcode  name     class size ext lat  rd  ra  rb
    NOSQ_OP(Nop,    "nop",    S, 0, Z,  1, 0, 0, 0),
    NOSQ_OP(Halt,   "halt",   S, 0, Z,  1, 0, 0, 0),
    NOSQ_OP(Add,    "add",    S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(Sub,    "sub",    S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(And,    "and",    S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(Or,     "or",     S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(Xor,    "xor",    S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(Sll,    "sll",    S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(Srl,    "srl",    S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(Sra,    "sra",    S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(CmpEq,  "cmpeq",  S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(CmpLt,  "cmplt",  S, 0, Z,  1, 1, 1, 1),
    NOSQ_OP(AddI,   "addi",   S, 0, Z,  1, 1, 1, 0),
    NOSQ_OP(AndI,   "andi",   S, 0, Z,  1, 1, 1, 0),
    NOSQ_OP(OrI,    "ori",    S, 0, Z,  1, 1, 1, 0),
    NOSQ_OP(XorI,   "xori",   S, 0, Z,  1, 1, 1, 0),
    NOSQ_OP(SllI,   "slli",   S, 0, Z,  1, 1, 1, 0),
    NOSQ_OP(SrlI,   "srli",   S, 0, Z,  1, 1, 1, 0),
    NOSQ_OP(SraI,   "srai",   S, 0, Z,  1, 1, 1, 0),
    NOSQ_OP(LdImm,  "ldimm",  S, 0, Z,  1, 1, 0, 0),
    NOSQ_OP(Mul,    "mul",    C, 0, Z,  4, 1, 1, 1),
    NOSQ_OP(FAdd,   "fadd",   C, 0, Z,  4, 1, 1, 1),
    NOSQ_OP(FMul,   "fmul",   C, 0, Z,  4, 1, 1, 1),
    NOSQ_OP(FDiv,   "fdiv",   C, 0, Z, 12, 1, 1, 1),
    NOSQ_OP(CvtIF,  "cvtif",  C, 0, Z,  4, 1, 1, 0),
    NOSQ_OP(Ld1U,   "ld1u",   L, 1, Z,  1, 1, 1, 0),
    NOSQ_OP(Ld1S,   "ld1s",   L, 1, X,  1, 1, 1, 0),
    NOSQ_OP(Ld2U,   "ld2u",   L, 2, Z,  1, 1, 1, 0),
    NOSQ_OP(Ld2S,   "ld2s",   L, 2, X,  1, 1, 1, 0),
    NOSQ_OP(Ld4U,   "ld4u",   L, 4, Z,  1, 1, 1, 0),
    NOSQ_OP(Ld4S,   "ld4s",   L, 4, X,  1, 1, 1, 0),
    NOSQ_OP(Ld8,    "ld8",    L, 8, Z,  1, 1, 1, 0),
    NOSQ_OP(LdS,    "lds",    L, 4, F,  1, 1, 1, 0),
    NOSQ_OP(St1,    "st1",    W, 1, Z,  1, 0, 1, 1),
    NOSQ_OP(St2,    "st2",    W, 2, Z,  1, 0, 1, 1),
    NOSQ_OP(St4,    "st4",    W, 4, Z,  1, 0, 1, 1),
    NOSQ_OP(St8,    "st8",    W, 8, Z,  1, 0, 1, 1),
    NOSQ_OP(StS,    "sts",    W, 4, F,  1, 0, 1, 1),
    NOSQ_OP(Beq,    "beq",    B, 0, Z,  1, 0, 1, 1),
    NOSQ_OP(Bne,    "bne",    B, 0, Z,  1, 0, 1, 1),
    NOSQ_OP(Blt,    "blt",    B, 0, Z,  1, 0, 1, 1),
    NOSQ_OP(Bge,    "bge",    B, 0, Z,  1, 0, 1, 1),
    NOSQ_OP(Jmp,    "jmp",    B, 0, Z,  1, 0, 0, 0),
    NOSQ_OP(Call,   "call",   B, 0, Z,  1, 1, 0, 0),
    NOSQ_OP(Ret,    "ret",    B, 0, Z,  1, 0, 1, 0),
#undef NOSQ_OP
};

namespace opcode_table_detail {

constexpr bool
rowsInOpcodeOrder()
{
    for (std::size_t i = 0; i < std::size(opcode_table); ++i) {
        if (static_cast<std::size_t>(opcode_table[i].op) != i)
            return false;
    }
    return true;
}

} // namespace opcode_table_detail

static_assert(std::size(opcode_table) ==
                  static_cast<std::size_t>(Opcode::NumOpcodes),
              "opcode_table needs one row per opcode");
static_assert(opcode_table_detail::rowsInOpcodeOrder(),
              "opcode_table rows must follow Opcode order");

/** Cold failure path of memSize() / loadExtend(): panics. */
[[noreturn]] void opcodeMisuse(const char *query, const char *kind,
                               Opcode op);

/** @return @p op's row of opcode_table. */
inline const OpcodeInfo &
opcodeInfo(Opcode op)
{
    return opcode_table[static_cast<std::size_t>(op)];
}

/** @return the functional-unit class of an opcode. */
inline InstClass instClass(Opcode op) { return opcodeInfo(op).cls; }

/** @return true for any load opcode. */
inline bool isLoad(Opcode op) { return instClass(op) == InstClass::Load; }

/** @return true for any store opcode. */
inline bool
isStore(Opcode op)
{
    return instClass(op) == InstClass::Store;
}

/** @return true for any control-transfer opcode. */
inline bool
isControl(Opcode op)
{
    return instClass(op) == InstClass::Branch;
}

/** @return true for conditional branches only. */
inline bool
isCondBranch(Opcode op)
{
    return op == Opcode::Beq || op == Opcode::Bne ||
        op == Opcode::Blt || op == Opcode::Bge;
}

/** @return memory access size in bytes (loads and stores only). */
inline unsigned
memSize(Opcode op)
{
    const unsigned size = opcodeInfo(op).memSize;
    if (size == 0)
        opcodeMisuse("memSize", "non-memory", op);
    return size;
}

/** @return how a load extends its value (loads only). */
inline ExtendKind
loadExtend(Opcode op)
{
    if (!isLoad(op))
        opcodeMisuse("loadExtend", "non-load", op);
    return opcodeInfo(op).ext;
}

/** @return true if the store applies the float64->float32 convert. */
inline bool
storeFpCvt(Opcode op)
{
    return isStore(op) && opcodeInfo(op).ext == ExtendKind::FpCvt;
}

/** @return execution latency in cycles for a non-memory opcode. */
inline unsigned execLatency(Opcode op) { return opcodeInfo(op).latency; }

/** @return true if the instruction writes rd. */
inline bool
writesReg(const Instruction &inst)
{
    return opcodeInfo(inst.op).writesRd && inst.rd != reg_zero;
}

/** @return true if the instruction reads ra. */
inline bool
readsRa(const Instruction &inst)
{
    return opcodeInfo(inst.op).readsRa;
}

/** @return true if the instruction reads rb. */
inline bool
readsRb(const Instruction &inst)
{
    return opcodeInfo(inst.op).readsRb;
}

/** @return the opcode mnemonic. */
const char *opcodeName(Opcode op);

/** Zero- or sign-extend @p raw of @p size bytes per @p ext. */
std::uint64_t extendValue(std::uint64_t raw, unsigned size,
                          ExtendKind ext);

/** Apply the float32->float64 in-register conversion (Alpha lds). */
std::uint64_t fp32ToReg(std::uint32_t bits);

/** Apply the float64->float32 conversion for StS (Alpha sts). */
std::uint32_t regToFp32(std::uint64_t reg);

} // namespace nosq

#endif // NOSQ_ISA_ISA_HH
