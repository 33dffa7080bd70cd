/**
 * @file
 * Unit tests for the micro-ISA: classification, extension semantics,
 * program building, and disassembly.
 */

#include <gtest/gtest.h>

#include "isa/disasm.hh"
#include "isa/isa.hh"
#include "isa/program.hh"

namespace nosq {
namespace {

TEST(IsaClass, LoadsAndStores)
{
    EXPECT_TRUE(isLoad(Opcode::Ld1U));
    EXPECT_TRUE(isLoad(Opcode::LdS));
    EXPECT_FALSE(isLoad(Opcode::St1));
    EXPECT_TRUE(isStore(Opcode::StS));
    EXPECT_FALSE(isStore(Opcode::Ld8));
    EXPECT_EQ(instClass(Opcode::Ld8), InstClass::Load);
    EXPECT_EQ(instClass(Opcode::St2), InstClass::Store);
}

TEST(IsaClass, ComplexOps)
{
    EXPECT_EQ(instClass(Opcode::Mul), InstClass::ComplexIntFp);
    EXPECT_EQ(instClass(Opcode::FAdd), InstClass::ComplexIntFp);
    EXPECT_EQ(instClass(Opcode::Add), InstClass::SimpleInt);
    EXPECT_EQ(instClass(Opcode::Beq), InstClass::Branch);
}

TEST(IsaClass, ControlOps)
{
    EXPECT_TRUE(isControl(Opcode::Jmp));
    EXPECT_TRUE(isControl(Opcode::Call));
    EXPECT_TRUE(isControl(Opcode::Ret));
    EXPECT_TRUE(isCondBranch(Opcode::Blt));
    EXPECT_FALSE(isCondBranch(Opcode::Jmp));
}

TEST(IsaClass, MemSizes)
{
    EXPECT_EQ(memSize(Opcode::Ld1S), 1u);
    EXPECT_EQ(memSize(Opcode::Ld2U), 2u);
    EXPECT_EQ(memSize(Opcode::LdS), 4u);
    EXPECT_EQ(memSize(Opcode::St8), 8u);
    EXPECT_EQ(memSize(Opcode::StS), 4u);
}

TEST(IsaExtend, ZeroExtend)
{
    EXPECT_EQ(extendValue(0xff, 1, ExtendKind::Zero), 0xffull);
    EXPECT_EQ(extendValue(0x8000, 2, ExtendKind::Zero), 0x8000ull);
    EXPECT_EQ(extendValue(0xdeadbeefcafef00d, 4, ExtendKind::Zero),
              0xcafef00dull);
}

TEST(IsaExtend, SignExtend)
{
    EXPECT_EQ(extendValue(0xff, 1, ExtendKind::Sign),
              0xffffffffffffffffull);
    EXPECT_EQ(extendValue(0x7f, 1, ExtendKind::Sign), 0x7full);
    EXPECT_EQ(extendValue(0x8000, 2, ExtendKind::Sign),
              0xffffffffffff8000ull);
    EXPECT_EQ(extendValue(0x12345678, 4, ExtendKind::Sign),
              0x12345678ull);
    EXPECT_EQ(extendValue(0x87654321, 4, ExtendKind::Sign),
              0xffffffff87654321ull);
}

TEST(IsaExtend, FpConvertRoundTrips)
{
    // float 1.5 has an exact double representation.
    const std::uint32_t f15 = 0x3fc00000;
    const std::uint64_t d15 = 0x3ff8000000000000ull;
    EXPECT_EQ(fp32ToReg(f15), d15);
    EXPECT_EQ(regToFp32(d15), f15);
    EXPECT_EQ(extendValue(f15, 4, ExtendKind::FpCvt), d15);
}

TEST(IsaExtend, FpConvertNegativeAndZero)
{
    EXPECT_EQ(fp32ToReg(0x00000000), 0ull);
    // -2.0f -> -2.0 double
    EXPECT_EQ(fp32ToReg(0xc0000000), 0xc000000000000000ull);
    EXPECT_EQ(regToFp32(0xc000000000000000ull), 0xc0000000u);
}

TEST(IsaRegs, WritesReadsClassification)
{
    Instruction ld{Opcode::Ld8, 5, 3, 0, 16};
    EXPECT_TRUE(writesReg(ld));
    EXPECT_TRUE(readsRa(ld));
    EXPECT_FALSE(readsRb(ld));

    Instruction st{Opcode::St8, 0, 3, 7, 16};
    EXPECT_FALSE(writesReg(st));
    EXPECT_TRUE(readsRa(st));
    EXPECT_TRUE(readsRb(st));

    Instruction li{Opcode::LdImm, 4, 0, 0, 99};
    EXPECT_TRUE(writesReg(li));
    EXPECT_FALSE(readsRa(li));

    Instruction to_zero{Opcode::Add, reg_zero, 1, 2, 0};
    EXPECT_FALSE(writesReg(to_zero));
}

TEST(ProgramBuilder, ResolvesForwardLabels)
{
    ProgramBuilder b;
    b.li(3, 1);
    b.beq(3, reg_zero, "end"); // forward reference
    b.li(4, 2);
    b.label("end");
    b.halt();
    Program p = b.build();
    ASSERT_EQ(p.numInsts(), 4u);
    EXPECT_EQ(p.code[1].imm,
              static_cast<std::int64_t>(3 * inst_bytes));
}

TEST(ProgramBuilder, ResolvesBackwardLabels)
{
    ProgramBuilder b;
    b.label("top");
    b.addi(3, 3, 1);
    b.jmp("top");
    Program p = b.build();
    EXPECT_EQ(p.code[1].imm, 0);
}

TEST(ProgramBuilder, FetchAndValidPc)
{
    ProgramBuilder b;
    b.nop();
    b.halt();
    Program p = b.build();
    EXPECT_TRUE(p.validPc(0));
    EXPECT_TRUE(p.validPc(inst_bytes));
    EXPECT_FALSE(p.validPc(2 * inst_bytes));
    EXPECT_FALSE(p.validPc(1)); // misaligned
    EXPECT_EQ(p.fetch(inst_bytes).op, Opcode::Halt);
}

TEST(ProgramBuilder, InitWordsLittleEndian)
{
    ProgramBuilder b;
    b.halt();
    b.initWords(0x1000, 1,
                [](std::size_t) { return 0x1122334455667788ull; });
    Program p = b.build();
    ASSERT_EQ(p.image.numPages(), 1u);
    EXPECT_EQ(p.image.readByte(0x1000), 0x88);
    EXPECT_EQ(p.image.readByte(0x1007), 0x11);
    EXPECT_EQ(p.image.read(0x1000, 8), 0x1122334455667788ull);
}

TEST(Disasm, RendersForms)
{
    EXPECT_EQ(disassemble({Opcode::Ld4U, 5, 3, 0, 16}),
              "ld4u r5, 16(r3)");
    EXPECT_EQ(disassemble({Opcode::St2, 0, 3, 7, -4}),
              "st2 -4(r3), r7");
    EXPECT_EQ(disassemble({Opcode::Add, 1, 2, 3, 0}),
              "add r1, r2, r3");
    EXPECT_EQ(disassemble({Opcode::Beq, 0, 1, 2, 0x40}),
              "beq r1, r2, 0x40");
    EXPECT_EQ(disassemble({Opcode::Nop, 0, 0, 0, 0}), "nop");
}

TEST(IsaLatency, ClassLatencies)
{
    EXPECT_EQ(execLatency(Opcode::Add), 1u);
    EXPECT_EQ(execLatency(Opcode::Mul), 4u);
    EXPECT_EQ(execLatency(Opcode::FDiv), 12u);
    EXPECT_EQ(execLatency(Opcode::Beq), 1u);
}

} // anonymous namespace
} // namespace nosq
