/**
 * @file
 * Tests for the functional simulator: architectural semantics, the
 * byte-granular dependence oracle, and the rewindable trace stream.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/sparse_memory.hh"
#include "isa/program.hh"
#include "workload/functional.hh"
#include "workload/generator.hh"
#include "workload/memory.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace {

/** Run @p prog until halt (or limit) collecting the trace. */
std::vector<DynInst>
runAll(const Program &prog, std::size_t limit = 100000)
{
    FunctionalSim sim(prog);
    std::vector<DynInst> out;
    DynInst di;
    while (out.size() < limit && sim.step(di))
        out.push_back(di);
    return out;
}

/** runAll() variant that also collects the per-byte oracle detail. */
std::vector<std::pair<DynInst, OracleBytes>>
runAllWithBytes(const Program &prog, std::size_t limit = 100000)
{
    FunctionalSim sim(prog);
    std::vector<std::pair<DynInst, OracleBytes>> out;
    DynInst di;
    OracleBytes bytes;
    while (out.size() < limit && sim.step(di, &bytes))
        out.emplace_back(di, bytes);
    return out;
}

TEST(SparseMemory, ReadWriteRoundTrip)
{
    SparseMemory m;
    m.write(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788ull);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344ull);
    EXPECT_EQ(m.read(0x1002, 2), 0x5566ull);
}

TEST(SparseMemory, UnwrittenReadsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0xdead0000, 8), 0ull);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory m;
    const Addr addr = SparseMemory::page_size - 4;
    m.write(addr, 8, 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(m.read(addr, 8), 0xa1b2c3d4e5f60718ull);
}

TEST(SparseMemory, CopiesNeverSeeEachOthersWrites)
{
    SparseMemory a;
    a.write(0x1000, 8, 0x1111);
    a.write(0x5000, 8, 0x5555); // leaves a's last-page cache on 0x5000

    SparseMemory b = a;
    b.write(0x1000, 8, 0x2222); // the copy writes: original unchanged
    a.write(0x5000, 8, 0x6666); // the original writes through its
                                // cache: the copy is unchanged
    EXPECT_EQ(a.read(0x1000, 8), 0x1111u);
    EXPECT_EQ(a.read(0x5000, 8), 0x6666u);
    EXPECT_EQ(b.read(0x1000, 8), 0x2222u);
    EXPECT_EQ(b.read(0x5000, 8), 0x5555u);

    SparseMemory c = b; // a copy of a copy
    c.write(0x1000, 8, 0x3333);
    c.write(0x5000, 8, 0x7777);
    b.write(0x5004, 4, 0xbbbb);
    EXPECT_EQ(c.read(0x1000, 8), 0x3333u);
    EXPECT_EQ(c.read(0x5000, 8), 0x7777u);
    EXPECT_EQ(b.read(0x1000, 8), 0x2222u);
    EXPECT_EQ(b.read(0x5000, 8), 0x0000bbbb00005555ull);
    EXPECT_EQ(a.read(0x1000, 8), 0x1111u);
    EXPECT_EQ(a.read(0x5000, 8), 0x6666u);

    // Assignment replaces a memory's own pages with shared ones.
    SparseMemory d;
    d.write(0x1000, 8, 0xdddd);
    d = a;
    EXPECT_EQ(d.read(0x1000, 8), 0x1111u);
    d.write(0x1000, 8, 0xeeee);
    EXPECT_EQ(d.read(0x1000, 8), 0xeeeeu);
    EXPECT_EQ(a.read(0x1000, 8), 0x1111u);
}

TEST(SparseMemory, WriteStraddlingTwoSharedPages)
{
    const Addr edge = 3 * SparseMemory::page_size;
    SparseMemory a;
    a.write(edge - 8, 8, 0x0706050403020100ull);
    a.write(edge, 8, 0x0f0e0d0c0b0a0908ull);
    SparseMemory b = a;

    b.write(edge - 4, 8, 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(b.read(edge - 4, 8), 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(b.read(edge - 8, 4), 0x03020100u);
    EXPECT_EQ(b.read(edge + 4, 4), 0x0f0e0d0cu);
    EXPECT_EQ(a.read(edge - 4, 8), 0x0b0a090807060504ull);
    EXPECT_EQ(b.ownedPages(), 2u);
    EXPECT_EQ(a.ownedPages(), 2u); // nothing shares them any more
}

TEST(SparseMemory, WriteBytesSpanningPages)
{
    SparseMemory a;
    a.write(SparseMemory::page_size, 8, 0x4242);
    SparseMemory b = a;

    std::vector<std::uint8_t> data(3 * SparseMemory::page_size);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 7 + 1);
    const Addr base = SparseMemory::page_size - 100;
    b.writeBytes(base, data.data(), data.size());

    std::vector<std::uint8_t> back(data.size());
    b.readBytes(base, back.data(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(b.numPages(), 4u);
    EXPECT_EQ(a.numPages(), 1u);
    EXPECT_EQ(a.read(SparseMemory::page_size, 8), 0x4242u);
    EXPECT_EQ(a.readByte(base), 0u);
}

TEST(SparseMemory, UnwrittenBytesOfCopiesReadZero)
{
    SparseMemory a;
    a.write(0x2008, 8, ~0ull);
    const SparseMemory b = a;
    EXPECT_EQ(b.read(0x2000, 8), 0u);        // present page
    EXPECT_EQ(b.read(0x9000, 8), 0u);        // absent page
    EXPECT_EQ(b.read(0x2ffc, 8), 0u);        // present into absent
    EXPECT_EQ(b.read(0x1ffc, 8), 0u);        // absent into present
    EXPECT_EQ(b.read(0x2006, 4), 0xffff0000u);
}

TEST(SparseMemory, EverySizeAndOffsetNearAPageEdge)
{
    // Offsets up to 8 bytes before the edge take the one-page
    // fast path; the last 7 take the chunked path or straddle.
    const Addr edge = 2 * SparseMemory::page_size;
    SparseMemory base;
    for (Addr a = edge - 16; a < edge + 16; ++a)
        base.write(a, 1, 0xa0 + (a & 0xf));
    for (const unsigned size : {1u, 2u, 4u, 8u}) {
        for (Addr addr = edge - 16; addr <= edge + 8; ++addr) {
            SparseMemory m = base;
            m.write(addr, size, 0x1122334455667788ull);
            const std::uint64_t mask =
                size == 8 ? ~0ull : (1ull << (8 * size)) - 1;
            EXPECT_EQ(m.read(addr, size), 0x1122334455667788ull & mask)
                << size << " @" << addr;
            EXPECT_EQ(m.readByte(addr - 1), base.readByte(addr - 1));
            EXPECT_EQ(m.readByte(addr + size), base.readByte(addr + size));
            EXPECT_TRUE(base.read(addr, size) != m.read(addr, size));
            EXPECT_EQ(base.readByte(addr), 0xa0 + (addr & 0xf));
        }
    }
}

TEST(SparseMemory, CopyOnWriteKeepsPageCount)
{
    SparseMemory a;
    for (Addr page = 0; page < 8; ++page)
        a.write(page * SparseMemory::page_size, 8, page + 1);
    EXPECT_EQ(a.ownedPages(), 8u);

    SparseMemory b = a;
    EXPECT_EQ(b.numPages(), 8u);
    EXPECT_EQ(a.ownedPages(), 0u);
    EXPECT_EQ(b.ownedPages(), 0u);
    EXPECT_TRUE(a == b);

    b.write(2 * SparseMemory::page_size, 8, 99);
    EXPECT_EQ(a.numPages(), 8u);
    EXPECT_EQ(b.numPages(), 8u);
    EXPECT_EQ(a.ownedPages(), 1u);
    EXPECT_EQ(b.ownedPages(), 1u);
    EXPECT_FALSE(a == b);

    b.write(100 * SparseMemory::page_size, 1, 1); // a new page
    EXPECT_EQ(a.numPages(), 8u);
    EXPECT_EQ(b.numPages(), 9u);
    EXPECT_EQ(b.ownedPages(), 2u);
}

TEST(ShadowMemory, TracksLastWriterPerByte)
{
    ShadowMemory s;
    s.recordStore(0x100, 8, 1, 10); // SSN 1 writes 8 bytes
    s.recordStore(0x102, 2, 2, 11); // SSN 2 overwrites bytes 2-3
    EXPECT_EQ(s.writer(0x100).ssn, 1u);
    EXPECT_EQ(s.writer(0x102).ssn, 2u);
    EXPECT_EQ(s.writer(0x103).ssn, 2u);
    EXPECT_EQ(s.writer(0x104).ssn, 1u);
    EXPECT_FALSE(s.writer(0x200).valid());
}

TEST(Functional, AluBasics)
{
    ProgramBuilder b;
    b.li(3, 10);
    b.li(4, 3);
    b.add(5, 3, 4);
    b.sub(6, 3, 4);
    b.mul(7, 3, 4);
    b.cmplt(8, 4, 3);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(5), 13u);
    EXPECT_EQ(sim.reg(6), 7u);
    EXPECT_EQ(sim.reg(7), 30u);
    EXPECT_EQ(sim.reg(8), 1u);
}

TEST(Functional, ZeroRegisterIsImmutable)
{
    ProgramBuilder b;
    b.li(reg_zero, 99);
    b.addi(3, reg_zero, 5);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(reg_zero), 0u);
    EXPECT_EQ(sim.reg(3), 5u);
}

TEST(Functional, StoreLoadRoundTripAllSizes)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, static_cast<std::int64_t>(0xfedcba9876543210ull));
    b.st8(3, 0, 4);
    b.st4(3, 8, 4);
    b.st2(3, 12, 4);
    b.st1(3, 14, 4);
    b.ld8(10, 3, 0);
    b.ld4u(11, 3, 8);
    b.ld2u(12, 3, 12);
    b.ld1u(13, 3, 14);
    b.ld4s(14, 3, 8);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(10), 0xfedcba9876543210ull);
    EXPECT_EQ(sim.reg(11), 0x76543210ull);
    EXPECT_EQ(sim.reg(12), 0x3210ull);
    EXPECT_EQ(sim.reg(13), 0x10ull);
    EXPECT_EQ(sim.reg(14), 0x76543210ull); // positive, no extension
}

TEST(Functional, SignExtendingLoads)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 0xff);
    b.st1(3, 0, 4);
    b.ld1s(5, 3, 0);
    b.ld1u(6, 3, 0);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(5), 0xffffffffffffffffull);
    EXPECT_EQ(sim.reg(6), 0xffull);
}

TEST(Functional, FpConvertStoreLoad)
{
    // Store 1.5 (double) as float32, load it back as double.
    ProgramBuilder b;
    b.li(3, 0x3000);
    b.li(4, 0x3ff8000000000000ll); // 1.5 as double bits
    b.sts(3, 0, 4);
    b.lds(5, 3, 0);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(5), 0x3ff8000000000000ull);
    // In-memory image must be the 4-byte float pattern.
    EXPECT_EQ(sim.memory().read(0x3000, 4), 0x3fc00000ull);
}

TEST(Functional, BranchesAndCalls)
{
    ProgramBuilder b;
    b.li(3, 2);
    b.label("loop");
    b.addi(4, 4, 10);
    b.addi(3, 3, -1);
    b.bne(3, reg_zero, "loop");
    b.call("fn");
    b.halt();
    b.label("fn");
    b.addi(4, 4, 100);
    b.ret();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(4), 120u);
}

TEST(Functional, TraceRecordsBranchOutcome)
{
    ProgramBuilder b;
    b.li(3, 1);
    b.beq(3, reg_zero, "skip"); // not taken
    b.bne(3, reg_zero, "skip"); // taken
    b.nop();
    b.label("skip");
    b.halt();
    Program p = b.build();
    const auto trace = runAll(p);
    ASSERT_GE(trace.size(), 3u);
    EXPECT_FALSE(trace[1].taken);
    EXPECT_EQ(trace[1].npc, trace[1].pc + inst_bytes);
    EXPECT_TRUE(trace[2].taken);
    EXPECT_EQ(trace[2].npc, 4 * inst_bytes);
}

TEST(Functional, OracleSingleWriter)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 42);
    b.st8(3, 0, 4);   // SSN 1
    b.ld8(5, 3, 0);
    b.halt();
    Program p = b.build();
    const auto trace = runAll(p);
    const DynInst &ld = trace[3];
    ASSERT_TRUE(ld.isLoad());
    EXPECT_TRUE(ld.singleWriter());
    EXPECT_EQ(ld.youngestWriterSsn(), 1u);
    EXPECT_EQ(ld.loadValue, 42u);
}

TEST(Functional, OracleMultiWriter)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 0x11);
    b.li(5, 0x22);
    b.st1(3, 0, 4);   // SSN 1
    b.st1(3, 1, 5);   // SSN 2
    b.ld2u(6, 3, 0);  // reads both
    b.halt();
    Program p = b.build();
    const auto trace = runAllWithBytes(p);
    const DynInst &ld = trace[5].first;
    const OracleBytes &bytes = trace[5].second;
    ASSERT_TRUE(ld.isLoad());
    EXPECT_FALSE(ld.singleWriter());
    EXPECT_EQ(bytes.writerSsn[0], 1u);
    EXPECT_EQ(bytes.writerSsn[1], 2u);
    EXPECT_EQ(ld.youngestWriterSsn(), 2u);
    EXPECT_EQ(ld.loadValue, 0x2211u);
}

TEST(Functional, OraclePartiallyUnwrittenIsNotSingleWriter)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 0x7f);
    b.st1(3, 0, 4);   // only byte 0 written
    b.ld2u(5, 3, 0);
    b.halt();
    Program p = b.build();
    const auto trace = runAllWithBytes(p);
    const DynInst &ld = trace[3].first;
    const OracleBytes &bytes = trace[3].second;
    EXPECT_FALSE(ld.singleWriter());
    EXPECT_EQ(bytes.writerSsn[0], 1u);
    EXPECT_EQ(bytes.writerSsn[1], 0u);
}

TEST(Functional, OracleOverwriteTracksYoungest)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 1);
    b.li(5, 2);
    b.st8(3, 0, 4);   // SSN 1
    b.st8(3, 0, 5);   // SSN 2 overwrites
    b.ld8(6, 3, 0);
    b.halt();
    Program p = b.build();
    const auto trace = runAll(p);
    const DynInst &ld = trace[5];
    EXPECT_TRUE(ld.singleWriter());
    EXPECT_EQ(ld.youngestWriterSsn(), 2u);
    EXPECT_EQ(ld.loadValue, 2u);
}

TEST(Functional, InitDataDoesNotCreateWriters)
{
    ProgramBuilder b;
    b.li(3, 0x4000);
    b.ld8(4, 3, 0);
    b.halt();
    b.initWords(0x4000, {777});
    Program p = b.build();
    const auto trace = runAll(p);
    const DynInst &ld = trace[1];
    EXPECT_EQ(ld.loadValue, 777u);
    EXPECT_EQ(ld.youngestWriterSsn(), 0u);
    EXPECT_FALSE(ld.singleWriter());
}

TEST(Functional, SsnsAreSequential)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    for (int i = 0; i < 5; ++i)
        b.st8(3, i * 8, 3);
    b.halt();
    Program p = b.build();
    const auto trace = runAll(p);
    SSN expect = 1;
    for (const auto &di : trace) {
        if (di.isStore()) {
            EXPECT_EQ(di.ssn, expect++);
        }
    }
    EXPECT_EQ(expect, 6u);
}

TEST(TraceStream, SequentialDelivery)
{
    ProgramBuilder b;
    b.li(3, 1);
    b.li(4, 2);
    b.add(5, 3, 4);
    b.halt();
    Program p = b.build();
    TraceStream ts(p);
    EXPECT_EQ(ts.next().seq, 1u);
    EXPECT_EQ(ts.next().seq, 2u);
    EXPECT_EQ(ts.peek().seq, 3u);
    EXPECT_EQ(ts.next().seq, 3u);
    EXPECT_EQ(ts.next().seq, 4u); // halt
    EXPECT_FALSE(ts.hasNext());
}

TEST(TraceStream, RewindReplaysIdentically)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 7);
    b.st8(3, 0, 4);
    b.ld8(5, 3, 0);
    b.halt();
    Program p = b.build();
    TraceStream ts(p);
    std::vector<DynInst> first;
    for (int i = 0; i < 5; ++i)
        first.push_back(ts.next());
    ts.rewindTo(3);
    EXPECT_EQ(ts.cursorSeq(), 3u);
    const DynInst &replay = ts.next();
    EXPECT_EQ(replay.seq, first[2].seq);
    EXPECT_EQ(replay.pc, first[2].pc);
    EXPECT_EQ(replay.addr, first[2].addr);
}

TEST(TraceStream, RetireBoundsBuffer)
{
    ProgramBuilder b;
    b.label("top");
    b.addi(3, 3, 1);
    b.jmp("top");
    Program p = b.build();
    TraceStream ts(p);
    for (int i = 0; i < 10000; ++i) {
        const DynInst &di = ts.next();
        if (di.seq > 256)
            ts.retireUpTo(di.seq - 256);
    }
    // Retirement recycles ring slots: the ring never grows.
    EXPECT_EQ(ts.capacity(), TraceStream::initial_capacity);
    // After retirement the stream can still rewind within the window.
    ts.rewindTo(ts.cursorSeq() - 64);
    EXPECT_TRUE(ts.hasNext());
}

/** Every DynInst field, so a replay can be checked bit for bit. */
void
expectSameInst(const DynInst &a, const DynInst &b)
{
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.si.op, b.si.op);
    EXPECT_EQ(a.si.rd, b.si.rd);
    EXPECT_EQ(a.si.ra, b.si.ra);
    EXPECT_EQ(a.si.rb, b.si.rb);
    EXPECT_EQ(a.si.imm, b.si.imm);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.storeData, b.storeData);
    EXPECT_EQ(a.memValue, b.memValue);
    EXPECT_EQ(a.loadValue, b.loadValue);
    EXPECT_EQ(a.ssn, b.ssn);
    EXPECT_EQ(a.oracleWriterSsn, b.oracleWriterSsn);
    EXPECT_EQ(a.oracleWriterSeq, b.oracleWriterSeq);
    EXPECT_EQ(a.oracleSingleWriter, b.oracleSingleWriter);
    EXPECT_EQ(a.oraclePartial, b.oraclePartial);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.npc, b.npc);
    EXPECT_EQ(a.halted, b.halted);
}

TEST(TraceStream, ReadAheadGrowsRingAndRewindReplaysExactly)
{
    // A synthesized program mixes loads, sub-word stores and branches,
    // so a replay exercises every DynInst field.
    const Program p = synthesize(*findProfile("gcc"), 1);
    const std::vector<DynInst> fresh = runAll(p, 2000);
    ASSERT_EQ(fresh.size(), 2000u);

    TraceStream ts(p);
    EXPECT_EQ(ts.capacity(), TraceStream::initial_capacity);
    for (const DynInst &want : fresh)
        expectSameInst(ts.next(), want);
    // 2000 instructions held unretired do not fit the initial ring.
    EXPECT_GT(ts.capacity(), TraceStream::initial_capacity);
    EXPECT_EQ(ts.capacity() & (ts.capacity() - 1), 0u);

    // Every held instruction survived the moves growth made.
    ts.rewindTo(5);
    EXPECT_EQ(ts.cursorSeq(), 5u);
    for (std::size_t i = 4; i < fresh.size(); ++i)
        expectSameInst(ts.next(), fresh[i]);

    // Producing past the old read-ahead continues the same stream.
    const std::vector<DynInst> longer = runAll(p, 2100);
    for (std::size_t i = fresh.size(); i < longer.size(); ++i)
        expectSameInst(ts.next(), longer[i]);
}

TEST(TraceStream, PinnedRecordsStayPutUntilTheyRetire)
{
    const Program p = synthesize(*findProfile("gcc"), 1);
    const std::vector<DynInst> fresh = runAll(p, 5000);
    ASSERT_EQ(fresh.size(), 5000u);

    // A reader holding up to 700 unretired records, more than the
    // initial ring holds.
    constexpr std::size_t window = 700;
    TraceStream ts(p);
    ts.pinRecords(window);
    EXPECT_GE(ts.capacity(), window + 64);
    const std::size_t capacity = ts.capacity();

    std::vector<const DynInst *> held;
    for (const DynInst &want : fresh) {
        if (held.size() == window) {
            // Every held record is where it was handed out, intact.
            for (std::size_t i = 0; i < held.size(); ++i)
                ASSERT_EQ(held[i]->seq, want.seq - window + i);
            ts.retireUpTo(held.front()->seq);
            held.erase(held.begin());
        }
        const DynInst &di = ts.next();
        expectSameInst(di, want);
        held.push_back(&di);
    }
    EXPECT_EQ(ts.capacity(), capacity);
}

TEST(TraceStream, PinnedRingPanicsInsteadOfGrowing)
{
    const Program p = synthesize(*findProfile("gcc"), 1);
    TraceStream ts(p);
    ts.pinRecords(100);
    // Holding more unretired records than pinned would have to move
    // them: that is a bug in the reader, so it must not pass
    // silently.
    EXPECT_DEATH(
        {
            for (int i = 0; i < 2000; ++i)
                ts.next();
        },
        "!pinned");
}

} // anonymous namespace
} // namespace nosq
