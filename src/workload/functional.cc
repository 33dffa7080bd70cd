#include "workload/functional.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace nosq {

namespace {

/** The record every step starts from (see FunctionalSim::step). */
const DynInst blank_record{};

} // anonymous namespace

FunctionalSim::FunctionalSim(std::shared_ptr<const Program> program)
    : prog(std::move(program)), currentPc(prog->entryPc),
      mem(prog->image)
{
    // A distant, initially-zero stack.
    regFile[reg_sp] = 0x7ff0'0000;
}

FunctionalSim::FunctionalSim(const Program &program)
    : FunctionalSim(std::make_shared<const Program>(program))
{
}

std::uint64_t
FunctionalSim::aluResult(const Instruction &si) const
{
    const std::uint64_t a = regFile[si.ra];
    const std::uint64_t b = regFile[si.rb];
    const auto imm = static_cast<std::uint64_t>(si.imm);

    auto as_double = [](std::uint64_t bits) {
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    };
    auto from_double = [](double d) {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        return bits;
    };

    switch (si.op) {
      case Opcode::Add: return a + b;
      case Opcode::Sub: return a - b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Sll: return a << (b & 63);
      case Opcode::Srl: return a >> (b & 63);
      case Opcode::Sra:
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(a) >> (b & 63));
      case Opcode::CmpEq: return a == b ? 1 : 0;
      case Opcode::CmpLt:
        return static_cast<std::int64_t>(a) <
            static_cast<std::int64_t>(b) ? 1 : 0;
      case Opcode::AddI: return a + imm;
      case Opcode::AndI: return a & imm;
      case Opcode::OrI: return a | imm;
      case Opcode::XorI: return a ^ imm;
      case Opcode::SllI: return a << (imm & 63);
      case Opcode::SrlI: return a >> (imm & 63);
      case Opcode::SraI:
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(a) >> (imm & 63));
      case Opcode::LdImm: return imm;
      case Opcode::Mul: return a * b;
      case Opcode::FAdd: return from_double(as_double(a) + as_double(b));
      case Opcode::FMul: return from_double(as_double(a) * as_double(b));
      case Opcode::FDiv: {
        const double divisor = as_double(b);
        return from_double(divisor == 0.0
                           ? 0.0 : as_double(a) / divisor);
      }
      case Opcode::CvtIF:
        return from_double(
            static_cast<double>(static_cast<std::int64_t>(a)));
      default:
        nosq_panic("aluResult of non-ALU opcode %s", opcodeName(si.op));
    }
}

bool
FunctionalSim::step(DynInst &out, OracleBytes *bytes)
{
    if (isHalted)
        return false;

    if (bytes != nullptr)
        *bytes = OracleBytes();

    const Instruction &si = prog->fetch(currentPc);

    // Reset the slot by copying a blank record, which compiles to a
    // few vector moves; value-initializing it in place
    // (out = DynInst()) compiles to a rep stosq over the whole
    // record, whose start-up cost is paid on every instruction.
    out = blank_record;
    out.seq = ++seqCounter;
    out.pc = currentPc;
    out.si = si;
    out.cls = instClass(si.op);
    out.npc = currentPc + inst_bytes;

    switch (out.cls) {
      case InstClass::Load: {
        const unsigned size = memSize(si.op);
        const Addr addr = regFile[si.ra] +
            static_cast<std::uint64_t>(si.imm);
        out.addr = addr;
        out.size = static_cast<std::uint8_t>(size);
        out.memValue = mem.read(addr, size);
        out.loadValue = extendValue(out.memValue, size,
                                    loadExtend(si.op));

        // Precompute the dependence-oracle summary the timing model
        // consumes: youngest writer, single-writer coverage, and the
        // windowed partial-word classification. The recent-store
        // window here replicates the retirement-side pruning bound
        // exactly (the simulated commit order of the instructions
        // older than this load IS their program order, so membership
        // is identical): a writer store is "recent" iff it is among
        // the last comm_oracle_stores stores.
        const InstSeq floor_seq =
            ssnCounter <= comm_oracle_stores
                ? 1
                : recentStoreSeqs[(ssnCounter + 1) %
                                  comm_oracle_stores];
        std::uint32_t ys_ssn = 0, ys_seq = 0;
        std::uint32_t first_ssn = 0;
        bool single = true;
        bool partial = size < 8;
        for (unsigned i = 0; i < size; ++i) {
            const ByteWriter w = shadow.writer(addr + i);
            if (bytes != nullptr) {
                bytes->writerSsn[i] = w.ssn;
                bytes->writerSeq[i] = w.seq;
            }
            if (i == 0)
                first_ssn = w.ssn;
            else if (w.ssn != first_ssn)
                single = false;
            ys_ssn = std::max(ys_ssn, w.ssn);
            ys_seq = std::max(ys_seq, w.seq);
            if (!partial && w.seq != 0 && w.seq >= floor_seq &&
                w.size < 8) {
                partial = true;
            }
        }
        out.oracleWriterSsn = ys_ssn;
        out.oracleWriterSeq = ys_seq;
        out.oracleSingleWriter = first_ssn != 0 && single;
        out.oraclePartial = partial;
        regFile[si.rd] = out.loadValue;
        break;
      }
      case InstClass::Store: {
        const unsigned size = memSize(si.op);
        const Addr addr = regFile[si.ra] +
            static_cast<std::uint64_t>(si.imm);
        out.addr = addr;
        out.size = static_cast<std::uint8_t>(size);
        out.storeData = regFile[si.rb];
        out.ssn = ++ssnCounter;
        const std::uint64_t raw = storeFpCvt(si.op)
            ? regToFp32(out.storeData)
            : out.storeData;
        out.memValue = size == 8
            ? raw : (raw & ((1ull << (size * 8)) - 1));
        mem.write(addr, size, raw);
        shadow.recordStore(addr, size, out.ssn, out.seq);
        recentStoreSeqs[out.ssn % comm_oracle_stores] = out.seq;
        break;
      }
      case InstClass::Branch: {
        bool taken = false;
        Addr target = static_cast<Addr>(si.imm);
        switch (si.op) {
          case Opcode::Beq:
            taken = regFile[si.ra] == regFile[si.rb];
            break;
          case Opcode::Bne:
            taken = regFile[si.ra] != regFile[si.rb];
            break;
          case Opcode::Blt:
            taken = static_cast<std::int64_t>(regFile[si.ra]) <
                static_cast<std::int64_t>(regFile[si.rb]);
            break;
          case Opcode::Bge:
            taken = static_cast<std::int64_t>(regFile[si.ra]) >=
                static_cast<std::int64_t>(regFile[si.rb]);
            break;
          case Opcode::Jmp:
            taken = true;
            break;
          case Opcode::Call:
            taken = true;
            regFile[si.rd] = currentPc + inst_bytes;
            break;
          case Opcode::Ret:
            taken = true;
            target = regFile[si.ra];
            break;
          default:
            nosq_panic("unknown branch opcode");
        }
        out.taken = taken;
        if (taken)
            out.npc = target;
        break;
      }
      default: {
        if (si.op == Opcode::Halt) {
            out.halted = true;
            isHalted = true;
        } else if (si.op != Opcode::Nop) {
            const std::uint64_t result = aluResult(si);
            if (si.rd != reg_zero)
                regFile[si.rd] = result;
        }
        break;
      }
    }

    regFile[reg_zero] = 0;
    currentPc = out.npc;
    return true;
}

TraceStream::TraceStream(std::shared_ptr<const Program> program)
    : func(std::move(program)), ring(initial_capacity),
      mask(initial_capacity - 1)
{
}

TraceStream::TraceStream(const Program &program)
    : TraceStream(std::make_shared<const Program>(program))
{
}

void
TraceStream::pinRecords(std::size_t window)
{
    // Before a fill, the held range [baseSeq, endSeq) spans at most
    // window + rewind_margin - 1 seqs: baseSeq trails the barrier by
    // rewind_margin and the reader holds at most window records past
    // it, so this capacity leaves fill() a free slot every time.
    while (ring.size() < window + rewind_margin)
        grow();
    pinned = true;
}

void
TraceStream::grow()
{
    nosq_assert(!pinned,
                "trace ring grew while a reader references its records");
    // Re-place every held instruction at its seq under the doubled
    // mask; seqs outside [baseSeq, endSeq) are dead slots.
    std::vector<DynInst> bigger(ring.size() * 2);
    const std::size_t bigger_mask = bigger.size() - 1;
    for (InstSeq seq = baseSeq; seq < endSeq; ++seq)
        bigger[seq & bigger_mask] = slot(seq);
    ring.swap(bigger);
    mask = bigger_mask;
}

void
TraceStream::rewindTo(InstSeq seq)
{
    nosq_assert(seq > retired, "rewind past retirement barrier");
    nosq_assert(seq >= baseSeq && seq <= endSeq,
                "rewind target not buffered");
    cursor = seq;
}

} // namespace nosq
