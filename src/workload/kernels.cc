#include "workload/kernels.hh"

#include <cstring>
#include <numeric>

#include "common/logging.hh"

namespace nosq {

namespace {

/** Scratch registers available to every kernel body. */
constexpr RegIndex r8 = 8, r9 = 9, r10 = 10, r11 = 11, r12 = 12,
    r13 = 13, r14 = 14, r15 = 15, r16 = 16, r17 = 17, r18 = 18,
    r19 = 19;

/** Inner (nested) link register; reg_lr is the outer link. */
constexpr RegIndex inner_lr = 3;

std::uint64_t
dbits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

} // anonymous namespace

const char *
kernelKindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::StackSpill: return "stack_spill";
      case KernelKind::StructCopy: return "struct_copy";
      case KernelKind::MemcpyByte: return "memcpy_byte";
      case KernelKind::LoopCarried: return "loop_carried";
      case KernelKind::PathDep: return "path_dep";
      case KernelKind::Callsite: return "callsite";
      case KernelKind::DataDep: return "data_dep";
      case KernelKind::FpConvert: return "fp_convert";
      case KernelKind::Stream: return "stream";
      case KernelKind::PointerChase: return "pointer_chase";
      case KernelKind::Compute: return "compute";
    }
    return "???";
}

KernelCounts
kernelCounts(KernelKind kind, const KernelParams &params)
{
    KernelCounts c;
    switch (kind) {
      case KernelKind::StackSpill:
        c = {20, 4, 4, 4, 0};
        break;
      case KernelKind::StructCopy:
        c = {21, 5, 8, 5, 4};
        break;
      case KernelKind::MemcpyByte:
        c = {13, 2, 4, 2, 2};
        break;
      case KernelKind::LoopCarried: {
        const unsigned iters = params.iters ? params.iters : 6;
        c.insts = 4.0 + iters * 12.0;
        c.loads = iters;
        c.stores = iters;
        c.commLoads = iters - 1.5; // call-boundary iterations vary
        c.partialCommLoads = 0;
        break;
      }
      case KernelKind::PathDep:
        c = {11, 1, 1.5, 1, 0};
        break;
      case KernelKind::Callsite:
        c = {22, 2, 3, 2, 0};
        break;
      case KernelKind::DataDep:
        c = {16.0 + params.branchNoise * 6.0, 1, 1, 0.6, 0};
        break;
      case KernelKind::FpConvert:
        c = {7, 1, 1, 1, 1};
        break;
      case KernelKind::Stream: {
        const unsigned iters = params.iters ? params.iters : 4;
        c.insts = 4.0 + iters * 9.0;
        c.loads = iters;
        c.stores = iters;
        break;
      }
      case KernelKind::PointerChase: {
        const unsigned iters = params.iters ? params.iters : 4;
        c.insts = 1.0 + iters;
        c.loads = iters;
        break;
      }
      case KernelKind::Compute:
        c.insts = 15 + params.branchNoise * 7.0;
        break;
    }
    return c;
}

WorkloadBuilder::WorkloadBuilder(std::uint64_t seed)
    : rng(seed)
{
}

Addr
WorkloadBuilder::allocData(std::size_t bytes)
{
    // 64-byte align every region so regions never share cache lines.
    const Addr base = dataBrk;
    dataBrk += (bytes + 63) & ~std::size_t(63);
    return base;
}

RegIndex
WorkloadBuilder::allocPersistentReg()
{
    nosq_assert(nextPersistent < num_arch_regs,
                "out of persistent registers");
    return nextPersistent++;
}

std::string
WorkloadBuilder::uniqueLabel(const std::string &stem)
{
    return "k" + std::to_string(labelCounter++) + "_" + stem;
}

std::size_t
WorkloadBuilder::addKernel(KernelKind kind, const KernelParams &params)
{
    PendingKernel k;
    k.kind = kind;
    k.params = params;
    k.inst.kind = kind;
    k.inst.entryLabel = uniqueLabel(kernelKindName(kind));
    k.inst.perCall = kernelCounts(kind, params);
    // branchNoise is the probability that this *instance* contains a
    // data-dependent branch; a 50%-taken branch in every call would
    // be far noisier than any real benchmark.
    k.noisyBranch = params.branchNoise > 0 &&
        rng.chance(params.branchNoise);

    auto persistent = [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            k.pregs.push_back(allocPersistentReg());
    };

    switch (kind) {
      case KernelKind::StackSpill:
        persistent(1);
        k.initValues = {rng.range(1, 1000)};
        break;
      case KernelKind::StructCopy:
        persistent(1);
        k.initValues = {rng.range(1, 1000)};
        k.regions = {allocData(32), allocData(32)};
        break;
      case KernelKind::MemcpyByte:
        persistent(1);
        k.initValues = {rng.range(1, 1000)};
        k.regions = {allocData(8)};
        break;
      case KernelKind::LoopCarried:
        persistent(2); // i, multiplier
        k.initValues = {0, params.fpFlavor
                        ? dbits(1.0000001)
                        : 0x5851'f42d'4c95'7f2dull};
        k.regions = {allocData(64 * 8)};
        break;
      case KernelKind::PathDep:
        persistent(2); // ctr, acc
        k.initValues = {0, rng.range(1, 100)};
        k.regions = {allocData(16)};
        break;
      case KernelKind::Callsite:
        persistent(1); // acc
        k.initValues = {rng.range(1, 100)};
        k.regions = {allocData(16)};
        break;
      case KernelKind::DataDep:
        persistent(3); // lcg state, acc, ring write pointer
        k.initValues = {rng.next() | 1, 0, 0};
        k.regions = {allocData(8 * 8)};
        break;
      case KernelKind::FpConvert:
        persistent(2); // accumulator, multiplier (double bits)
        k.initValues = {dbits(1.5), dbits(1.0000002)};
        k.regions = {allocData(8)};
        break;
      case KernelKind::Stream:
        persistent(1); // index
        k.initValues = {0};
        k.regions = {allocData(std::size_t(1) << params.footprintLog2),
                     allocData(std::size_t(1) << params.footprintLog2)};
        break;
      case KernelKind::PointerChase:
        persistent(4); // four chase chains
        k.regions = {allocData(std::size_t(1) << params.footprintLog2)};
        // Chain start addresses patched in emitInit once the
        // permutation is built.
        k.initValues = {k.regions[0], k.regions[0], k.regions[0],
                        k.regions[0]};
        break;
      case KernelKind::Compute:
        persistent(2);
        k.initValues = {rng.range(1, 1 << 20),
                        params.fpFlavor ? dbits(1.0000003)
                                        : (rng.next() | 1)};
        break;
    }

    kernels.push_back(std::move(k));
    return kernels.size() - 1;
}

const KernelInstance &
WorkloadBuilder::instance(std::size_t id) const
{
    nosq_assert(id < kernels.size(), "bad kernel id");
    return kernels[id].inst;
}

void
WorkloadBuilder::emitInit(PendingKernel &k)
{
    auto &b = builder;
    // Region data images first: some kinds patch initValues.
    switch (k.kind) {
      case KernelKind::LoopCarried:
        b.initWords(k.regions[0], 64, [&](std::size_t) {
            return k.params.fpFlavor ? dbits(1.0 + rng.uniform() * 0.01)
                                     : rng.next();
        });
        break;
      case KernelKind::DataDep:
        b.initWords(k.regions[0], 8,
                    [&](std::size_t) { return rng.next(); });
        break;
      case KernelKind::Stream:
        b.initWords(k.regions[0],
                    (std::size_t(1) << k.params.footprintLog2) / 8,
                    [&](std::size_t) { return rng.next(); });
        break;
      case KernelKind::PointerChase: {
        // Build one random cycle through all slots (sattolo shuffle)
        // so the chase visits the entire footprint: slot perm[i]
        // links to perm[i+1] and the last slot back to perm[0].
        nosq_assert(k.params.footprintLog2 >= 3 &&
                        k.params.footprintLog2 < 35,
                    "pointer-chase footprint out of range");
        const std::uint32_t n = std::uint32_t(1)
                                << (k.params.footprintLog2 - 3);
        std::vector<std::uint32_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0u);
        for (std::uint32_t i = n - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.below(i)]);
        std::vector<std::uint32_t> succ(n);
        for (std::uint32_t i = 0; i + 1 < n; ++i)
            succ[perm[i]] = perm[i + 1];
        succ[perm[n - 1]] = perm[0];
        // Write the image in address order: slot s holds the address
        // of its successor.
        const Addr base = k.regions[0];
        b.initWords(base, n, [&](std::size_t slot) {
            return base + Addr(succ[slot]) * 8;
        });
        // Start the four chains a quarter cycle apart.
        k.initValues = {base + Addr(perm[0]) * 8,
                        base + Addr(perm[n / 4]) * 8,
                        base + Addr(perm[n / 2]) * 8,
                        base + Addr(perm[3 * n / 4]) * 8};
        break;
      }
      default:
        break;
    }

    // Load persistent register initial values.
    for (std::size_t i = 0; i < k.pregs.size(); ++i) {
        const std::uint64_t v =
            (i < k.initValues.size()) ? k.initValues[i] : 0;
        b.li(k.pregs[i], static_cast<std::int64_t>(v));
    }
}

void
WorkloadBuilder::emitBody(PendingKernel &k)
{
    switch (k.kind) {
      case KernelKind::StackSpill: bodyStackSpill(k); break;
      case KernelKind::StructCopy: bodyStructCopy(k); break;
      case KernelKind::MemcpyByte: bodyMemcpyByte(k); break;
      case KernelKind::LoopCarried: bodyLoopCarried(k); break;
      case KernelKind::PathDep: bodyPathDep(k); break;
      case KernelKind::Callsite: bodyCallsite(k); break;
      case KernelKind::DataDep: bodyDataDep(k); break;
      case KernelKind::FpConvert: bodyFpConvert(k); break;
      case KernelKind::Stream: bodyStream(k); break;
      case KernelKind::PointerChase: bodyPointerChase(k); break;
      case KernelKind::Compute: bodyCompute(k); break;
    }
}

void
WorkloadBuilder::bodyStackSpill(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex acc = k.pregs[0];
    b.label(k.inst.entryLabel);
    b.addi(r8, acc, 1);
    b.addi(r9, acc, 2);
    b.addi(r10, acc, 3);
    b.addi(r11, acc, 4);
    b.addi(reg_sp, reg_sp, -32);
    b.st8(reg_sp, 0, r8);
    b.st8(reg_sp, 8, r9);
    b.st8(reg_sp, 16, r10);
    b.st8(reg_sp, 24, r11);
    b.add(r12, r8, r9);   // overlapped compute
    b.xor_(r13, r10, r11);
    b.ld8(r14, reg_sp, 0);  // spill fills: distances 4..1
    b.ld8(r15, reg_sp, 8);
    b.ld8(r16, reg_sp, 16);
    b.ld8(r17, reg_sp, 24);
    b.add(r18, r14, r15);
    b.add(r19, r16, r17);
    b.add(acc, r18, r19);
    b.addi(reg_sp, reg_sp, 32);
    b.ret();
}

void
WorkloadBuilder::bodyStructCopy(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex acc = k.pregs[0];
    const Addr region_a = k.regions[0];
    const Addr region_b = k.regions[1];
    b.label(k.inst.entryLabel);
    // Fields are 8-byte aligned so each store is the sole writer of
    // its T-SSBF granule (a typical padded struct layout);
    // byte-packed multi-writer behaviour is MemcpyByte's role.
    b.li(r8, static_cast<std::int64_t>(region_a));
    b.addi(r9, acc, 0x1234);
    b.st8(r8, 0, r9);        // A.f0: 8-byte field
    b.srli(r10, r9, 8);
    b.st4(r8, 8, r10);       // A.f1: 4-byte field
    b.srli(r11, r9, 16);
    b.st2(r8, 16, r11);      // A.f2: 2-byte field (own granule)
    b.srli(r12, r9, 24);
    b.st1(r8, 24, r12);      // A.f3: 1-byte field (own granule)
    b.ld8(r13, r8, 0);       // full-word comm, distance 4
    b.ld4u(r14, r8, 8);      // same-size partial, distance 3
    b.ld2s(r15, r8, 16);     // sign-extended partial, distance 2
    b.ld1u(r16, r8, 24);     // partial, distance 1
    b.ld2u(r17, r8, 2);      // narrow read inside f0: shift 2
    b.li(r18, static_cast<std::int64_t>(region_b));
    b.st8(r18, 0, r13);      // write-only destination
    b.st4(r18, 8, r14);
    b.st2(r18, 16, r15);
    b.st1(r18, 24, r16);
    b.add(acc, r13, r17);
    b.ret();
}

void
WorkloadBuilder::bodyMemcpyByte(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex acc = k.pregs[0];
    const Addr region_m = k.regions[0];
    b.label(k.inst.entryLabel);
    b.li(r8, static_cast<std::int64_t>(region_m));
    b.addi(r9, acc, 0x5a);
    b.st1(r8, 0, r9);
    b.srli(r10, r9, 8);
    b.st1(r8, 1, r10);
    b.ld2u(r11, r8, 0);      // two 1-byte stores -> 2-byte load
    b.srli(r12, r9, 16);
    b.st1(r8, 2, r12);
    b.srli(r13, r9, 24);
    b.st1(r8, 3, r13);
    b.ld4u(r14, r8, 0);      // four 1-byte stores -> 4-byte load
    b.add(acc, r11, r14);
    b.ret();
}

void
WorkloadBuilder::bodyLoopCarried(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex idx = k.pregs[0];
    const RegIndex mult = k.pregs[1];
    const Addr region_x = k.regions[0];
    const unsigned iters = k.params.iters ? k.params.iters : 6;
    const std::string loop = uniqueLabel("lc_loop");

    b.label(k.inst.entryLabel);
    b.li(r8, static_cast<std::int64_t>(region_x));
    b.li(r9, static_cast<std::int64_t>(iters));
    b.label(loop);
    b.andi(r10, idx, 63);
    b.slli(r11, r10, 3);
    b.add(r12, r8, r11);     // &X[i]
    b.addi(r13, idx, -2);
    b.andi(r13, r13, 63);
    b.slli(r13, r13, 3);
    b.add(r14, r8, r13);     // &X[i-2]
    b.ld8(r15, r14, 0);      // X[i-2]: distance-2 store instance
    if (k.params.fpFlavor)
        b.fmul(r16, r15, mult);
    else
        b.mul(r16, r15, mult);
    b.st8(r12, 0, r16);      // X[i]
    b.addi(idx, idx, 1);
    b.addi(r9, r9, -1);
    b.bne(r9, reg_zero, loop);
    b.ret();
}

void
WorkloadBuilder::bodyPathDep(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex ctr = k.pregs[0];
    const RegIndex acc = k.pregs[1];
    const Addr region_p = k.regions[0];
    const std::string odd = uniqueLabel("pd_odd");
    const std::string join = uniqueLabel("pd_join");

    b.label(k.inst.entryLabel);
    b.andi(r8, ctr, 1);
    b.li(r10, static_cast<std::int64_t>(region_p));
    b.bne(r8, reg_zero, odd);
    b.addi(r9, acc, 3);      // even path: two stores
    b.st8(r10, 0, r9);
    b.st8(r10, 8, r9);
    b.jmp(join);
    b.label(odd);
    b.addi(r9, acc, 5);      // odd path: one store
    b.st8(r10, 0, r9);
    b.label(join);
    b.ld8(r11, r10, 0);      // distance 2 (even) or 1 (odd)
    b.add(acc, r11, r8);
    b.addi(ctr, ctr, 1);
    b.ret();
}

void
WorkloadBuilder::bodyCallsite(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex acc = k.pregs[0];
    const Addr region_g = k.regions[0];
    const std::string helper = uniqueLabel("cs_helper");
    const std::string reader = uniqueLabel("cs_reader");
    const std::string over = uniqueLabel("cs_over");

    b.label(k.inst.entryLabel);
    b.call(helper, inner_lr);
    b.call(reader, inner_lr);  // site A: distance 1
    b.call(helper, inner_lr);
    b.li(r11, static_cast<std::int64_t>(region_g));
    b.addi(r12, acc, 9);
    b.st8(r11, 8, r12);        // intervening store
    b.call(reader, inner_lr);  // site B: distance 2
    b.ret();
    b.jmp(over); // unreachable guard (keeps fallthrough obvious)

    b.label(helper);
    b.li(r8, static_cast<std::int64_t>(region_g));
    b.addi(r10, acc, 7);
    b.st8(r8, 0, r10);
    b.ret(inner_lr);

    b.label(reader);
    b.li(r8, static_cast<std::int64_t>(region_g));
    b.ld8(r9, r8, 0);          // distance depends on call site
    b.add(acc, acc, r9);
    b.ret(inner_lr);

    b.label(over);
}

void
WorkloadBuilder::bodyDataDep(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex state = k.pregs[0];
    const RegIndex acc = k.pregs[1];
    const RegIndex wptr = k.pregs[2];
    const Addr region_t = k.regions[0];
    b.label(k.inst.entryLabel);
    // Rolling ring write: T[w], w advances each call.
    b.addi(wptr, wptr, 1);
    b.andi(r9, wptr, 7);
    b.slli(r9, r9, 3);
    b.li(r10, static_cast<std::int64_t>(region_t));
    b.add(r11, r10, r9);
    b.addi(r12, acc, 1);
    b.st8(r11, 0, r12);      // T[w]
    // Lagged read: T[w - lag], lag cycles through 2..5 every 8
    // calls. The communication distance therefore varies in a
    // data-driven way the path history cannot see, while the writer
    // is a store from several calls back.
    b.srli(r13, wptr, 3);
    b.andi(r13, r13, 3);
    b.addi(r13, r13, 2);     // lag in [2, 5]
    b.sub(r14, wptr, r13);
    b.andi(r14, r14, 7);
    b.slli(r14, r14, 3);
    b.add(r15, r10, r14);
    b.ld8(r16, r15, 0);      // T[w - lag]: erratic distance
    b.add(acc, acc, r16);
    if (k.noisyBranch) {
        const std::string skip = uniqueLabel("dd_skip");
        // LCG-driven unpredictable branch.
        b.li(r8,
             static_cast<std::int64_t>(0x5851'f42d'4c95'7f2dull));
        b.mul(state, state, r8);
        b.addi(state, state, 0x14057b7e);
        b.andi(r17, state, 32);
        b.bne(r17, reg_zero, skip); // ~50% taken, data dependent
        b.addi(acc, acc, 3);
        b.label(skip);
    }
    b.ret();
}

void
WorkloadBuilder::bodyFpConvert(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex acc = k.pregs[0];
    const RegIndex mult = k.pregs[1];
    const Addr region_f = k.regions[0];
    b.label(k.inst.entryLabel);
    b.fmul(acc, acc, mult);
    b.li(r8, static_cast<std::int64_t>(region_f));
    b.sts(r8, 0, acc);       // float64 -> float32 store
    b.lds(r9, r8, 0);        // float32 -> float64 load (comm, FpCvt)
    b.fadd(r10, r9, acc);
    b.ret();
}

void
WorkloadBuilder::bodyStream(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex idx = k.pregs[0];
    const Addr src = k.regions[0];
    const Addr dst = k.regions[1];
    const unsigned iters = k.params.iters ? k.params.iters : 4;
    const std::uint64_t mask =
        ((std::uint64_t(1) << k.params.footprintLog2) / 8) - 1;
    const std::string loop = uniqueLabel("st_loop");

    b.label(k.inst.entryLabel);
    b.li(r8, static_cast<std::int64_t>(src));
    b.li(r9, static_cast<std::int64_t>(dst));
    b.li(r10, static_cast<std::int64_t>(iters));
    b.label(loop);
    b.andi(r11, idx, static_cast<std::int64_t>(mask));
    b.slli(r12, r11, 3);
    b.add(r13, r8, r12);
    b.ld8(r14, r13, 0);      // read-only source: never communicates
    b.add(r15, r9, r12);
    b.addi(r16, r14, 1);
    b.st8(r15, 0, r16);      // write-only destination
    b.addi(idx, idx, 1);
    b.addi(r10, r10, -1);
    b.bne(r10, reg_zero, loop);
    b.ret();
}

void
WorkloadBuilder::bodyPointerChase(PendingKernel &k)
{
    auto &b = builder;
    // Four independent chains walking the same permutation cycle at
    // different phases: serial within a chain (latency-bound) with
    // memory-level parallelism across chains, like the limited but
    // nonzero MLP of real pointer-chasing codes.
    const unsigned iters = k.params.iters ? k.params.iters : 4;
    b.label(k.inst.entryLabel);
    for (unsigned i = 0; i < iters; ++i) {
        const RegIndex ptr = k.pregs[i % 4];
        b.ld8(ptr, ptr, 0);
    }
    b.ret();
}

void
WorkloadBuilder::bodyCompute(PendingKernel &k)
{
    auto &b = builder;
    const RegIndex acc = k.pregs[0];
    const RegIndex seed = k.pregs[1];
    b.label(k.inst.entryLabel);
    if (k.params.fpFlavor) {
        b.fmul(r8, acc, seed);
        b.fadd(r9, r8, acc);
        b.fmul(r10, r9, seed);
        b.fadd(r11, r10, r8);
        b.addi(r14, acc, 11);    // parallel int chain
        b.xori(r15, r14, 0x3f);
        b.slli(r16, r15, 2);
        b.add(r17, r16, r14);
        b.fmul(r12, r11, seed);
        b.fadd(r13, r12, r9);
        b.or_(r18, r17, r15);
        b.fmul(acc, r13, seed);
        b.add(r19, r18, r17);
        b.xor_(r19, r19, r18);
    } else {
        // Three short independent chains + one off-path multiply:
        // enough ILP that compute-heavy benchmarks approach the
        // 4-wide machine's issue limit.
        b.addi(r8, acc, 123);   // chain A
        b.addi(r12, acc, 7);    // chain B
        b.addi(r16, acc, 31);   // chain C
        b.xor_(r9, r8, seed);
        b.slli(r13, r12, 3);
        b.or_(r17, r16, seed);
        b.add(r10, r9, r8);
        b.xor_(r14, r13, r12);
        b.add(r18, r17, r16);
        b.srli(r11, r10, 3);
        b.add(r15, r14, r13);
        b.xor_(r19, r18, r17);
        b.mul(r9, r10, seed);   // single complex op, off-path
        b.add(acc, r11, r15);
        b.add(acc, acc, r19);
    }
    if (k.noisyBranch) {
        // A genuinely unpredictable branch: LCG-evolve the seed
        // register and test one of its middle bits (the accumulator
        // itself can settle into predictor-friendly cycles).
        const std::string skip = uniqueLabel("cp_skip");
        b.li(r12,
             static_cast<std::int64_t>(0x5851'f42d'4c95'7f2dull));
        b.mul(seed, seed, r12);
        b.addi(seed, seed, 0x2545f491);
        b.srli(r12, seed, 33);
        b.andi(r12, r12, 1);
        b.bne(r12, reg_zero, skip);
        b.addi(acc, acc, 1);
        b.label(skip);
    }
    b.ret();
}

Program
WorkloadBuilder::build(const std::vector<std::size_t> &schedule)
{
    nosq_assert(!consumed, "WorkloadBuilder::build called twice");
    nosq_assert(!schedule.empty(), "empty kernel schedule");
    consumed = true;

    // Prologue: initialize every kernel's persistent state.
    for (auto &k : kernels)
        emitInit(k);

    // The superblock: a fixed call sequence, repeated forever. A
    // static schedule keeps dispatch perfectly predictable so control
    // mis-speculation comes only from kernels that ask for it.
    const std::string top = uniqueLabel("superblock");
    builder.label(top);
    for (const std::size_t id : schedule) {
        nosq_assert(id < kernels.size(), "schedule names bad kernel");
        builder.call(kernels[id].inst.entryLabel);
    }
    builder.jmp(top);

    for (auto &k : kernels)
        emitBody(k);

    return builder.build();
}

} // namespace nosq
