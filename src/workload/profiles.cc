#include "workload/profiles.hh"

namespace nosq {

const char *
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::Media: return "MediaBench";
      case Suite::Int: return "SPECint";
      case Suite::Fp: return "SPECfp";
    }
    return "???";
}

bool
suiteFromName(const std::string &name, Suite &out)
{
    for (const Suite s : {Suite::Media, Suite::Int, Suite::Fp}) {
        if (name == suiteName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

namespace {

using S = Suite;

/**
 * The 47 benchmarks of Table 5. pctComm / pctPartial are the paper's
 * measured targets. The remaining knobs encode each benchmark's
 * character:
 *  - wData raises hard-to-predict communication (the paper's high
 *    mispredictions-per-10k benchmarks: mesa, gs.d, eon, vpr,
 *    sixtrack);
 *  - wMemcpy produces multi-writer partial-store communication
 *    (g721.e's "two 1-byte stores to a 2-byte load");
 *  - wChase/chaseFootprintLog2 pull IPC down via dependent misses
 *    (mcf, art, equake, ammp, vpr.r);
 *  - computePerCall/streamFootprintLog2 push IPC up (gsm.e, mpeg2.d);
 *  - codeBloat spreads static code (gcc, eon, perl, vortex).
 *
 * Designated initializers appear in declaration order:
 * wSpill wLoop wPath wCall wData wStruct wMemcpy wFpcvt wStream
 * wChase computePerCall streamFootprintLog2 chaseFootprintLog2
 * branchNoise fpFlavor codeBloat selected idealIpc.
 */
const std::vector<BenchmarkProfile> profiles_table = {
    // ---------------- MediaBench ------------------------------------
    {.name = "adpcm.d", .suite = S::Media, .pctComm = 0.0,
     .pctPartial = 0.0, .wSpill = 0, .wStruct = 0,
     .computePerCall = 2.0, .streamFootprintLog2 = 14,
     .idealIpc = 2.00},
    {.name = "adpcm.e", .suite = S::Media, .pctComm = 0.0,
     .pctPartial = 0.0, .wSpill = 0, .wStruct = 0,
     .computePerCall = 1.0, .streamFootprintLog2 = 16,
     .branchNoise = 0.2, .idealIpc = 1.47},
    {.name = "epic.e", .suite = S::Media, .pctComm = 8.4,
     .pctPartial = 1.9, .wSpill = 2, .wLoop = 1,
     .computePerCall = 2.5, .streamFootprintLog2 = 14,
     .idealIpc = 2.99},
    {.name = "epic.d", .suite = S::Media, .pctComm = 17.0,
     .pctPartial = 5.0, .wSpill = 2, .wLoop = 1, .wData = 0.2,
     .computePerCall = 1.5, .streamFootprintLog2 = 15,
     .idealIpc = 2.23},
    {.name = "g721.d", .suite = S::Media, .pctComm = 6.3,
     .pctPartial = 4.7, .wSpill = 1, .wStruct = 2,
     .computePerCall = 2.0, .streamFootprintLog2 = 14,
     .idealIpc = 2.48},
    {.name = "g721.e", .suite = S::Media, .pctComm = 6.9,
     .pctPartial = 5.8, .wSpill = 1, .wStruct = 1, .wMemcpy = 0.4,
     .computePerCall = 2.0, .streamFootprintLog2 = 14,
     .selected = true, .idealIpc = 2.33},
    {.name = "gs.d", .suite = S::Media, .pctComm = 12.3,
     .pctPartial = 8.0, .wSpill = 1, .wData = 0.8, .wStruct = 2,
     .wMemcpy = 0.3, .computePerCall = 2.0, .streamFootprintLog2 = 15,
     .selected = true, .idealIpc = 2.57},
    {.name = "gsm.d", .suite = S::Media, .pctComm = 1.4,
     .pctPartial = 0.3, .wSpill = 1, .computePerCall = 2.5,
     .streamFootprintLog2 = 14, .idealIpc = 3.14},
    {.name = "gsm.e", .suite = S::Media, .pctComm = 1.1,
     .pctPartial = 0.5, .wSpill = 1, .computePerCall = 3.0,
     .streamFootprintLog2 = 14, .idealIpc = 3.41},
    {.name = "jpeg.d", .suite = S::Media, .pctComm = 1.1,
     .pctPartial = 0.2, .wSpill = 1, .wData = 0.2,
     .computePerCall = 2.0, .streamFootprintLog2 = 15,
     .idealIpc = 2.55},
    {.name = "jpeg.e", .suite = S::Media, .pctComm = 10.8,
     .pctPartial = 0.2, .wSpill = 2, .wLoop = 1, .wCall = 1,
     .computePerCall = 2.0, .streamFootprintLog2 = 15,
     .idealIpc = 2.49},
    {.name = "mesa.m", .suite = S::Media, .pctComm = 42.7,
     .pctPartial = 18.6, .wSpill = 2, .wCall = 1, .wData = 0.6,
     .wStruct = 3, .wMemcpy = 0.3, .computePerCall = 1.2,
     .streamFootprintLog2 = 14, .idealIpc = 2.61},
    {.name = "mesa.o", .suite = S::Media, .pctComm = 48.0,
     .pctPartial = 19.0, .wSpill = 2, .wCall = 1, .wData = 0.5,
     .wStruct = 3, .wMemcpy = 0.3, .computePerCall = 1.5,
     .streamFootprintLog2 = 14, .selected = true, .idealIpc = 2.86},
    {.name = "mesa.t", .suite = S::Media, .pctComm = 32.3,
     .pctPartial = 15.4, .wSpill = 2, .wCall = 1, .wData = 0.4,
     .wStruct = 3, .wMemcpy = 0.3, .computePerCall = 1.4,
     .streamFootprintLog2 = 14, .idealIpc = 2.72},
    {.name = "mpeg2.d", .suite = S::Media, .pctComm = 24.3,
     .pctPartial = 0.4, .wSpill = 3, .wLoop = 1, .wCall = 1,
     .computePerCall = 2.5, .streamFootprintLog2 = 14,
     .selected = true, .idealIpc = 3.41},
    {.name = "mpeg2.e", .suite = S::Media, .pctComm = 4.4,
     .pctPartial = 0.6, .wSpill = 2, .computePerCall = 2.2,
     .streamFootprintLog2 = 14, .idealIpc = 2.83},
    {.name = "pegwit.d", .suite = S::Media, .pctComm = 6.4,
     .pctPartial = 6.3, .wSpill = 0.1, .wStruct = 3, .wMemcpy = 0.2,
     .computePerCall = 1.5, .streamFootprintLog2 = 14,
     .idealIpc = 2.03},
    {.name = "pegwit.e", .suite = S::Media, .pctComm = 5.6,
     .pctPartial = 4.7, .wSpill = 0.3, .wStruct = 3, .wMemcpy = 0.2,
     .computePerCall = 1.5, .streamFootprintLog2 = 14,
     .selected = true, .idealIpc = 2.05},

    // ---------------- SPECint ---------------------------------------
    {.name = "bzip2", .suite = S::Int, .pctComm = 8.8,
     .pctPartial = 5.9, .wSpill = 1, .wData = 0.25, .wStruct = 2,
     .wMemcpy = 0.2, .computePerCall = 1.5,
     .streamFootprintLog2 = 16, .branchNoise = 0.2,
     .idealIpc = 2.14},
    {.name = "crafty", .suite = S::Int, .pctComm = 2.8,
     .pctPartial = 1.9, .wSpill = 1, .wData = 0.2, .wStruct = 2,
     .computePerCall = 1.8, .streamFootprintLog2 = 15,
     .branchNoise = 0.3, .codeBloat = 2, .idealIpc = 2.01},
    {.name = "eon.c", .suite = S::Int, .pctComm = 20.4,
     .pctPartial = 3.2, .wSpill = 2, .wPath = 1, .wCall = 1.5,
     .wData = 0.7, .wStruct = 2, .computePerCall = 1.5,
     .streamFootprintLog2 = 15, .branchNoise = 0.2, .codeBloat = 2,
     .idealIpc = 2.13},
    {.name = "eon.k", .suite = S::Int, .pctComm = 15.4,
     .pctPartial = 1.7, .wSpill = 2, .wPath = 1, .wCall = 1.5,
     .wData = 0.7, .wStruct = 1.5, .computePerCall = 1.3,
     .streamFootprintLog2 = 15, .branchNoise = 0.2, .codeBloat = 2,
     .selected = true, .idealIpc = 1.89},
    {.name = "eon.r", .suite = S::Int, .pctComm = 17.3,
     .pctPartial = 2.5, .wSpill = 2, .wPath = 1, .wCall = 1.5,
     .wData = 0.7, .wStruct = 2, .computePerCall = 1.4,
     .streamFootprintLog2 = 15, .branchNoise = 0.2, .codeBloat = 2,
     .idealIpc = 2.01},
    {.name = "gap", .suite = S::Int, .pctComm = 8.1,
     .pctPartial = 0.2, .wSpill = 2, .wLoop = 1, .wCall = 0.5,
     .wChase = 0.3, .computePerCall = 0.7,
     .streamFootprintLog2 = 17, .branchNoise = 0.1,
     .selected = true, .idealIpc = 1.24},
    {.name = "gcc", .suite = S::Int, .pctComm = 7.7,
     .pctPartial = 1.4, .wSpill = 1.5, .wPath = 1, .wCall = 1,
     .wData = 0.4, .wStruct = 1.5, .computePerCall = 1.0,
     .streamFootprintLog2 = 17, .branchNoise = 0.4, .codeBloat = 4,
     .idealIpc = 1.54},
    {.name = "gzip", .suite = S::Int, .pctComm = 15.0,
     .pctPartial = 8.7, .wSpill = 1.5, .wLoop = 0.5, .wStruct = 3,
     .wMemcpy = 0.3, .computePerCall = 1.5,
     .streamFootprintLog2 = 16, .branchNoise = 0.1,
     .selected = true, .idealIpc = 2.04},
    {.name = "mcf", .suite = S::Int, .pctComm = 0.9,
     .pctPartial = 0.1, .wSpill = 1, .wData = 0.3, .wStruct = 1,
     .wStream = 0.2, .wChase = 1.5, .computePerCall = 0.3,
     .chaseFootprintLog2 = 22, .branchNoise = 0.3,
     .idealIpc = 0.22},
    {.name = "parser", .suite = S::Int, .pctComm = 8.2,
     .pctPartial = 2.6, .wSpill = 1.5, .wPath = 0.8, .wData = 0.3,
     .wStruct = 2, .wChase = 0.3, .computePerCall = 0.8,
     .streamFootprintLog2 = 18, .branchNoise = 0.4,
     .idealIpc = 1.34},
    {.name = "perl.d", .suite = S::Int, .pctComm = 9.9,
     .pctPartial = 1.9, .wSpill = 2, .wPath = 0.6, .wCall = 1.5,
     .wStruct = 1.5, .computePerCall = 0.9,
     .streamFootprintLog2 = 16, .branchNoise = 0.3, .codeBloat = 3,
     .idealIpc = 1.60},
    {.name = "perl.s", .suite = S::Int, .pctComm = 11.5,
     .pctPartial = 2.7, .wSpill = 2, .wPath = 0.6, .wCall = 1.5,
     .wStruct = 1.5, .computePerCall = 0.9,
     .streamFootprintLog2 = 16, .branchNoise = 0.3, .codeBloat = 3,
     .selected = true, .idealIpc = 1.66},
    {.name = "twolf", .suite = S::Int, .pctComm = 6.3,
     .pctPartial = 5.0, .wSpill = 0.3, .wData = 0.25, .wStruct = 3,
     .wChase = 0.2, .computePerCall = 0.8,
     .streamFootprintLog2 = 17, .branchNoise = 0.4,
     .idealIpc = 1.50},
    {.name = "vortex", .suite = S::Int, .pctComm = 17.9,
     .pctPartial = 4.7, .wSpill = 2.5, .wCall = 1, .wStruct = 2,
     .computePerCall = 1.6, .streamFootprintLog2 = 15,
     .branchNoise = 0.1, .codeBloat = 2, .selected = true,
     .idealIpc = 2.33},
    {.name = "vpr.p", .suite = S::Int, .pctComm = 6.3,
     .pctPartial = 4.5, .wSpill = 0.5, .wData = 0.6,
     .wStruct = 2.5, .computePerCall = 1.2,
     .streamFootprintLog2 = 16, .branchNoise = 0.3,
     .selected = true, .idealIpc = 1.78},
    {.name = "vpr.r", .suite = S::Int, .pctComm = 17.0,
     .pctPartial = 5.6, .wSpill = 1.5, .wPath = 1, .wData = 0.5,
     .wStruct = 2, .wChase = 0.4, .computePerCall = 0.5,
     .streamFootprintLog2 = 18, .branchNoise = 0.3,
     .idealIpc = 1.06},

    // ---------------- SPECfp ----------------------------------------
    {.name = "ammp", .suite = S::Fp, .pctComm = 4.1,
     .pctPartial = 0.1, .wSpill = 1, .wLoop = 1, .wStream = 0.6,
     .wChase = 0.8, .computePerCall = 0.5,
     .chaseFootprintLog2 = 22, .fpFlavor = true, .idealIpc = 0.92},
    {.name = "applu", .suite = S::Fp, .pctComm = 4.9,
     .pctPartial = 0.0, .wSpill = 0.5, .wLoop = 2,
     .computePerCall = 0.8, .streamFootprintLog2 = 18,
     .fpFlavor = true, .selected = true, .idealIpc = 1.47},
    {.name = "apsi", .suite = S::Fp, .pctComm = 3.8,
     .pctPartial = 0.5, .wSpill = 1, .wLoop = 1, .wFpcvt = 1,
     .computePerCall = 1.0, .streamFootprintLog2 = 17,
     .fpFlavor = true, .selected = true, .idealIpc = 1.58},
    {.name = "art", .suite = S::Fp, .pctComm = 1.4,
     .pctPartial = 0.4, .wSpill = 1, .wFpcvt = 1, .wStream = 0.4,
     .wChase = 1.5, .computePerCall = 0.2,
     .chaseFootprintLog2 = 23, .fpFlavor = true, .idealIpc = 0.46},
    {.name = "equake", .suite = S::Fp, .pctComm = 3.2,
     .pctPartial = 0.1, .wSpill = 1, .wLoop = 1, .wStream = 0.5,
     .wChase = 1.0, .computePerCall = 0.3,
     .chaseFootprintLog2 = 22, .fpFlavor = true, .idealIpc = 0.69},
    {.name = "facerec", .suite = S::Fp, .pctComm = 0.8,
     .pctPartial = 0.6, .wSpill = 0.5, .wFpcvt = 2,
     .computePerCall = 1.2, .streamFootprintLog2 = 17,
     .fpFlavor = true, .idealIpc = 1.81},
    {.name = "galgel", .suite = S::Fp, .pctComm = 0.5,
     .pctPartial = 0.0, .wSpill = 1, .computePerCall = 2.2,
     .streamFootprintLog2 = 14, .fpFlavor = true, .idealIpc = 2.59},
    {.name = "lucas", .suite = S::Fp, .pctComm = 0.0,
     .pctPartial = 0.0, .wSpill = 0, .wStruct = 0,
     .computePerCall = 2.2, .streamFootprintLog2 = 14,
     .fpFlavor = true, .idealIpc = 2.56},
    {.name = "mesa", .suite = S::Fp, .pctComm = 12.1,
     .pctPartial = 1.7, .wSpill = 2, .wCall = 1, .wData = 0.15,
     .wStruct = 1.5, .computePerCall = 2.0,
     .streamFootprintLog2 = 14, .fpFlavor = true, .idealIpc = 2.97},
    {.name = "mgrid", .suite = S::Fp, .pctComm = 1.2,
     .pctPartial = 0.0, .wSpill = 0.5, .wLoop = 1,
     .computePerCall = 1.8, .streamFootprintLog2 = 15,
     .fpFlavor = true, .idealIpc = 2.60},
    {.name = "sixtrack", .suite = S::Fp, .pctComm = 9.4,
     .pctPartial = 1.0, .wSpill = 1, .wPath = 1.2, .wCall = 1.5,
     .wData = 0.6, .wStruct = 1, .computePerCall = 1.5,
     .streamFootprintLog2 = 15, .fpFlavor = true, .codeBloat = 2,
     .selected = true, .idealIpc = 2.32},
    {.name = "swim", .suite = S::Fp, .pctComm = 2.9,
     .pctPartial = 0.0, .wSpill = 0.3, .wLoop = 1,
     .computePerCall = 1.0, .streamFootprintLog2 = 17,
     .fpFlavor = true, .idealIpc = 1.84},
    {.name = "wupwise", .suite = S::Fp, .pctComm = 5.5,
     .pctPartial = 0.8, .wSpill = 1, .wLoop = 1, .wCall = 0.5,
     .wFpcvt = 0.5, .computePerCall = 1.6,
     .streamFootprintLog2 = 15, .fpFlavor = true, .selected = true,
     .idealIpc = 2.49},
};

} // anonymous namespace

const std::vector<BenchmarkProfile> &
allProfiles()
{
    return profiles_table;
}

const BenchmarkProfile *
findProfile(const std::string &name)
{
    for (const auto &p : profiles_table)
        if (name == p.name)
            return &p;
    return nullptr;
}

std::vector<const BenchmarkProfile *>
selectedProfiles()
{
    std::vector<const BenchmarkProfile *> out;
    for (const auto &p : profiles_table)
        if (p.selected)
            out.push_back(&p);
    return out;
}

} // namespace nosq
