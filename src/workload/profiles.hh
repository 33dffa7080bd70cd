/**
 * @file
 * Per-benchmark workload profiles.
 *
 * One profile per benchmark in the paper's Table 5 (18 MediaBench,
 * 16 SPECint, 13 SPECfp). Each profile records the paper's measured
 * communication targets (Table 5's left columns) plus a behavioural
 * character -- which communication kernels dominate, how much
 * hard-to-predict communication exists, cache footprints, and branch
 * noise -- chosen from what the paper says about each benchmark
 * (e.g., g721.e's partial-store communication, eon/vpr/sixtrack/mesa's
 * hard-to-predict loads, mcf's very low baseline IPC).
 */

#ifndef NOSQ_WORKLOAD_PROFILES_HH
#define NOSQ_WORKLOAD_PROFILES_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nosq {

/** Benchmark suite grouping used for the paper's averages. */
enum class Suite : std::uint8_t { Media, Int, Fp };

const char *suiteName(Suite suite);

/** The inverse of suiteName(); false for an unknown name. */
bool suiteFromName(const std::string &name, Suite &out);

/** Workload synthesis targets and character for one benchmark. */
struct BenchmarkProfile
{
    const char *name;
    Suite suite;

    // --- Table 5 targets (percent of committed loads) ---------------
    double pctComm;    // any in-window communication
    double pctPartial; // partial-word communication

    // --- communication composition (relative weights) ----------------
    double wSpill = 1;  // StackSpill (full word)
    double wLoop = 0;   // LoopCarried (full word)
    double wPath = 0;   // PathDep (full word)
    double wCall = 0;   // Callsite (full word)
    double wData = 0;   // DataDep (full word, hard to predict)
    double wStruct = 1; // StructCopy (partial word)
    double wMemcpy = 0; // MemcpyByte (partial word, multi-writer)
    double wFpcvt = 0;  // FpConvert (partial word, float convert)

    // --- background mix ----------------------------------------------
    double wStream = 1;       // share of non-comm loads via Stream
    double wChase = 0;        // share via PointerChase
    double computePerCall = 1;  // Compute calls per memory-kernel call
    unsigned streamFootprintLog2 = 16;
    unsigned chaseFootprintLog2 = 22;
    double branchNoise = 0.0; // data-dependent branch frequency knob
    bool fpFlavor = false;
    unsigned codeBloat = 1;   // static code replication factor

    // --- reporting ----------------------------------------------------
    bool selected = false; // member of the Fig. 3/4/5 subset
    double idealIpc = 0;   // paper's printed ideal-baseline IPC
};

/** All 47 benchmark profiles in the paper's Table 5 order. */
const std::vector<BenchmarkProfile> &allProfiles();

/** Find by name; nullptr if missing. */
const BenchmarkProfile *findProfile(const std::string &name);

/** Profiles in the Fig. 3/4/5 selected subset, in paper order. */
std::vector<const BenchmarkProfile *> selectedProfiles();

} // namespace nosq

#endif // NOSQ_WORKLOAD_PROFILES_HH
