/**
 * @file
 * Tests for the shared synthesized-program cache: key identity,
 * fingerprint sensitivity, concurrent access, and the copy-on-write
 * sharing of a cached program's data image by the cores that run it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ooo/core.hh"
#include "sim/report.hh"
#include "workload/functional.hh"
#include "workload/generator.hh"
#include "workload/program_cache.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace {

TEST(ProgramCache, SameKeyReturnsSameObject)
{
    ProgramCache cache;
    const BenchmarkProfile *gcc = findProfile("gcc");
    ASSERT_NE(gcc, nullptr);

    const auto a = cache.get(*gcc, 1);
    const auto b = cache.get(*gcc, 1);
    EXPECT_EQ(a.get(), b.get()); // shared, not equal-but-distinct
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(ProgramCache, DistinctSeedsAndProfilesAreDistinctEntries)
{
    ProgramCache cache;
    const BenchmarkProfile *gcc = findProfile("gcc");
    const BenchmarkProfile *g721 = findProfile("g721.e");
    ASSERT_NE(gcc, nullptr);
    ASSERT_NE(g721, nullptr);

    const auto a = cache.get(*gcc, 1);
    const auto b = cache.get(*gcc, 2);
    const auto c = cache.get(*g721, 1);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.size(), 3u);
}

TEST(ProgramCache, CachedProgramMatchesDirectSynthesis)
{
    ProgramCache cache;
    const BenchmarkProfile *gcc = findProfile("gcc");
    ASSERT_NE(gcc, nullptr);

    const auto cached = cache.get(*gcc, 7);
    const Program direct = synthesize(*gcc, 7);
    ASSERT_EQ(cached->code.size(), direct.code.size());
    EXPECT_EQ(cached->entryPc, direct.entryPc);
    for (std::size_t i = 0; i < direct.code.size(); ++i) {
        EXPECT_EQ(cached->code[i].op, direct.code[i].op) << i;
        EXPECT_EQ(cached->code[i].imm, direct.code[i].imm) << i;
    }
    EXPECT_EQ(cached->image.numPages(), direct.image.numPages());
    EXPECT_TRUE(cached->image == direct.image);
}

TEST(ProgramCache, FingerprintCoversFieldsNotJustName)
{
    const BenchmarkProfile *gcc = findProfile("gcc");
    ASSERT_NE(gcc, nullptr);
    BenchmarkProfile tweaked = *gcc; // same name, different knob
    tweaked.pctComm = gcc->pctComm + 1.0;
    EXPECT_NE(profileFingerprint(*gcc),
              profileFingerprint(tweaked));
    EXPECT_EQ(profileFingerprint(*gcc), profileFingerprint(*gcc));

    ProgramCache cache;
    const auto a = cache.get(*gcc, 1);
    const auto b = cache.get(tweaked, 1);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCache, ConcurrentSameKeySynthesizesOnce)
{
    ProgramCache cache;
    const BenchmarkProfile *gcc = findProfile("gcc");
    ASSERT_NE(gcc, nullptr);

    constexpr unsigned num_threads = 8;
    std::vector<const Program *> seen(num_threads, nullptr);
    std::vector<std::shared_ptr<const Program>> hold(num_threads);
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            hold[t] = cache.get(*gcc, 1);
            seen[t] = hold[t].get();
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (unsigned t = 1; t < num_threads; ++t)
        EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u); // exactly one synthesis
    EXPECT_EQ(cache.hits(), num_threads - 1);
}

TEST(ProgramCache, ConcurrentDistinctKeysAllComplete)
{
    ProgramCache cache;
    const auto &profiles = allProfiles();
    constexpr unsigned num_threads = 6;
    std::vector<std::thread> threads;
    std::atomic<unsigned> ok{0};
    for (unsigned t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            // Overlapping key sets across threads.
            for (unsigned i = 0; i < 4; ++i) {
                const auto &p = profiles[(t + i) % 8];
                const auto prog = cache.get(p, 1 + i % 2);
                if (prog != nullptr && prog->numInsts() > 0)
                    ++ok;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(ok.load(), num_threads * 4);
    // Every get() was either the synthesizing miss or a waiter hit.
    EXPECT_EQ(cache.hits() + cache.misses(), num_threads * 4);
    EXPECT_EQ(cache.size(), cache.misses());
}

TEST(ProgramCache, ClearResetsState)
{
    ProgramCache cache;
    const BenchmarkProfile *gcc = findProfile("gcc");
    ASSERT_NE(gcc, nullptr);
    const auto held = cache.get(*gcc, 1); // survives the clear
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_GT(held->numInsts(), 0u);
    const auto fresh = cache.get(*gcc, 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_NE(fresh.get(), held.get());
}

/**
 * Distinct pages the first @p insts instructions of @p prog store
 * to. Checks on the way that a FunctionalSim privately owns exactly
 * those pages of its memory.
 */
std::size_t
storePagesTouched(std::shared_ptr<const Program> prog,
                  std::uint64_t insts)
{
    FunctionalSim func(std::move(prog));
    std::set<Addr> pages;
    DynInst di;
    for (std::uint64_t i = 0; i < insts && func.step(di); ++i) {
        if (!di.isStore())
            continue;
        pages.insert(di.addr >> SparseMemory::page_bits);
        pages.insert((di.addr + di.size - 1) >> SparseMemory::page_bits);
    }
    EXPECT_EQ(func.memory().ownedPages(), pages.size());
    return pages.size();
}

TEST(ProgramCache, CoreOwnsOnlyThePagesItsStoresWrite)
{
    ProgramCache cache;
    const BenchmarkProfile *gap = findProfile("gap");
    ASSERT_NE(gap, nullptr);
    const auto prog = cache.get(*gap, 1);
    ASSERT_GT(prog->image.numPages(), 1000u); // a 4 MB data segment

    // Construction shares every page of the image and copies none.
    OooCore core(makeParams(LsuMode::Nosq), prog);
    EXPECT_EQ(core.committedMemory().numPages(), prog->image.numPages());
    EXPECT_EQ(core.committedMemory().ownedPages(), 0u);
    EXPECT_EQ(prog->image.ownedPages(), 0u);

    const SimResult r = core.run(20000);
    const std::size_t touched = storePagesTouched(prog, r.insts);
    EXPECT_GT(core.committedMemory().ownedPages(), 0u);
    EXPECT_LE(core.committedMemory().ownedPages(), touched);
    EXPECT_LT(touched, prog->image.numPages() / 10);
}

TEST(ProgramCache, ConcurrentCoresOverOneImageMatchSerial)
{
    ProgramCache cache;
    const BenchmarkProfile *gap = findProfile("gap");
    ASSERT_NE(gap, nullptr);
    const auto prog = cache.get(*gap, 1);
    const std::vector<LsuMode> modes = {
        LsuMode::SqPerfect, LsuMode::SqStoreSets, LsuMode::Nosq,
        LsuMode::NosqPerfect};
    constexpr std::uint64_t insts = 20000;

    std::vector<std::string> serial;
    std::vector<SparseMemory> serialImages;
    for (const LsuMode mode : modes) {
        OooCore core(makeParams(mode), prog);
        serial.push_back(toJson(core.run(insts)));
        serialImages.push_back(core.committedMemory());
    }

    std::vector<std::string> threaded(modes.size());
    std::vector<SparseMemory> threadedImages(modes.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < modes.size(); ++t) {
        threads.emplace_back([&, t] {
            OooCore core(makeParams(modes[t]), prog);
            threaded[t] = toJson(core.run(insts));
            threadedImages[t] = core.committedMemory();
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (std::size_t t = 0; t < modes.size(); ++t) {
        EXPECT_EQ(threaded[t], serial[t]) << lsuModeName(modes[t]);
        EXPECT_TRUE(threadedImages[t] == serialImages[t])
            << lsuModeName(modes[t]);
    }
    // No core wrote the shared image: it still matches a freshly
    // synthesized one (whose pages share nothing with it).
    EXPECT_TRUE(prog->image == synthesize(*gap, 1).image);

    // Every sharer's reference was returned.
    serialImages.clear();
    threadedImages.clear();
    EXPECT_EQ(prog->image.ownedPages(), prog->image.numPages());
}

} // anonymous namespace
} // namespace nosq
