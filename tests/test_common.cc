/**
 * @file
 * Unit tests for the common support library.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/circular_buffer.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/table.hh"

namespace nosq {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all values hit
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.raw(), 3u);
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(3, 2);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.raw(), 0u);
}

TEST(SatCounter, HighThreshold)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.high());
    c.increment();
    c.increment();
    EXPECT_TRUE(c.high());
}

TEST(SatCounter, SevenBitDelayStyle)
{
    // The NoSQ delay confidence counter: 7 bits, initialized above
    // threshold.
    SatCounter c(7, 64);
    EXPECT_TRUE(c.atLeast(32));
    for (int i = 0; i < 40; ++i)
        c.decrement();
    EXPECT_FALSE(c.atLeast(32));
    c.reset();
    EXPECT_EQ(c.raw(), 64u);
}

TEST(SatCounter, IncrementByAmountSaturates)
{
    SatCounter c(4, 0);
    c.increment(100);
    EXPECT_EQ(c.raw(), 15u);
}

TEST(CircularBuffer, FifoOrder)
{
    CircularBuffer<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    EXPECT_EQ(q.popFront(), 1);
    EXPECT_EQ(q.popFront(), 2);
    q.pushBack(4);
    q.pushBack(5);
    q.pushBack(6);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.popFront(), 3);
    EXPECT_EQ(q.popFront(), 4);
    EXPECT_EQ(q.popFront(), 5);
    EXPECT_EQ(q.popFront(), 6);
    EXPECT_TRUE(q.empty());
}

TEST(CircularBuffer, LogicalIndexingOldestFirst)
{
    CircularBuffer<int> q(3);
    q.pushBack(10);
    q.pushBack(20);
    q.popFront();
    q.pushBack(30);
    q.pushBack(40);
    EXPECT_EQ(q.at(0), 20);
    EXPECT_EQ(q.at(1), 30);
    EXPECT_EQ(q.at(2), 40);
    EXPECT_EQ(q.front(), 20);
    EXPECT_EQ(q.back(), 40);
}

TEST(CircularBuffer, PopBackSquashesYoungest)
{
    CircularBuffer<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    q.popBack();
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.back(), 2);
}

TEST(CircularBuffer, WrapsManyTimes)
{
    CircularBuffer<int> q(5);
    for (int i = 0; i < 1000; ++i) {
        q.pushBack(i);
        EXPECT_EQ(q.popFront(), i);
    }
}

/** Counts copies, so a test can tell in-place construction apart. */
struct CopyCounted
{
    static inline int copies = 0;

    CopyCounted() = default;
    CopyCounted(int a_, int b_) : a(a_), b(b_) {}
    CopyCounted(const CopyCounted &o) : a(o.a), b(o.b), tag(o.tag)
    {
        ++copies;
    }
    CopyCounted &
    operator=(const CopyCounted &o)
    {
        a = o.a;
        b = o.b;
        tag = o.tag;
        ++copies;
        return *this;
    }

    int a = 0;
    int b = 0;
    int tag = 7; // default-initialized by every constructor
};

TEST(CircularBuffer, EmplaceBackConstructsInPlace)
{
    CircularBuffer<CopyCounted> q(2);
    q.pushBack(CopyCounted(1, 2)).tag = 99;
    q.popFront();
    q.pushBack(CopyCounted(3, 4));
    q.popFront(); // both slots now hold stale entries

    CopyCounted::copies = 0;
    CopyCounted &x = q.emplaceBack(5, 6);
    CopyCounted &y = q.emplaceBack();
    EXPECT_EQ(CopyCounted::copies, 0);
    EXPECT_EQ(&x, &q.at(0));
    EXPECT_EQ(&y, &q.at(1));
    EXPECT_EQ(x.a, 5);
    EXPECT_EQ(x.b, 6);
    EXPECT_EQ(y.a, 0);
    // The stale tag of the reused slot is gone.
    EXPECT_EQ(x.tag, 7);
    EXPECT_EQ(y.tag, 7);
}

TEST(CircularBuffer, TruncateKeepsOldestAcrossWraparound)
{
    CircularBuffer<int> q(5);
    for (int i = 0; i < 5; ++i)
        q.pushBack(i);
    q.popFront();
    q.popFront();
    q.popFront();
    q.pushBack(5);
    q.pushBack(6);
    q.pushBack(7); // physical slots wrap: [5 6 7 3 4]
    q.truncate(3); // drop the young segment 6, 7
    ASSERT_EQ(q.size(), 3u);
    EXPECT_EQ(q.at(0), 3);
    EXPECT_EQ(q.at(1), 4);
    EXPECT_EQ(q.at(2), 5);
    q.pushBack(8);
    EXPECT_EQ(q.back(), 8);
    EXPECT_EQ(q.at(3), 8);
    q.truncate(0);
    EXPECT_TRUE(q.empty());
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.header({"bench", "ipc"});
    t.row({"gzip", "2.04"});
    t.separator();
    t.row({"mcf", "0.22"});
    const std::string s = t.render();
    EXPECT_NE(s.find("| bench | ipc  |"), std::string::npos);
    EXPECT_NE(s.find("| gzip  | 2.04 |"), std::string::npos);
    EXPECT_NE(s.find("| mcf   | 0.22 |"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPct(12.34), "12.3");
}

} // anonymous namespace
} // namespace nosq
