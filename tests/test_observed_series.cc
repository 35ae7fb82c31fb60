/**
 * @file
 * Unit tests for the in-situ observation store.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/serial.hh"
#include "core/observed_series.hh"

namespace
{

using namespace tdfe;

TEST(ObservedSeries, AppendAndAccess)
{
    ObservedSeries s(2, 2, 3, 100, 101); // locations 2, 4, 6; iters 100, 101
    EXPECT_EQ(s.locEnd(), 6);
    EXPECT_FALSE(s.hasIter(100));

    s.appendRow({1.0, 2.0, 3.0});
    s.appendRow({4.0, 5.0, 6.0});
    EXPECT_TRUE(s.hasIter(100));
    EXPECT_TRUE(s.hasIter(101));
    EXPECT_FALSE(s.hasIter(102));
    EXPECT_EQ(s.iterEnd(), 102);

    EXPECT_DOUBLE_EQ(s.at(2, 100), 1.0);
    EXPECT_DOUBLE_EQ(s.at(6, 101), 6.0);
    EXPECT_EQ(s.seriesAt(4), (std::vector<double>{2.0, 5.0}));
    EXPECT_EQ(s.profileAt(101), (std::vector<double>{4.0, 5.0, 6.0}));
    EXPECT_EQ(s.memoryBytes(), 6 * sizeof(double));
}

TEST(ObservedSeries, LocLattice)
{
    ObservedSeries s(3, 4, 2, 0, 0); // locations 3 and 7
    EXPECT_TRUE(s.hasLoc(3));
    EXPECT_TRUE(s.hasLoc(7));
    EXPECT_FALSE(s.hasLoc(5));
    EXPECT_FALSE(s.hasLoc(11));
    EXPECT_FALSE(s.hasLoc(2));
}

TEST(ObservedSeries, ReservesTheWindowOnce)
{
    ObservedSeries s(0, 1, 2, 10, 12); // rows for iterations 10..12
    EXPECT_EQ(s.reservedBytes(), 0u);
    s.appendRow({1.0, 2.0});
    EXPECT_EQ(s.reservedBytes(), 6 * sizeof(double));
    EXPECT_EQ(s.memoryBytes(), 2 * sizeof(double));
    s.appendRow({1.0, 2.0});
    s.appendRow({1.0, 2.0});
    EXPECT_EQ(s.reservedBytes(), 6 * sizeof(double));
    EXPECT_EQ(s.memoryBytes(), 6 * sizeof(double));
    // Past the window the history grows as any vector does.
    s.appendRow({3.0, 4.0});
    EXPECT_GT(s.reservedBytes(), 6 * sizeof(double));
    EXPECT_DOUBLE_EQ(s.at(1, 13), 4.0);
}

TEST(ObservedSeries, LoadKeepsTheReservation)
{
    ObservedSeries a(0, 1, 2, 0, 99);
    a.appendRow({1.0, 2.0});
    a.appendRow({3.0, 4.0});
    std::string bytes;
    BinaryWriter w(bytes);
    a.save(w);

    ObservedSeries b(0, 1, 2, 0, 99);
    BinaryReader r(bytes);
    b.load(r);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(b.reservedBytes(), 200 * sizeof(double));
    EXPECT_EQ(b.iterEnd(), 2);
    EXPECT_EQ(b.seriesAt(1), a.seriesAt(1));
    // The checkpoint holds the rows, never the reservation.
    std::string again;
    BinaryWriter w2(again);
    b.save(w2);
    EXPECT_EQ(again, bytes);
}

TEST(ObservedSeriesDeathTest, LoadRejectsAShapeMismatch)
{
    std::string bytes;
    BinaryWriter w(bytes);
    w.writeI64(0); // lattice 0, 1 x 2 from iteration 0
    w.writeI64(1);
    w.writeU64(2);
    w.writeI64(0);
    w.writeU64(3); // three rows claimed, one stored
    w.writeVec({1.0, 2.0});
    ObservedSeries s(0, 1, 2, 0, 9);
    BinaryReader r(bytes);
    EXPECT_DEATH(s.load(r), "shape mismatch");
}

TEST(ObservedSeriesDeathTest, OutOfRangePanics)
{
    ObservedSeries s(0, 1, 2, 0, 0);
    s.appendRow({1.0, 2.0});
    EXPECT_DEATH(s.at(0, 5), "not recorded");
    EXPECT_DEATH(s.at(9, 0), "not sampled");
    EXPECT_DEATH(s.appendRow({1.0}), "row has");
}

} // namespace
