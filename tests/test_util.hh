/**
 * @file
 * Helpers shared by the test binaries.
 */

#ifndef TDFE_TESTS_TEST_UTIL_HH
#define TDFE_TESTS_TEST_UTIL_HH

#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "store/reader.hh"

namespace tdfe
{

namespace test
{

/** Scratch file path unique to this process: a binary and its
 *  filtered re-run (the fault_smoke_* ctest entries) may run at the
 *  same time under `ctest -j` and must not share files. */
inline std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "tdfe" + std::to_string(::getpid()) +
           "_" + name;
}

/** Delete every checkpoint generation under @p prefix. */
inline void
removeGenerations(const std::string &prefix)
{
    for (const ckpt::Generation &g : ckpt::listGenerations(prefix))
        std::remove(g.path.c_str());
}

/** Every record of the store at @p path (empty when unreadable). */
inline std::vector<FeatureRecord>
readRecords(const std::string &path)
{
    std::string error;
    auto reader = FeatureStoreReader::open(path, &error);
    EXPECT_TRUE(reader) << error;
    std::vector<FeatureRecord> out;
    if (!reader)
        return out;
    QueryCursor c = reader->cursor();
    FeatureRecord rec;
    while (c.next(rec))
        out.push_back(rec);
    return out;
}

/** Reference semantics of a filtered read: every record of @p r,
 *  kept when EventFilter::matches accepts it. */
inline std::vector<FeatureRecord>
bruteFilter(const FeatureStoreReader &r, const EventFilter &filter)
{
    std::vector<FeatureRecord> out;
    QueryCursor c = r.cursor();
    FeatureRecord rec;
    while (c.next(rec))
        if (filter.matches(rec))
            out.push_back(rec);
    return out;
}

/** Bitwise double equality: NaN equals itself, -0.0 differs from
 *  +0.0. */
inline bool
bitsEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Whether expectRecordsBitwise compares the wall_time column, which
 *  two runs measure differently even when every other bit agrees. */
enum class WallTime
{
    Compare,
    Skip,
};

/** Expect @p a and @p b to agree in every column of the store
 *  schema: integers by value, doubles bit for bit. */
inline void
expectRecordsBitwise(const FeatureRecord &a, const FeatureRecord &b,
                     WallTime wall = WallTime::Compare)
{
    ASSERT_EQ(a.coeffs.size(), b.coeffs.size());
    StoreSchema schema;
    schema.coeffCount = a.coeffs.size();
    const std::size_t skipped = wall == WallTime::Skip
                                    ? schema.columnIndex("wall_time")
                                    : schema.totalColumns();
    for (std::size_t c = 0; c < schema.totalColumns(); ++c) {
        if (c == skipped)
            continue;
        if (c < StoreSchema::numIntColumns) {
            EXPECT_EQ(StoreSchema::intColumn(a, c),
                      StoreSchema::intColumn(b, c))
                << StoreSchema::columnName(c);
            continue;
        }
        const std::size_t i = c - StoreSchema::numIntColumns;
        const double x = StoreSchema::doubleColumn(a, i);
        const double y = StoreSchema::doubleColumn(b, i);
        EXPECT_TRUE(bitsEqual(x, y))
            << StoreSchema::columnName(c) << ": " << x << " vs " << y;
    }
}

/** expectRecordsBitwise over two record sequences, pairwise. */
inline void
expectRecordsBitwise(const std::vector<FeatureRecord> &a,
                     const std::vector<FeatureRecord> &b,
                     WallTime wall = WallTime::Compare)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        expectRecordsBitwise(a[i], b[i], wall);
    }
}

/** Expect the stores at @p a and @p b to hold the same number of
 *  blocks with the same record count each. */
inline void
expectSameBlocks(const std::string &a, const std::string &b)
{
    const auto ra = FeatureStoreReader::open(a);
    const auto rb = FeatureStoreReader::open(b);
    ASSERT_TRUE(ra && rb);
    ASSERT_EQ(ra->blockCount(), rb->blockCount());
    for (std::size_t i = 0; i < ra->blockCount(); ++i)
        EXPECT_EQ(ra->blockInfo(i).records, rb->blockInfo(i).records)
            << "block " << i;
}

} // namespace test

} // namespace tdfe

#endif // TDFE_TESTS_TEST_UTIL_HH
