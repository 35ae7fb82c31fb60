/**
 * @file
 * Helpers shared by the test binaries.
 */

#ifndef TDFE_TESTS_TEST_UTIL_HH
#define TDFE_TESTS_TEST_UTIL_HH

#include <cstdio>
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

/** Bitwise record equality, ignoring wallTime (measured per run). */
inline void
expectRecordsEqual(const std::vector<FeatureRecord> &a,
                   const std::vector<FeatureRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(a[i].iteration, b[i].iteration);
        EXPECT_EQ(a[i].analysis, b[i].analysis);
        EXPECT_EQ(a[i].stop, b[i].stop);
        EXPECT_EQ(a[i].wavefront, b[i].wavefront);
        EXPECT_EQ(a[i].predicted, b[i].predicted);
        EXPECT_EQ(a[i].mse, b[i].mse);
        EXPECT_EQ(a[i].coeffs, b[i].coeffs);
    }
}

} // namespace test

} // namespace tdfe

#endif // TDFE_TESTS_TEST_UTIL_HH
