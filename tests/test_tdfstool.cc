/**
 * @file
 * End-to-end tests of the tdfstool CLI on a small store: `export`,
 * `query` and `tail` print byte-identical listings, `query --agg
 * mean` agrees with td_store_query_stat, `diff --ignore` rejects a
 * column the store does not have, and every command exits with the
 * documented code (0 on success, 1 on a mismatch, malformed input or
 * a usage error; an explicit `help` prints to stdout and exits 0).
 * The binary under test is the build's tdfstool (TDFSTOOL_BIN).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <utility>

#include "core/td_api.h"
#include "store/writer.hh"
#include "tests/test_util.hh"

namespace
{

using namespace tdfe;
using test::tempPath;

/** What one tdfstool invocation printed and returned. */
struct ToolRun
{
    int code = -1;
    std::string out;
    std::string err;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run `tdfstool @p args` (shell words) with stdout and stderr
 *  captured. */
ToolRun
tdfstool(const std::string &args)
{
    const std::string out = tempPath("tool.out");
    const std::string err = tempPath("tool.err");
    const std::string cmd = std::string(TDFSTOOL_BIN) + " " + args +
                            " > " + out + " 2> " + err;
    const int status = std::system(cmd.c_str());
    ToolRun r;
    r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.out = slurp(out);
    r.err = slurp(err);
    std::remove(out.c_str());
    std::remove(err.c_str());
    return r;
}

/** A three-block store with two coefficient columns and the double
 *  payloads a printer can get wrong: NaN, -0.0, a denormal. */
void
writeSmallStore(const std::string &path, double mse_shift = 0.0)
{
    StoreSchema schema;
    schema.coeffCount = 2;
    StoreOptions options;
    options.blockCapacity = 16;
    FeatureStoreWriter w(path, schema, options);
    for (long i = 0; i < 40; ++i) {
        FeatureRecord rec;
        rec.iteration = i;
        rec.analysis = i % 3;
        rec.stop = i == 39;
        rec.wallTime = 1e-3 * static_cast<double>(i);
        rec.wavefront = i == 7 ? -0.0 : static_cast<double>(i / 4);
        rec.predicted = i == 11
                            ? std::numeric_limits<double>::quiet_NaN()
                            : 0.1 * static_cast<double>(i);
        rec.mse = (i == 5 ? std::numeric_limits<double>::denorm_min()
                          : 1.0 / (1.0 + static_cast<double>(i))) +
                  mse_shift;
        rec.coeffs = {0.5, -0.25 * static_cast<double>(i)};
        w.append(rec);
    }
    w.finish();
}

class Tdfstool : public ::testing::Test
{
  protected:
    void SetUp() override { writeSmallStore(store); }
    void TearDown() override { std::remove(store.c_str()); }

    const std::string store = tempPath("tool.tdfs");
};

TEST_F(Tdfstool, ExportQueryAndTailListingsAreByteIdentical)
{
    const ToolRun query = tdfstool("query " + store);
    ASSERT_EQ(query.code, 0) << query.err;
    // 40 records plus the header line.
    EXPECT_EQ(std::count(query.out.begin(), query.out.end(), '\n'), 41);

    const ToolRun to_stdout = tdfstool("export " + store);
    ASSERT_EQ(to_stdout.code, 0) << to_stdout.err;
    EXPECT_EQ(to_stdout.out, query.out);

    const std::string csv = tempPath("tool.csv");
    const ToolRun to_file = tdfstool("export " + store + " --out " + csv);
    ASSERT_EQ(to_file.code, 0) << to_file.err;
    EXPECT_EQ(slurp(csv), query.out);
    std::remove(csv.c_str());

    // A finished store: the tail adopts the footer and ends at once.
    const ToolRun tail = tdfstool("tail " + store + " --stall 5");
    ASSERT_EQ(tail.code, 0) << tail.err;
    EXPECT_EQ(tail.out, query.out);

    const std::string header =
        query.out.substr(0, query.out.find('\n'));
    EXPECT_EQ(header, "iteration,analysis,stop,wall_time,wavefront,"
                      "predicted,mse,coef0,coef1");

    // Projection and filters print through the same printer too.
    const std::string filtered = " --analysis 1 --project mse,stop";
    const ToolRun q = tdfstool("query " + store + filtered);
    const ToolRun t = tdfstool("tail " + store + " --stall 5" + filtered);
    ASSERT_EQ(q.code, 0) << q.err;
    ASSERT_EQ(t.code, 0) << t.err;
    EXPECT_EQ(t.out, q.out);
    EXPECT_EQ(q.out.substr(0, q.out.find('\n')), "mse,stop");
}

TEST_F(Tdfstool, AggMeanAgreesWithTheCApi)
{
    // The predicted column holds a NaN: both sides must skip it.
    for (const std::string column : {"predicted", "mse", "wavefront"}) {
        SCOPED_TRACE(column);
        double lo = 0.0, hi = 0.0, mean = 0.0;
        const long matched = td_store_query_stat(
            store.c_str(), 4, 30, -1, -1, "wavefront>=1",
            column.c_str(), &lo, &hi, &mean);
        ASSERT_GT(matched, 0);
        const std::string filter =
            " --iter 4:30 --where 'wavefront>=1' --project " + column;
        EXPECT_EQ(tdfstool("query " + store + filter + " --agg count")
                      .out,
                  std::to_string(matched) + "\n");
        for (const auto &[agg, want] :
             {std::pair<std::string, double>{"mean", mean},
              {"min", lo},
              {"max", hi}}) {
            const ToolRun r =
                tdfstool("query " + store + filter + " --agg " + agg);
            ASSERT_EQ(r.code, 0) << r.err;
            EXPECT_EQ(r.out.substr(0, r.out.find('\n')), column);
            const double got =
                std::strtod(r.out.c_str() + r.out.find('\n') + 1,
                            nullptr);
            EXPECT_TRUE(test::bitsEqual(got, want))
                << agg << ": " << got << " vs " << want;
        }
    }
}

TEST_F(Tdfstool, DiffIgnoreRejectsAnUnknownColumn)
{
    const ToolRun typo =
        tdfstool("diff " + store + " " + store + " --ignore wal_time");
    EXPECT_EQ(typo.code, 1);
    EXPECT_NE(typo.err.find("'wal_time'"), std::string::npos)
        << typo.err;
    EXPECT_EQ(typo.out, "");

    const ToolRun ok =
        tdfstool("diff " + store + " " + store + " --ignore wall_time");
    EXPECT_EQ(ok.code, 0) << ok.err;
    EXPECT_EQ(ok.out,
              "stores match (40 records, ignored columns excluded)\n");
}

TEST_F(Tdfstool, DiffReportsAndIgnoresChangedColumns)
{
    const std::string other = tempPath("tool_other.tdfs");
    writeSmallStore(other, 1.0);
    const ToolRun differs = tdfstool("diff " + store + " " + other);
    EXPECT_EQ(differs.code, 1);
    EXPECT_NE(differs.err.find("record 0: mse differs"),
              std::string::npos)
        << differs.err;
    const ToolRun ignored =
        tdfstool("diff " + store + " " + other + " --ignore mse");
    EXPECT_EQ(ignored.code, 0) << ignored.err;
    std::remove(other.c_str());
}

TEST_F(Tdfstool, ExitCodesAreAsDocumented)
{
    const ToolRun help = tdfstool("help");
    EXPECT_EQ(help.code, 0);
    EXPECT_NE(help.out.find("usage: tdfstool"), std::string::npos);
    EXPECT_NE(help.out.find("columns: wall_time, wavefront,\n"),
              std::string::npos);
    EXPECT_EQ(help.err, "");

    const ToolRun bare = tdfstool("");
    EXPECT_EQ(bare.code, 1);
    EXPECT_NE(bare.err.find("usage: tdfstool"), std::string::npos);
    EXPECT_EQ(bare.out, "");

    EXPECT_EQ(tdfstool("frobnicate " + store).code, 1);
    EXPECT_EQ(tdfstool("verify " + store).code, 0);
    EXPECT_EQ(tdfstool("info " + store).code, 0);
    EXPECT_EQ(tdfstool("verify " + tempPath("missing.tdfs")).code, 1);
    EXPECT_EQ(tdfstool("query " + store + " --agg count").out, "40\n");
    EXPECT_EQ(tdfstool("query " + store + " --agg median").code, 1);
    EXPECT_EQ(tdfstool("query " + store + " --where 'bogus<1'").code, 1);
    EXPECT_EQ(tdfstool("query " + store + " --project nope").code, 1);
    EXPECT_EQ(tdfstool("query " + store + " --stop maybe").code, 1);
    EXPECT_EQ(tdfstool("query " + store + " --bogus-flag").code, 1);

    const std::string copy = tempPath("tool_copy.tdfs");
    const ToolRun recover = tdfstool("recover " + store + " " + copy);
    EXPECT_EQ(recover.code, 0) << recover.err;
    EXPECT_EQ(tdfstool("diff " + store + " " + copy).code, 0);
    std::remove(copy.c_str());
}

} // namespace
