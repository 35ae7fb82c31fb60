/**
 * @file
 * Query-engine and format-v2 tests (PR 8): dictionary/RLE/tagged
 * codec round trips on hostile inputs, v1 backward compatibility
 * (a hand-written v1 file opens, verifies, and queries bitwise-
 * identically to a brute-force scan) and clean rejection of future
 * versions, unsorted-store iteration-window exactness, filtered
 * cursors agreeing bitwise with filter-in-the-caller under 1/2/4
 * concurrent threads, zone-map pushdown gates (selective queries
 * must not decode most blocks), the iteration-sorted k-way rank
 * merge keeping stores queryable, finishRankStore honoring the
 * caller's StoreOptions, and the td_store_query_* C API.
 */

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/region.hh"
#include "core/td_api.h"
#include "par/store_merge.hh"
#include "par/thread_comm.hh"
#include "store/codec.hh"
#include "store/query.hh"
#include "store/reader.hh"
#include "store/writer.hh"
#include "tests/test_util.hh"

namespace
{

using namespace tdfe;
using test::bruteFilter;
using test::expectRecordsBitwise;
using test::tempPath;

/** Deterministic stream with low-cardinality int columns, monotone
 *  mse, and awkward double payloads mixed in. */
FeatureRecord
makeRecord(std::size_t i, std::size_t total, std::size_t n_coeffs)
{
    FeatureRecord rec;
    rec.iteration = static_cast<long>(i);
    rec.analysis = static_cast<long>(i * 4 / std::max<std::size_t>(
                                                 total, 1));
    rec.stop = i % 13 == 12;
    rec.wallTime = 1e-3 * static_cast<double>(i);
    rec.wavefront = static_cast<double>(1 + i / 9);
    rec.predicted =
        8.0 * std::exp(-0.005 * static_cast<double>(i)) +
        std::sin(0.2 * static_cast<double>(i));
    rec.mse = 1.0 / (1.0 + 0.05 * static_cast<double>(i));
    rec.coeffs.resize(n_coeffs);
    for (std::size_t k = 0; k < n_coeffs; ++k)
        rec.coeffs[k] = 0.5 * static_cast<double>(k) -
                        1e-6 * static_cast<double>(i);
    switch (i % 29) {
      case 5:
        rec.predicted = std::numeric_limits<double>::quiet_NaN();
        break;
      case 11:
        rec.mse = std::numeric_limits<double>::infinity();
        break;
      case 17:
        rec.wavefront = -0.0;
        break;
      default:
        break;
    }
    return rec;
}

void
writeStore(const std::string &path,
           const std::vector<FeatureRecord> &recs,
           std::size_t coeffs, std::size_t block_capacity)
{
    StoreSchema schema;
    schema.coeffCount = coeffs;
    StoreOptions opts;
    opts.blockCapacity = block_capacity;
    FeatureStoreWriter w(path, schema, opts);
    for (const FeatureRecord &r : recs)
        w.append(r);
    ASSERT_GT(w.finish(), 0u) << w.status().message;
}

std::vector<FeatureRecord>
drainCursor(QueryCursor &cur)
{
    std::vector<FeatureRecord> out;
    FeatureRecord rec;
    while (cur.next(rec))
        out.push_back(rec);
    return out;
}

/**
 * Hand-write a store file in the v1 layout (untagged delta-varint
 * int columns, no zone map) — the writer of this build only emits
 * v2, so backward compatibility needs bytes built from the codec
 * primitives. @p version lets the future-version rejection test
 * reuse the builder.
 */
void
writeV1File(const std::string &path,
            const std::vector<FeatureRecord> &recs,
            std::size_t coeffs, std::size_t block_capacity,
            std::uint32_t version = 1)
{
    using namespace store;
    StoreSchema schema;
    schema.coeffCount = coeffs;
    const std::size_t n_int = schema.intColumns();
    const std::size_t n_dbl = schema.doubleColumns();

    std::vector<std::uint8_t> out;
    out.insert(out.end(), headerMagic, headerMagic + 8);
    putU32(out, version);
    putU32(out, static_cast<std::uint32_t>(block_capacity));
    putU32(out, static_cast<std::uint32_t>(n_int));
    putU32(out, static_cast<std::uint32_t>(n_dbl));

    struct Entry
    {
        std::uint64_t offset, size, records;
        std::int64_t first, last;
    };
    std::vector<Entry> index;
    bool sorted = true;
    for (std::size_t at = 0; at < recs.size();
         at += block_capacity) {
        const std::size_t n =
            std::min(block_capacity, recs.size() - at);
        std::vector<std::vector<std::int64_t>> ints(n_int);
        std::vector<std::vector<double>> dbls(n_dbl);
        for (std::size_t i = 0; i < n; ++i) {
            const FeatureRecord &r = recs[at + i];
            ints[0].push_back(r.iteration);
            ints[1].push_back(r.analysis);
            ints[2].push_back(r.stop ? 1 : 0);
            dbls[0].push_back(r.wallTime);
            dbls[1].push_back(r.wavefront);
            dbls[2].push_back(r.predicted);
            dbls[3].push_back(r.mse);
            for (std::size_t k = 0; k < coeffs; ++k)
                dbls[4 + k].push_back(r.coeffs[k]);
        }
        std::vector<std::uint8_t> blk;
        putU32(blk, static_cast<std::uint32_t>(n));
        auto backpatch = [&blk](std::size_t len_at) {
            const std::size_t len = blk.size() - (len_at + 4);
            for (int b = 0; b < 4; ++b)
                blk[len_at + static_cast<std::size_t>(b)] =
                    static_cast<std::uint8_t>(len >> (8 * b));
        };
        for (const auto &c : ints) {
            const std::size_t len_at = blk.size();
            putU32(blk, 0);
            encodeIntColumn(c.data(), n, blk); // v1: no codec tag
            backpatch(len_at);
        }
        for (const auto &c : dbls) {
            const std::size_t len_at = blk.size();
            putU32(blk, 0);
            encodeDoubleColumn(c.data(), n, blk);
            backpatch(len_at);
        }
        putU32(blk, crc32(blk.data(), blk.size()));

        Entry e;
        e.offset = out.size();
        e.size = blk.size();
        e.records = n;
        e.first = ints[0].front();
        e.last = ints[0].back();
        if (!index.empty() && e.first < index.back().last)
            sorted = false;
        index.push_back(e);
        out.insert(out.end(), blk.begin(), blk.end());
    }

    const std::uint64_t footer_offset = out.size();
    std::vector<std::uint8_t> f;
    putU64(f, index.size());
    for (const Entry &e : index) {
        putU64(f, e.offset);
        putU64(f, e.size);
        putU64(f, e.records);
        putI64(f, e.first);
        putI64(f, e.last);
    }
    putU64(f, recs.size());
    putU32(f, sorted ? 1 : 0);
    putU32(f, static_cast<std::uint32_t>(n_int));
    putU32(f, static_cast<std::uint32_t>(n_dbl));
    putU64(f, coeffs);
    auto put_name = [&f](const std::string &name) {
        putU32(f, static_cast<std::uint32_t>(name.size()));
        f.insert(f.end(), name.begin(), name.end());
    };
    for (const std::string &name : schema.columnNames())
        put_name(name);
    putU32(f, crc32(f.data(), f.size()));
    putU64(f, footer_offset);
    f.insert(f.end(), trailerMagic, trailerMagic + 8);
    out.insert(out.end(), f.begin(), f.end());

    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.good());
    file.write(reinterpret_cast<const char *>(out.data()),
               static_cast<std::streamsize>(out.size()));
    ASSERT_TRUE(file.good());
}

// ------------------------------------------------------------ codecs

void
expectIntRoundTrip(const std::vector<std::int64_t> &vals)
{
    std::vector<std::uint8_t> dict_bytes, rle_bytes, tagged_bytes;
    store::encodeIntColumnDict(vals.data(), vals.size(), dict_bytes);
    store::encodeIntColumnRle(vals.data(), vals.size(), rle_bytes);
    store::encodeIntColumnTagged(vals.data(), vals.size(),
                                 tagged_bytes);

    std::vector<std::int64_t> got(vals.size(), 12345);
    if (vals.empty()) {
        // A dictionary always has at least one entry, so the empty
        // column is rejected by the dict decoder (the writer never
        // seals an empty block; the tagged path picks delta).
        EXPECT_FALSE(store::decodeIntColumnDict(
            dict_bytes.data(), dict_bytes.size(), 0, got.data()));
    } else {
        EXPECT_TRUE(store::decodeIntColumnDict(
            dict_bytes.data(), dict_bytes.size(), vals.size(),
            got.data()));
        EXPECT_EQ(got, vals);
    }

    got.assign(vals.size(), 12345);
    EXPECT_TRUE(store::decodeIntColumnRle(
        rle_bytes.data(), rle_bytes.size(), vals.size(),
        got.data()));
    EXPECT_EQ(got, vals);

    got.assign(vals.size(), 12345);
    EXPECT_TRUE(store::decodeIntColumnTagged(
        tagged_bytes.data(), tagged_bytes.size(), vals.size(),
        got.data()));
    EXPECT_EQ(got, vals);
}

TEST(QueryCodec, DictRleTaggedRoundTripHostileInputs)
{
    expectIntRoundTrip({});
    expectIntRoundTrip({0});
    expectIntRoundTrip({std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max(), 0,
                        -1, 1,
                        std::numeric_limits<std::int64_t>::min()});
    // A dictionary gap wider than INT64_MAX (signed overflow if the
    // encoder took it in int64).
    expectIntRoundTrip({std::numeric_limits<std::int64_t>::min(), 0,
                        std::numeric_limits<std::int64_t>::max()});

    std::vector<std::int64_t> vals;
    // Constant column (RLE's and the 0-bit dictionary's best case).
    vals.assign(1000, -42);
    expectIntRoundTrip(vals);

    // Alternating two values: RLE's worst case, dict's second best.
    vals.clear();
    for (int i = 0; i < 1000; ++i)
        vals.push_back(i % 2 ? 1 : -7);
    expectIntRoundTrip(vals);

    // Cardinalities around the dictionary trial cutoff.
    for (const int card : {255, 256, 257}) {
        vals.clear();
        for (int i = 0; i < 2000; ++i)
            vals.push_back((i * 31) % card - card / 2);
        expectIntRoundTrip(vals);
    }

    // Consecutive run (delta varint's home turf).
    vals.clear();
    for (int i = 0; i < 500; ++i)
        vals.push_back(1000000 + i);
    expectIntRoundTrip(vals);
}

TEST(QueryCodec, TaggedPicksTheSmallestCodec)
{
    std::vector<std::uint8_t> out;

    // Constant column: the 0-bit dictionary (size + one value, no
    // index section) beats both delta (one byte per record) and
    // the RLE pair (value + a two-byte run length).
    std::vector<std::int64_t> constant(1000, 3);
    store::encodeIntColumnTagged(constant.data(), constant.size(),
                                 out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0],
              static_cast<std::uint8_t>(store::IntCodec::Dict));
    EXPECT_LT(out.size(), 16u);

    // Long runs of a few values: the handful of RLE pairs beats
    // the dictionary's per-record bit-packed indices.
    out.clear();
    std::vector<std::int64_t> runs;
    for (int i = 0; i < 1000; ++i)
        runs.push_back(i / 100);
    store::encodeIntColumnTagged(runs.data(), runs.size(), out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0],
              static_cast<std::uint8_t>(store::IntCodec::Rle));

    // 8 distinct scattered values with run length 1: dictionary
    // bit-packing (3 bits/record) beats delta varints and RLE pairs.
    out.clear();
    std::vector<std::int64_t> lowcard;
    for (int i = 0; i < 1024; ++i)
        lowcard.push_back(((i * 5) % 8) * 1000000);
    store::encodeIntColumnTagged(lowcard.data(), lowcard.size(),
                                 out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0],
              static_cast<std::uint8_t>(store::IntCodec::Dict));

    // Near-consecutive high-cardinality values: delta varint wins.
    out.clear();
    std::vector<std::int64_t> consec;
    for (int i = 0; i < 1024; ++i)
        consec.push_back(i);
    store::encodeIntColumnTagged(consec.data(), consec.size(), out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0],
              static_cast<std::uint8_t>(store::IntCodec::DeltaVarint));
}

TEST(QueryCodec, MalformedPayloadsRejected)
{
    std::vector<std::int64_t> vals{1, 2, 3, 4, 5, 6, 7, 1, 2, 3};
    std::vector<std::int64_t> got(vals.size());

    std::vector<std::uint8_t> bytes;
    store::encodeIntColumnDict(vals.data(), vals.size(), bytes);
    for (const std::size_t cut : {std::size_t{0}, bytes.size() / 2,
                                  bytes.size() - 1}) {
        EXPECT_FALSE(store::decodeIntColumnDict(
            bytes.data(), cut, vals.size(), got.data()))
            << "dict cut at " << cut;
    }

    bytes.clear();
    store::encodeIntColumnRle(vals.data(), vals.size(), bytes);
    for (const std::size_t cut : {std::size_t{0}, bytes.size() / 2,
                                  bytes.size() - 1}) {
        EXPECT_FALSE(store::decodeIntColumnRle(
            bytes.data(), cut, vals.size(), got.data()))
            << "rle cut at " << cut;
    }

    // Unknown codec id must be rejected, not decoded as garbage.
    bytes.clear();
    store::encodeIntColumnTagged(vals.data(), vals.size(), bytes);
    bytes[0] = 9;
    EXPECT_FALSE(store::decodeIntColumnTagged(
        bytes.data(), bytes.size(), vals.size(), got.data()));
    // Empty tagged payload (not even a codec byte).
    EXPECT_FALSE(store::decodeIntColumnTagged(bytes.data(), 0,
                                              vals.size(),
                                              got.data()));
}

// -------------------------------------------------- predicate parsing

TEST(QueryPredicate, ParsesEveryOperator)
{
    const struct
    {
        const char *text;
        std::size_t column;
        PredOp op;
        double value;
    } cases[] = {
        {"mse<0.5", 3, PredOp::Lt, 0.5},
        {"mse<=0.5", 3, PredOp::Le, 0.5},
        {"wavefront>12", 1, PredOp::Gt, 12.0},
        {"wavefront>=12", 1, PredOp::Ge, 12.0},
        {"wall_time==3", 0, PredOp::Eq, 3.0},
        {"wall_time=3", 0, PredOp::Eq, 3.0},
        {"predicted!=1e-3", 2, PredOp::Ne, 1e-3},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        MetricPredicate p;
        std::string error;
        ASSERT_TRUE(parseMetricPredicate(c.text, p, &error))
            << error;
        EXPECT_EQ(p.column, c.column);
        EXPECT_EQ(p.op, c.op);
        EXPECT_EQ(p.value, c.value);
    }

    MetricPredicate p;
    std::string error;
    for (const char *bad :
         {"bogus<1", "mse", "mse<", "<1", "mse<abc", "mse<1x",
          "iteration<5", ""}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(parseMetricPredicate(bad, p, &error));
        EXPECT_FALSE(error.empty());
    }
}

TEST(QueryPredicate, NanNeverMatches)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const PredOp op : {PredOp::Lt, PredOp::Le, PredOp::Gt,
                            PredOp::Ge, PredOp::Eq, PredOp::Ne}) {
        MetricPredicate p{3, op, 0.5};
        EXPECT_FALSE(p.matches(nan));
    }
    MetricPredicate lt{3, PredOp::Lt, 0.5};
    EXPECT_TRUE(lt.matches(0.25));
    EXPECT_FALSE(lt.matches(0.5));
    // The empty zone interval (all-NaN column) is infeasible for
    // every operator, matching the record-level semantics.
    const double inf = std::numeric_limits<double>::infinity();
    for (const PredOp op : {PredOp::Lt, PredOp::Le, PredOp::Gt,
                            PredOp::Ge, PredOp::Eq, PredOp::Ne}) {
        MetricPredicate p{3, op, 0.5};
        EXPECT_FALSE(p.feasible(inf, -inf));
    }
}

// ------------------------------------------------- filtered cursors

std::vector<FeatureRecord>
sortedStream(std::size_t total, std::size_t coeffs)
{
    std::vector<FeatureRecord> recs;
    for (std::size_t i = 0; i < total; ++i)
        recs.push_back(makeRecord(i, total, coeffs));
    return recs;
}

TEST(QueryFilter, FilteredCursorMatchesBruteForce)
{
    const std::size_t total = 1500;
    const std::string path = tempPath("query_sorted.tdfs");
    writeStore(path, sortedStream(total, 3), 3, 64);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->formatVersion(), 2u);
    EXPECT_TRUE(r->sortedByIteration());

    MetricPredicate mse_lt;
    ASSERT_TRUE(parseMetricPredicate("mse<0.1", mse_lt));
    MetricPredicate wf_ge;
    ASSERT_TRUE(parseMetricPredicate("wavefront>=100", wf_ge));
    const EventFilter filters[] = {
        EventFilter(),
        EventFilter().iterRange(200, 300),
        EventFilter().analysisIs(2),
        EventFilter().stopIs(true),
        EventFilter().where(mse_lt),
        EventFilter().where(mse_lt).where(wf_ge),
        EventFilter().iterRange(400, 1200).analysisIs(1).stopIs(
            false),
        EventFilter().iterRange(10000, 20000), // empty window
    };
    for (std::size_t i = 0; i < sizeof(filters) / sizeof(filters[0]);
         ++i) {
        SCOPED_TRACE("filter " + std::to_string(i));
        QueryCursor cur(*r, filters[i]);
        expectRecordsBitwise(drainCursor(cur),
                             bruteFilter(*r, filters[i]));
    }
    std::remove(path.c_str());
}

TEST(QueryFilter, FullScanCursorDecodesEveryBlock)
{
    const std::size_t total = 1000;
    const std::string path = tempPath("query_fullscan.tdfs");
    const std::vector<FeatureRecord> recs = sortedStream(total, 2);
    writeStore(path, recs, 2, 64);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    ASSERT_GE(r->blockCount(), 16u);

    r->resetIoStats();
    QueryCursor c = r->cursor();
    const std::vector<FeatureRecord> got = drainCursor(c);
    EXPECT_EQ(got.size(), r->recordCount());
    expectRecordsBitwise(got, recs);
    EXPECT_EQ(c.blocksDecoded(), r->blockCount());
    EXPECT_EQ(r->blocksDecoded(), r->blockCount());
    std::remove(path.c_str());
}

TEST(QueryFilter, DefaultFilterMatchesExtremeIterations)
{
    // The default window holds every iteration, LONG_MAX included,
    // on every read path, sorted store or not. iterRange stays
    // half-open.
    const long iters[] = {LONG_MIN, LONG_MIN + 1, -1, 0, 7,
                          LONG_MAX - 1, LONG_MAX};
    for (const bool reversed : {false, true}) {
        SCOPED_TRACE(reversed ? "reversed" : "sorted");
        std::vector<FeatureRecord> recs;
        for (const long it : iters) {
            FeatureRecord rec = makeRecord(recs.size(), 7, 2);
            rec.iteration = it;
            recs.push_back(rec);
        }
        if (reversed)
            std::reverse(recs.begin(), recs.end());
        const std::string path = tempPath("query_extremes.tdfs");
        writeStore(path, recs, 2, 3);
        const auto r = FeatureStoreReader::open(path);
        ASSERT_TRUE(r);
        ASSERT_EQ(r->recordCount(), recs.size());
        EXPECT_EQ(r->sortedByIteration(), !reversed);

        QueryCursor all = r->cursor();
        expectRecordsBitwise(drainCursor(all), recs);
        QueryCursor deflt(*r, EventFilter());
        EXPECT_EQ(drainCursor(deflt).size(), r->recordCount());
        std::size_t matched = 0;
        for (const FeatureRecord &rec : recs)
            matched += EventFilter().matches(rec) ? 1 : 0;
        EXPECT_EQ(matched, r->recordCount());
        EXPECT_EQ(td_store_query_count(path.c_str(), -1, -1, -1, -1,
                                       nullptr),
                  static_cast<long>(r->recordCount()));

        // Half-open windows: LONG_MAX itself is outside [0, LONG_MAX).
        QueryCursor upto(*r, EventFilter().iterRange(0, LONG_MAX));
        EXPECT_EQ(drainCursor(upto).size(), 3u);
        QueryCursor none(*r, EventFilter().iterRange(LONG_MIN, LONG_MIN));
        EXPECT_TRUE(drainCursor(none).empty());
        EXPECT_EQ(td_store_query_count(path.c_str(), 0, -1, -1, -1,
                                       nullptr),
                  4);
        std::remove(path.c_str());
    }
}

TEST(QueryFilter, ZoneMapSkipsBlocksWithoutReading)
{
    const std::size_t total = 2048;
    const std::string path = tempPath("query_zone.tdfs");
    writeStore(path, sortedStream(total, 2), 2, 64);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    const std::size_t blocks = r->blockCount();
    ASSERT_GE(blocks, 16u);

    // Narrow iteration window on the sorted store: only the
    // overlapping blocks (plus rounding) may be decoded.
    r->resetIoStats();
    {
        const EventFilter f = EventFilter().iterRange(1000, 1100);
        QueryCursor cur(*r, f);
        const auto got = drainCursor(cur);
        EXPECT_EQ(got.size(), 100u);
        EXPECT_LE(cur.blocksDecoded(), 3u);
        EXPECT_EQ(r->blocksDecoded(), cur.blocksDecoded());
    }

    // mse decreases monotonically, so the tail predicate admits
    // only late blocks — pruned by the zone map, not the index.
    {
        MetricPredicate tail;
        ASSERT_TRUE(parseMetricPredicate("mse<0.011", tail));
        const EventFilter f = EventFilter().where(tail);
        QueryCursor cur(*r, f);
        const auto got = drainCursor(cur);
        const auto brute = bruteFilter(*r, f);
        expectRecordsBitwise(got, brute);
        ASSERT_FALSE(got.empty());
        EXPECT_LT(cur.blocksDecoded(), blocks / 2);
    }

    // Analysis ids come in contiguous quarters: selecting one must
    // decode about a quarter of the blocks.
    {
        const EventFilter f = EventFilter().analysisIs(3);
        QueryCursor cur(*r, f);
        const auto got = drainCursor(cur);
        EXPECT_EQ(got.size(), total / 4);
        EXPECT_LT(cur.blocksDecoded(), blocks / 2);
    }
    std::remove(path.c_str());
}

TEST(QueryFilter, UnsortedStoreExactAndPruned)
{
    // Iterations form a stride permutation (unsorted appends) while
    // mse stays monotone in append order, so the zone map can still
    // prune metric predicates on the unsorted store.
    const std::size_t total = 2048;
    std::vector<FeatureRecord> recs;
    for (std::size_t i = 0; i < total; ++i) {
        FeatureRecord rec = makeRecord(i, total, 2);
        rec.iteration = static_cast<long>((i * 257) % total);
        recs.push_back(rec);
    }
    const std::string path = tempPath("query_unsorted.tdfs");
    writeStore(path, recs, 2, 64);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    EXPECT_FALSE(r->sortedByIteration());
    EXPECT_TRUE(r->verify());

    // An iteration window must equal the brute-force window filter
    // bitwise, in store order.
    std::vector<FeatureRecord> want;
    for (const FeatureRecord &rec : recs)
        if (rec.iteration >= 100 && rec.iteration < 300)
            want.push_back(rec);
    QueryCursor window(*r, EventFilter().iterRange(100, 300));
    expectRecordsBitwise(drainCursor(window), want);

    // Filtered cursor agrees with filter-in-caller...
    MetricPredicate tail;
    ASSERT_TRUE(parseMetricPredicate("mse<0.011", tail));
    const EventFilter f =
        EventFilter().iterRange(0, 1 << 20).where(tail);
    QueryCursor cur(*r, f);
    const auto filtered = drainCursor(cur);
    expectRecordsBitwise(filtered, bruteFilter(*r, f));
    ASSERT_FALSE(filtered.empty());
    // ...and the zone map still pruned most blocks despite the
    // useless iteration bounds.
    EXPECT_LT(cur.blocksDecoded(), r->blockCount() / 2);
    std::remove(path.c_str());
}

TEST(QueryFilter, ConcurrentCursorsAgree)
{
    const std::size_t total = 1200;
    const std::string path = tempPath("query_threads.tdfs");
    writeStore(path, sortedStream(total, 2), 2, 64);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);

    MetricPredicate mse_lt;
    ASSERT_TRUE(parseMetricPredicate("mse<0.2", mse_lt));
    const EventFilter filter =
        EventFilter().iterRange(50, 1100).where(mse_lt);
    const std::vector<FeatureRecord> want = bruteFilter(*r, filter);
    ASSERT_FALSE(want.empty());

    for (const int n_threads : {1, 2, 4}) {
        SCOPED_TRACE(std::to_string(n_threads) + " threads");
        std::vector<std::vector<FeatureRecord>> got(
            static_cast<std::size_t>(n_threads));
        std::vector<std::thread> threads;
        for (int t = 0; t < n_threads; ++t) {
            threads.emplace_back([&, t] {
                QueryCursor cur(*r, filter);
                got[static_cast<std::size_t>(t)] =
                    drainCursor(cur);
            });
        }
        for (std::thread &t : threads)
            t.join();
        for (int t = 0; t < n_threads; ++t)
            expectRecordsBitwise(got[static_cast<std::size_t>(t)],
                                 want);
    }
    std::remove(path.c_str());
}

// ------------------------------------------------ v1 compatibility

TEST(QueryCompat, V1StoreOpensVerifiesAndQueries)
{
    const std::size_t total = 700;
    const std::vector<FeatureRecord> recs = sortedStream(total, 2);
    const std::string path = tempPath("compat_v1.tdfs");
    writeV1File(path, recs, 2, 64);

    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->formatVersion(), 1u);
    EXPECT_TRUE(r->sortedByIteration());
    EXPECT_EQ(r->recordCount(), total);
    EXPECT_TRUE(r->verify());
    EXPECT_EQ(r->zone(0), nullptr); // v1: no zone map

    // Full stream is bitwise-identical through the v1 decode path.
    {
        std::vector<FeatureRecord> all;
        auto c = r->cursor();
        FeatureRecord rec;
        while (c.next(rec))
            all.push_back(rec);
        expectRecordsBitwise(all, recs);
    }

    // Filtered queries agree with brute force; the sorted index
    // still prunes the iteration window without zones.
    MetricPredicate mse_lt;
    ASSERT_TRUE(parseMetricPredicate("mse<0.1", mse_lt));
    const EventFilter filters[] = {
        EventFilter().iterRange(100, 200),
        EventFilter().analysisIs(1).where(mse_lt),
    };
    for (const EventFilter &f : filters) {
        QueryCursor cur(*r, f);
        expectRecordsBitwise(drainCursor(cur), bruteFilter(*r, f));
    }
    r->resetIoStats();
    QueryCursor window(*r, EventFilter().iterRange(100, 200));
    EXPECT_EQ(drainCursor(window).size(), 100u);
    EXPECT_LE(r->blocksDecoded(), 3u);
    std::remove(path.c_str());
}

TEST(QueryCompat, FutureVersionRejectedCleanly)
{
    const std::vector<FeatureRecord> recs = sortedStream(50, 1);
    const std::string path = tempPath("compat_v3.tdfs");
    writeV1File(path, recs, 1, 16, /*version=*/3);

    std::string error;
    EXPECT_EQ(FeatureStoreReader::open(path, &error), nullptr);
    EXPECT_NE(error.find("unsupported format version"),
              std::string::npos)
        << error;
    std::remove(path.c_str());
}

// ------------------------------------------------------------ merge

TEST(StoreMergeQuery, MergedStoreStaysSortedAndQueryable)
{
    // Interleaved, globally overlapping iteration ranges per part.
    StoreSchema schema;
    schema.coeffCount = 1;
    std::vector<std::string> parts;
    std::vector<FeatureRecord> expect;
    for (int rank = 0; rank < 3; ++rank) {
        const std::string part =
            tempPath("mergeq.tdfs.rk" + std::to_string(rank));
        StoreOptions opts;
        opts.blockCapacity = 16;
        FeatureStoreWriter w(part, schema, opts);
        FeatureRecord rec;
        rec.coeffs.assign(1, static_cast<double>(rank));
        for (long i = 0; i < 200; ++i) {
            rec.iteration = 3 * i + rank;
            rec.analysis = rank;
            rec.mse = 1.0 / (1.0 + static_cast<double>(i));
            w.append(rec);
        }
        ASSERT_GT(w.finish(), 0u);
        parts.push_back(part);
    }

    const std::string merged = tempPath("mergeq.tdfs");
    StoreOptions merge_opts;
    merge_opts.blockCapacity = 32;
    EXPECT_EQ(mergeRankStores(parts, merged, merge_opts), 600u);

    const auto r = FeatureStoreReader::open(merged);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->sortedByIteration());
    EXPECT_TRUE(r->verify());
    EXPECT_EQ(r->blockCapacity(), 32u);

    // The merged stream is the sorted union: iterations 0..599.
    {
        auto c = r->cursor();
        FeatureRecord rec;
        long want = 0;
        while (c.next(rec)) {
            EXPECT_EQ(rec.iteration, want);
            EXPECT_EQ(rec.analysis, want % 3);
            ++want;
        }
        EXPECT_EQ(want, 600);
    }

    // And it is range-queryable with pruned reads, as a single-rank
    // sorted store would be.
    r->resetIoStats();
    QueryCursor window(*r, EventFilter().iterRange(300, 330));
    const std::vector<FeatureRecord> out = drainCursor(window);
    EXPECT_EQ(out.size(), 30u);
    EXPECT_LE(r->blocksDecoded(), 2u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].iteration, 300 + static_cast<long>(i));

    for (const std::string &p : parts)
        std::remove(p.c_str());
    std::remove(merged.c_str());
}

TEST(StoreMergeQuery, FinishRankStoreHonorsStoreOptions)
{
    // Regression: finishRankStore used to merge with default
    // StoreOptions(), discarding the caller's writer knobs. The
    // block capacity of the merged file is the observable proxy.
    const std::string base = tempPath("mergeq_opts.tdfs");
    ThreadCommWorld world(2);
    world.run([&](Communicator &comm) {
        int dummy = 0;
        Region region("opts", &dummy, &comm);
        // setFeatureStore needs a registered analysis (the store
        // schema depends on it); this one stays inert because the
        // records are appended directly.
        AnalysisConfig ac;
        ac.provider = [](void *, long) { return 0.0; };
        ac.space = IterParam(1, 2, 1);
        ac.time = IterParam(4, 8, 1);
        ac.minLocation = 1;
        ac.ar.order = 1;
        ac.ar.lag = 1;
        region.addAnalysis(std::move(ac));
        StoreOptions opts;
        opts.blockCapacity = 8; // != the 256 default
        auto store = attachRankStore(region, base, 2, opts, &comm);
        FeatureRecord rec;
        rec.coeffs.assign(2, 0.5);
        for (long i = 0; i < 40; ++i) {
            rec.iteration = i;
            rec.analysis = comm.rank();
            rec.mse = 1.0 / (1.0 + static_cast<double>(i));
            store->append(rec);
        }
        RankMergeOptions merge;
        merge.storeOptions = opts;
        finishRankStore(region, std::move(store), base, &comm,
                        merge);
    });

    const auto r = FeatureStoreReader::open(base);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->recordCount(), 80u);
    EXPECT_EQ(r->blockCapacity(), 8u);
    EXPECT_TRUE(r->sortedByIteration());
    std::remove(base.c_str());
}

// ------------------------------------------------------------ C API

TEST(QueryCApi, CountAndStat)
{
    const std::size_t total = 600;
    const std::string path = tempPath("query_capi.tdfs");
    writeStore(path, sortedStream(total, 2), 2, 64);

    // Unfiltered count equals the record count.
    EXPECT_EQ(td_store_query_count(path.c_str(), -1, -1, -1, -1,
                                   nullptr),
              static_cast<long>(total));
    // Window + analysis + stop clauses.
    EXPECT_EQ(td_store_query_count(path.c_str(), 100, 200, -1, -1,
                                   ""),
              100);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    {
        const EventFilter f =
            EventFilter().analysisIs(1).stopIs(true);
        EXPECT_EQ(td_store_query_count(path.c_str(), -1, -1, 1, 1,
                                       nullptr),
                  static_cast<long>(bruteFilter(*r, f).size()));
    }
    // Comma-separated conjunction.
    {
        MetricPredicate a, b;
        ASSERT_TRUE(parseMetricPredicate("mse<0.1", a));
        ASSERT_TRUE(parseMetricPredicate("wavefront>=20", b));
        const EventFilter f = EventFilter().where(a).where(b);
        EXPECT_EQ(td_store_query_count(path.c_str(), -1, -1, -1, -1,
                                       "mse<0.1,wavefront>=20"),
                  static_cast<long>(bruteFilter(*r, f).size()));
    }

    // Stat: NaN-skipping min/max/mean of a window.
    double lo = 0.0, hi = 0.0, mean = 0.0;
    const long matched = td_store_query_stat(
        path.c_str(), 100, 200, -1, -1, nullptr, "wall_time", &lo,
        &hi, &mean);
    EXPECT_EQ(matched, 100);
    EXPECT_DOUBLE_EQ(lo, 0.100);
    EXPECT_DOUBLE_EQ(hi, 0.199);
    EXPECT_NEAR(mean, 0.1495, 1e-12);

    // Error paths: missing store, bad predicate, unknown column.
    EXPECT_EQ(td_store_query_count("no/such/store.tdfs", -1, -1, -1,
                                   -1, nullptr),
              -1);
    EXPECT_EQ(td_store_query_count(path.c_str(), -1, -1, -1, -1,
                                   "bogus<1"),
              -1);
    EXPECT_EQ(td_store_query_stat(path.c_str(), -1, -1, -1, -1,
                                  nullptr, "iteration", &lo, &hi,
                                  &mean),
              -1);
    std::remove(path.c_str());
}

} // namespace
