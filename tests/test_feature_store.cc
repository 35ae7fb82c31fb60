/**
 * @file
 * Feature trace store tests: bit-exact round trips across block
 * boundaries (including NaN/inf/denormal payloads), byte-identical
 * files across 1/2/4 pool threads, truncated-file and corrupted-CRC
 * rejection, block-index range queries against a brute-force scan,
 * and the codec primitives.
 *
 * Fault battery (label fault_smoke via --gtest_filter=StoreFault.*):
 * the crash-point sweep writes through a FaultyFile that tears the
 * file at every interesting byte-offset class and proves salvage
 * recovers exactly the sealed-block prefix; the retry tests inject
 * transient EIO (heals, file byte-identical) and persistent ENOSPC
 * (sticky degrade, no abort, prefix salvageable).
 */

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/thread_pool.hh"
#include "store/codec.hh"
#include "store/file.hh"
#include "store/reader.hh"
#include "store/writer.hh"
#include "tests/test_util.hh"

namespace
{

using namespace tdfe;
using test::tempPath;

/** Deterministic record stream with awkward bit patterns mixed in. */
FeatureRecord
makeRecord(std::size_t i, std::size_t n_coeffs)
{
    FeatureRecord rec;
    rec.iteration = static_cast<long>(i);
    rec.analysis = static_cast<long>(i % 3);
    rec.stop = i % 17 == 16;
    rec.wallTime = 1e-3 * static_cast<double>(i);
    rec.wavefront = static_cast<double>(1 + i / 7);
    rec.predicted =
        10.0 * std::exp(-0.01 * static_cast<double>(i)) +
        std::sin(0.3 * static_cast<double>(i));
    rec.mse = 1.0 / (1.0 + static_cast<double>(i));
    rec.coeffs.resize(n_coeffs);
    for (std::size_t k = 0; k < n_coeffs; ++k)
        rec.coeffs[k] = 0.25 * static_cast<double>(k) -
                        1e-6 * static_cast<double>(i);
    switch (i % 41) {
      case 7:
        rec.predicted = std::numeric_limits<double>::quiet_NaN();
        break;
      case 13:
        rec.mse = std::numeric_limits<double>::infinity();
        break;
      case 19:
        rec.wavefront = -0.0;
        break;
      case 23:
        rec.predicted = std::numeric_limits<double>::denorm_min();
        break;
      default:
        break;
    }
    return rec;
}

bool
bitsEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectRecordsEqual(const FeatureRecord &a, const FeatureRecord &b)
{
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.analysis, b.analysis);
    EXPECT_EQ(a.stop, b.stop);
    EXPECT_TRUE(bitsEqual(a.wallTime, b.wallTime));
    EXPECT_TRUE(bitsEqual(a.wavefront, b.wavefront));
    EXPECT_TRUE(bitsEqual(a.predicted, b.predicted));
    EXPECT_TRUE(bitsEqual(a.mse, b.mse));
    ASSERT_EQ(a.coeffs.size(), b.coeffs.size());
    for (std::size_t k = 0; k < a.coeffs.size(); ++k)
        EXPECT_TRUE(bitsEqual(a.coeffs[k], b.coeffs[k]))
            << "coeff " << k;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
writeStore(const std::string &path, std::size_t records,
           std::size_t n_coeffs, const StoreOptions &opts)
{
    StoreSchema schema;
    schema.coeffCount = n_coeffs;
    FeatureStoreWriter w(path, schema, opts);
    for (std::size_t i = 0; i < records; ++i)
        w.append(makeRecord(i, n_coeffs));
    EXPECT_EQ(w.recordCount(), records);
    EXPECT_GT(w.finish(), 0u);
}

TEST(StoreCodec, IntColumnRoundTrip)
{
    const std::vector<std::int64_t> vals = {
        0,  1,  2,  3,  100,  99,          -5,
        -6, -6, -6, 1LL << 40, -(1LL << 40), 0};
    std::vector<std::uint8_t> bytes;
    store::encodeIntColumn(vals.data(), vals.size(), bytes);
    std::vector<std::int64_t> out(vals.size());
    ASSERT_TRUE(store::decodeIntColumn(bytes.data(), bytes.size(),
                                       vals.size(), out.data()));
    EXPECT_EQ(out, vals);
    // Consecutive integers cost ~1 byte each.
    std::vector<std::int64_t> seq(1000);
    for (std::size_t i = 0; i < seq.size(); ++i)
        seq[i] = static_cast<std::int64_t>(i);
    bytes.clear();
    store::encodeIntColumn(seq.data(), seq.size(), bytes);
    EXPECT_LE(bytes.size(), seq.size() + 8);
}

TEST(StoreCodec, DoubleColumnRoundTripBitExact)
{
    std::vector<double> vals;
    for (std::size_t i = 0; i < 300; ++i)
        vals.push_back(makeRecord(i, 0).predicted);
    vals.push_back(std::numeric_limits<double>::quiet_NaN());
    vals.push_back(-std::numeric_limits<double>::infinity());
    vals.push_back(-0.0);
    vals.push_back(0.0);
    vals.push_back(std::numeric_limits<double>::denorm_min());

    std::vector<std::uint8_t> bytes;
    store::encodeDoubleColumn(vals.data(), vals.size(), bytes);
    std::vector<double> out(vals.size());
    ASSERT_TRUE(store::decodeDoubleColumn(bytes.data(), bytes.size(),
                                          vals.size(), out.data()));
    for (std::size_t i = 0; i < vals.size(); ++i)
        EXPECT_TRUE(bitsEqual(vals[i], out[i])) << "value " << i;

    // Constant series compress to ~1 bit per value.
    std::vector<double> flat(4096, 3.25);
    bytes.clear();
    store::encodeDoubleColumn(flat.data(), flat.size(), bytes);
    EXPECT_LE(bytes.size(), 8 + flat.size() / 8 + 8);
}

TEST(StoreCodec, Crc32KnownAnswer)
{
    // IEEE 802.3 check value of "123456789".
    EXPECT_EQ(store::crc32("123456789", 9), 0xCBF43926u);
}

TEST(FeatureStore, RoundTripAcrossBlockBoundaries)
{
    const std::string path = tempPath("roundtrip.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 8; // 83 records -> 11 blocks, partial tail
    writeStore(path, 83, 3, opts);

    std::string error;
    const auto r = FeatureStoreReader::open(path, &error);
    ASSERT_TRUE(r) << error;
    EXPECT_EQ(r->recordCount(), 83u);
    EXPECT_EQ(r->blockCount(), 11u);
    EXPECT_EQ(r->schema().coeffCount, 3u);
    EXPECT_TRUE(r->verify(&error)) << error;
    EXPECT_TRUE(r->sortedByIteration());

    auto c = r->cursor();
    FeatureRecord rec;
    std::size_t i = 0;
    while (c.next(rec))
        expectRecordsEqual(rec, makeRecord(i++, 3));
    EXPECT_EQ(i, 83u);
    std::remove(path.c_str());
}

TEST(FeatureStore, EmptyAndPartialStores)
{
    const std::string path = tempPath("tiny.tdfs");
    writeStore(path, 0, 2, StoreOptions());
    {
        std::string error;
        const auto r = FeatureStoreReader::open(path, &error);
        ASSERT_TRUE(r) << error;
        EXPECT_EQ(r->recordCount(), 0u);
        EXPECT_EQ(r->blockCount(), 0u);
        EXPECT_TRUE(r->verify());
        auto c = r->cursor();
        FeatureRecord rec;
        EXPECT_FALSE(c.next(rec));
    }
    writeStore(path, 5, 2, StoreOptions()); // single partial block
    {
        const auto r = FeatureStoreReader::open(path);
        ASSERT_TRUE(r);
        EXPECT_EQ(r->recordCount(), 5u);
        EXPECT_EQ(r->blockCount(), 1u);
        auto c = r->cursor();
        FeatureRecord rec;
        std::size_t i = 0;
        while (c.next(rec))
            expectRecordsEqual(rec, makeRecord(i++, 2));
        EXPECT_EQ(i, 5u);
    }
    std::remove(path.c_str());
}

TEST(FeatureStore, ThreadSweepByteIdentical)
{
    const std::string ref_path = tempPath("ref.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 16;
    writeStore(ref_path, 200, 4, opts);
    const std::string ref = fileBytes(ref_path);
    ASSERT_FALSE(ref.empty());

    for (const int threads : {1, 2, 4}) {
        setGlobalThreadCount(threads);
        const std::string path = tempPath("sweep.tdfs");
        writeStore(path, 200, 4, opts);
        EXPECT_EQ(fileBytes(path), ref) << "threads=" << threads;
        std::remove(path.c_str());
    }
    setGlobalThreadCount(1);
    std::remove(ref_path.c_str());
}

TEST(FeatureStore, TruncatedFilesRejected)
{
    const std::string path = tempPath("trunc.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 16;
    writeStore(path, 100, 2, opts);
    const std::string full = fileBytes(path);

    // Cut everywhere interesting: inside the header, inside a
    // block, inside the footer, and inside the trailer.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{10}, std::size_t{23},
          full.size() / 3, full.size() / 2, full.size() - 30,
          full.size() - 5, full.size() - 1}) {
        const std::string cut_path = tempPath("cut.tdfs");
        std::ofstream out(cut_path, std::ios::binary);
        out.write(full.data(),
                  static_cast<std::streamsize>(keep));
        out.close();
        std::string error;
        EXPECT_EQ(FeatureStoreReader::open(cut_path, &error),
                  nullptr)
            << "keep=" << keep;
        EXPECT_FALSE(error.empty());
        std::remove(cut_path.c_str());
    }
    std::remove(path.c_str());
}

TEST(FeatureStore, CorruptedBlockRejected)
{
    const std::string path = tempPath("corrupt.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 32;
    writeStore(path, 100, 2, opts);

    // Flip one byte in the middle of block 1's payload.
    std::string bytes = fileBytes(path);
    std::size_t victim;
    {
        const auto r = FeatureStoreReader::open(path);
        ASSERT_TRUE(r);
        ASSERT_GE(r->blockCount(), 2u);
        victim = static_cast<std::size_t>(r->blockInfo(1).offset) +
                 static_cast<std::size_t>(r->blockInfo(1).size) / 2;
    }
    bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    // open() succeeds (footer intact), verify() pinpoints the
    // block, and decoding through a cursor dies loudly instead of
    // returning garbage.
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    std::string detail;
    EXPECT_FALSE(r->verify(&detail));
    EXPECT_NE(detail.find("block 1"), std::string::npos) << detail;
    auto scan_all = [&r] {
        auto c = r->cursor();
        FeatureRecord rec;
        while (c.next(rec)) {
        }
    };
    EXPECT_DEATH(scan_all(), "corrupt feature store");

    // Corrupting the footer itself is caught at open.
    std::string footer_broken = bytes;
    footer_broken[footer_broken.size() - 20] ^= 0x01;
    {
        std::ofstream out(path, std::ios::binary);
        out.write(footer_broken.data(),
                  static_cast<std::streamsize>(footer_broken.size()));
    }
    std::string error;
    EXPECT_EQ(FeatureStoreReader::open(path, &error), nullptr);
    std::remove(path.c_str());
}

TEST(FeatureStore, RangeQueriesMatchBruteForce)
{
    const std::string path = tempPath("range.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 32;
    const std::size_t n = 1000;
    writeStore(path, n, 2, opts);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    ASSERT_TRUE(r->sortedByIteration());

    // Brute force: scan everything once.
    std::vector<FeatureRecord> all;
    {
        auto c = r->cursor();
        FeatureRecord rec;
        while (c.next(rec))
            all.push_back(rec);
    }
    ASSERT_EQ(all.size(), n);

    const std::pair<long, long> windows[] = {
        {0, 1},    {0, 1000}, {123, 457}, {500, 500},
        {31, 33},  {992, 2000}, {-10, 5},  {1500, 1600}};
    for (const auto &[lo, hi] : windows) {
        std::vector<FeatureRecord> got;
        const std::size_t appended = r->readRange(lo, hi, got);
        std::vector<const FeatureRecord *> want;
        for (const FeatureRecord &rec : all)
            if (rec.iteration >= lo && rec.iteration < hi)
                want.push_back(&rec);
        ASSERT_EQ(appended, want.size())
            << "[" << lo << ", " << hi << ")";
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            expectRecordsEqual(got[i], *want[i]);
    }
    std::remove(path.c_str());
}

TEST(FeatureStore, WriterGuardsMisuse)
{
    const std::string path = tempPath("guard.tdfs");
    StoreSchema schema;
    schema.coeffCount = 2;
    {
        FeatureStoreWriter w(path, schema);
        FeatureRecord bad = makeRecord(0, 3); // wrong coeff count
        EXPECT_DEATH(w.append(bad), "coefficients");
        w.append(makeRecord(0, 2));
        w.finish();
        EXPECT_DEATH(w.append(makeRecord(1, 2)), "finished");
    }
    std::remove(path.c_str());
}

/** Writer over a FaultyFile with the given plan. */
std::unique_ptr<FeatureStoreWriter>
faultyWriter(const std::string &path, std::size_t n_coeffs,
             StoreOptions opts, store::FaultPlan plan)
{
    store::IoError err;
    auto os = store::openOsFile(path, &err);
    EXPECT_TRUE(os) << err.message;
    StoreSchema schema;
    schema.coeffCount = n_coeffs;
    return std::make_unique<FeatureStoreWriter>(
        std::make_unique<store::FaultyFile>(std::move(os), plan),
        schema, opts);
}

/** Expect the salvage of @p path to hold records 0..n-1 of the
 *  makeRecord stream, bit for bit. */
void
expectSalvagePrefix(const std::string &path, std::size_t n,
                    std::size_t n_coeffs)
{
    std::string error;
    const auto r = FeatureStoreReader::salvage(path, &error);
    ASSERT_TRUE(r) << error;
    EXPECT_TRUE(r->salvaged());
    EXPECT_EQ(r->recordCount(), n);
    auto c = r->cursor();
    FeatureRecord rec;
    std::size_t i = 0;
    while (c.next(rec))
        expectRecordsEqual(rec, makeRecord(i++, n_coeffs));
    EXPECT_EQ(i, n);
}

TEST(StoreFault, CrashPointSweepRecoversSealedPrefix)
{
    constexpr std::size_t kRecords = 200;
    constexpr std::size_t kCoeffs = 2;
    StoreOptions opts;
    opts.blockCapacity = 16;

    // Honest reference: full bytes plus the block layout that
    // defines the interesting crash offsets.
    const std::string ref_path = tempPath("crash_ref.tdfs");
    writeStore(ref_path, kRecords, kCoeffs, opts);
    const std::string ref = fileBytes(ref_path);
    std::vector<store::BlockInfo> blocks;
    {
        const auto r = FeatureStoreReader::open(ref_path);
        ASSERT_TRUE(r);
        for (std::size_t b = 0; b < r->blockCount(); ++b)
            blocks.push_back(r->blockInfo(b));
    }
    ASSERT_GE(blocks.size(), 3u);
    const store::BlockInfo &last = blocks.back();
    const std::size_t footer_off =
        static_cast<std::size_t>(last.offset + last.size);

    // One representative crash byte per offset class.
    const std::size_t crash_points[] = {
        std::size_t{10},                                // mid-header
        static_cast<std::size_t>(blocks[0].offset) +
            static_cast<std::size_t>(blocks[0].size) / 2,
        static_cast<std::size_t>(blocks[1].offset),     // boundary
        static_cast<std::size_t>(last.offset) +
            static_cast<std::size_t>(last.size) - 1,    // mid-last
        footer_off + 5,                                 // mid-footer
        ref.size() - 8,                                 // mid-trailer
    };

    for (const std::size_t at : crash_points) {
        const std::string cut_path = tempPath("crash_cut.tdfs");
        {
            store::FaultPlan plan;
            plan.kind = store::FaultPlan::Kind::Crash;
            plan.atByte = at;
            auto w = faultyWriter(cut_path, kCoeffs, opts, plan);
            for (std::size_t i = 0; i < kRecords; ++i)
                w->append(makeRecord(i, kCoeffs));
            // The lying kernel never reports the loss; the writer
            // believes it finished a complete store.
            EXPECT_TRUE(w->ok()) << "at=" << at;
            w->finish();
        }

        // The torn file is the byte-exact honest prefix.
        EXPECT_EQ(fileBytes(cut_path), ref.substr(0, at))
            << "at=" << at;

        // Salvage recovers exactly the blocks sealed wholly below
        // the crash point, bit for bit.
        std::size_t sealed = 0;
        for (const store::BlockInfo &b : blocks)
            if (b.offset + b.size <= at)
                sealed += static_cast<std::size_t>(b.records);
        if (at < store::headerBytes) {
            std::string error;
            EXPECT_EQ(FeatureStoreReader::salvage(cut_path, &error),
                      nullptr);
            EXPECT_FALSE(error.empty());
        } else {
            expectSalvagePrefix(cut_path, sealed, kCoeffs);

            // And a recovered rewrite equals the store an honest
            // writer produces for the same record prefix.
            const std::string rec_path =
                tempPath("crash_rec.tdfs");
            const auto r = FeatureStoreReader::salvage(cut_path);
            ASSERT_TRUE(r);
            StoreOptions rec_opts;
            rec_opts.blockCapacity = r->blockCapacity();
            {
                FeatureStoreWriter w(rec_path, r->schema(),
                                     rec_opts);
                FeatureRecord rec;
                auto c = r->cursor();
                while (c.next(rec))
                    w.append(rec);
                EXPECT_GT(w.finish(), 0u);
            }
            const std::string honest_path =
                tempPath("crash_honest.tdfs");
            writeStore(honest_path, sealed, kCoeffs, opts);
            EXPECT_EQ(fileBytes(rec_path), fileBytes(honest_path))
                << "at=" << at;
            std::remove(rec_path.c_str());
            std::remove(honest_path.c_str());
        }
        std::remove(cut_path.c_str());
    }
    std::remove(ref_path.c_str());
}

TEST(StoreFault, TransientEioRetriesAndHeals)
{
    constexpr std::size_t kRecords = 120;
    constexpr std::size_t kCoeffs = 3;
    StoreOptions opts;
    opts.blockCapacity = 16;
    opts.retryBackoffUs = 0; // no sleeping in tests
    const std::string ref_path = tempPath("eio_ref.tdfs");
    writeStore(ref_path, kRecords, kCoeffs, opts);
    const std::string ref = fileBytes(ref_path);
    std::size_t block2_off;
    {
        const auto r = FeatureStoreReader::open(ref_path);
        ASSERT_TRUE(r);
        ASSERT_GE(r->blockCount(), 3u);
        block2_off = static_cast<std::size_t>(r->blockInfo(2).offset);
    }

    // Two EIO failures (with a torn short write landing a prefix)
    // at block 2, then the file heals: the retry loop truncates
    // back and rewrites, and the result is byte-identical to the
    // clean run.
    const std::string path = tempPath("eio.tdfs");
    store::FaultPlan plan;
    plan.kind = store::FaultPlan::Kind::ErrorAt;
    plan.atByte = block2_off + 7;
    plan.errCode = EIO;
    plan.failCount = 2;
    plan.shortWrite = true;
    {
        auto w = faultyWriter(path, kCoeffs, opts, plan);
        for (std::size_t i = 0; i < kRecords; ++i)
            EXPECT_TRUE(w->append(makeRecord(i, kCoeffs)));
        EXPECT_TRUE(w->ok()) << w->status().message;
        EXPECT_GT(w->finish(), 0u);
        EXPECT_EQ(w->droppedRecords(), 0u);
    }
    EXPECT_EQ(fileBytes(path), ref);
    std::remove(path.c_str());
    std::remove(ref_path.c_str());
}

TEST(StoreFault, PersistentEnospcDegradesWithoutAborting)
{
    constexpr std::size_t kRecords = 100;
    constexpr std::size_t kCoeffs = 2;
    StoreOptions opts;
    opts.blockCapacity = 16;
    opts.retryBackoffUs = 0;
    const std::string ref_path = tempPath("enospc_ref.tdfs");
    writeStore(ref_path, kRecords, kCoeffs, opts);
    std::size_t block2_off;
    {
        const auto r = FeatureStoreReader::open(ref_path);
        ASSERT_TRUE(r);
        block2_off = static_cast<std::size_t>(r->blockInfo(2).offset);
    }
    std::remove(ref_path.c_str());

    const std::string path = tempPath("enospc.tdfs");
    store::FaultPlan plan;
    plan.kind = store::FaultPlan::Kind::ErrorAt;
    plan.atByte = block2_off + 3;
    plan.errCode = ENOSPC; // non-transient: no retry burn
    {
        auto w = faultyWriter(path, kCoeffs, opts, plan);
        std::size_t accepted = 0;
        for (std::size_t i = 0; i < kRecords; ++i)
            if (w->append(makeRecord(i, kCoeffs)))
                ++accepted;
        // The writer degraded instead of dying; the sticky status
        // names ENOSPC and the failing offset.
        EXPECT_FALSE(w->ok());
        EXPECT_LT(accepted, kRecords);
        const store::IoError err = w->status();
        EXPECT_EQ(err.code, ENOSPC);
        EXPECT_NE(err.message.find("offset"), std::string::npos)
            << err.message;
        EXPECT_EQ(w->finish(), 0u);
        // Every record is either salvageable or counted lost.
        EXPECT_EQ(w->droppedRecords() + 2 * 16, kRecords);
    }
    // The two sealed blocks below the failure survive exactly.
    expectSalvagePrefix(path, 2 * 16, kCoeffs);
    std::remove(path.c_str());
}

TEST(StoreFault, SalvageMatchesFooterReaderOnIntactStore)
{
    const std::string path = tempPath("salvage_eq.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 8;
    writeStore(path, 83, 3, opts);

    std::string error;
    const auto a = FeatureStoreReader::open(path, &error);
    ASSERT_TRUE(a) << error;
    const auto b = FeatureStoreReader::salvage(path, &error);
    ASSERT_TRUE(b) << error;
    EXPECT_FALSE(a->salvaged());
    EXPECT_TRUE(b->salvaged());
    EXPECT_EQ(a->schema(), b->schema());
    EXPECT_EQ(a->recordCount(), b->recordCount());
    EXPECT_EQ(a->blockCount(), b->blockCount());
    EXPECT_EQ(a->columnNames(), b->columnNames());
    EXPECT_EQ(a->sortedByIteration(), b->sortedByIteration());
    // The scan stops exactly where the footer starts.
    EXPECT_EQ(b->droppedTailBytes(),
              a->fileBytes() -
                  static_cast<std::size_t>(
                      a->blockInfo(a->blockCount() - 1).offset +
                      a->blockInfo(a->blockCount() - 1).size));

    auto ca = a->cursor();
    auto cb = b->cursor();
    FeatureRecord ra, rb;
    while (ca.next(ra)) {
        ASSERT_TRUE(cb.next(rb));
        expectRecordsEqual(ra, rb);
    }
    EXPECT_FALSE(cb.next(rb));
    std::remove(path.c_str());
}

TEST(StoreFault, ReadFaultsFailOpenGracefullyThenHeal)
{
    const std::string path = tempPath("readfault.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 16;
    writeStore(path, 100, 2, opts);

    // Persistent EIO from byte 0: the header read fails and open()
    // reports it as a value, never a fatal.
    auto with_fault = [](std::uint64_t at) {
        return [at](const std::string &p,
                    store::IoError *err)
                   -> std::unique_ptr<store::ReadFile> {
            auto f = store::openOsReadFile(p, err);
            if (!f)
                return nullptr;
            store::ReadFaultPlan plan;
            plan.kind = store::ReadFaultPlan::Kind::ErrorAt;
            plan.atByte = at;
            plan.errCode = EIO;
            return std::make_unique<store::FaultyReadFile>(
                std::move(f), plan);
        };
    };
    std::string error;
    EXPECT_EQ(FeatureStoreReader::open(path, &error, with_fault(0)),
              nullptr);
    EXPECT_NE(error.find("header read failed"), std::string::npos)
        << error;

    // A fault inside the trailer window kills only the footer path;
    // salvage (which stops reading below it) still recovers every
    // sealed block.
    const std::size_t file_size = fileBytes(path).size();
    error.clear();
    EXPECT_EQ(FeatureStoreReader::open(path, &error,
                                       with_fault(file_size - 10)),
              nullptr);
    EXPECT_NE(error.find("read failed"), std::string::npos) << error;

    // A mid-file fault with a short read (the torn-tail race): the
    // salvage slurp fails as a value too.
    {
        auto factory = [file_size](const std::string &p,
                                   store::IoError *err)
            -> std::unique_ptr<store::ReadFile> {
            auto f = store::openOsReadFile(p, err);
            if (!f)
                return nullptr;
            store::ReadFaultPlan plan;
            plan.kind = store::ReadFaultPlan::Kind::ErrorAt;
            plan.atByte = file_size / 2;
            plan.errCode = EIO;
            plan.shortRead = true;
            return std::make_unique<store::FaultyReadFile>(
                std::move(f), plan);
        };
        error.clear();
        EXPECT_EQ(FeatureStoreReader::salvage(path, &error, factory),
                  nullptr);
        EXPECT_FALSE(error.empty());
    }

    // Transient fault budget: two opens fail, the third heals and
    // the healed reader verifies and streams every record.
    int budget = 2;
    auto healing = [&budget](const std::string &p,
                             store::IoError *err)
        -> std::unique_ptr<store::ReadFile> {
        auto f = store::openOsReadFile(p, err);
        if (!f || budget-- <= 0)
            return f;
        store::ReadFaultPlan plan;
        plan.kind = store::ReadFaultPlan::Kind::ErrorAt;
        plan.atByte = 0;
        plan.errCode = EIO;
        return std::make_unique<store::FaultyReadFile>(std::move(f),
                                                       plan);
    };
    EXPECT_EQ(FeatureStoreReader::open(path, &error, healing),
              nullptr);
    EXPECT_EQ(FeatureStoreReader::open(path, &error, healing),
              nullptr);
    const auto r = FeatureStoreReader::open(path, &error, healing);
    ASSERT_TRUE(r) << error;
    EXPECT_TRUE(r->verify(&error)) << error;
    auto c = r->cursor();
    FeatureRecord rec;
    std::size_t i = 0;
    while (c.next(rec))
        expectRecordsEqual(rec, makeRecord(i++, 2));
    EXPECT_EQ(i, 100u);
    std::remove(path.c_str());
}

TEST(StoreFault, FaultyReadFileCountsDownAndHeals)
{
    const std::string path = tempPath("countdown.tdfs");
    writeStore(path, 10, 1, StoreOptions());
    store::IoError err;
    auto inner = store::openOsReadFile(path, &err);
    ASSERT_TRUE(inner) << err.message;
    store::ReadFaultPlan plan;
    plan.kind = store::ReadFaultPlan::Kind::ErrorAt;
    plan.atByte = 4;
    plan.errCode = EIO;
    plan.failCount = 2;
    store::FaultyReadFile f(std::move(inner), plan);

    std::uint8_t buf[8];
    // Reads below the mark never fault.
    EXPECT_TRUE(f.readAt(0, buf, 4).ok());
    EXPECT_EQ(f.remainingFaults(), 2);
    // Reads crossing it burn the budget...
    EXPECT_EQ(f.readAt(0, buf, 8).code, EIO);
    EXPECT_EQ(f.readAt(4, buf, 4).code, EIO);
    EXPECT_EQ(f.remainingFaults(), 0);
    // ...then the file heals.
    EXPECT_TRUE(f.readAt(0, buf, 8).ok());
    EXPECT_EQ(std::memcmp(buf, store::headerMagic, 8), 0);
    std::remove(path.c_str());
}

TEST(StoreFault, UnopenablePathDegradesInsteadOfAborting)
{
    StoreSchema schema;
    schema.coeffCount = 1;
    FeatureStoreWriter w("/nonexistent-dir/sub/x.tdfs", schema);
    EXPECT_FALSE(w.ok());
    EXPECT_NE(w.status().code, 0);
    EXPECT_FALSE(w.append(makeRecord(0, 1)));
    EXPECT_EQ(w.finish(), 0u);
    EXPECT_EQ(w.droppedRecords(), 1u);
}

} // namespace
