/**
 * @file
 * Live-view tests: snapshot-isolated readers over a store that is
 * still being written (see live.hh). A view follows the data file
 * itself and adopts a block once a byte follows it. The
 * interleaving sweep refreshes after every single append of a
 * flush-per-seal writer and proves a view holds exactly the
 * committed blocks — k - 1 after seal k, all of them after finish();
 * the crash-point sweep tears the data file around every block
 * boundary and inside the footer and proves each view is
 * record-for-record (digest) equal to an honest store of the blocks
 * that end before the tear and, after the stall, of salvage's
 * prefix. Corrupt headers, shrunk files, injected read faults (with
 * healing), a vanished writer and a degraded one (stall ->
 * salvage-consistent static view) all land on the degrade-never-die
 * paths, and a counting read factory pins the cost bound: a refresh
 * reads only the bytes past the blocks it has adopted. The
 * concurrent battery — one writer, polling tail readers — is the
 * TSan entry for the live layer (label tsan_smoke via the TIER1_TSAN
 * build).
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "store/codec.hh"
#include "store/file.hh"
#include "store/live.hh"
#include "store/query.hh"
#include "store/reader.hh"
#include "store/writer.hh"
#include "tests/test_util.hh"

namespace
{

using namespace tdfe;
using test::tempPath;

/** Same deterministic stream as test_feature_store.cc. */
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
    if (i % 41 == 7)
        rec.predicted = std::numeric_limits<double>::quiet_NaN();
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
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(static_cast<bool>(out)) << path;
}

/** Order-sensitive digest of every record a reader yields — the
 *  observable the crash sweep compares across read paths. */
std::uint32_t
streamDigest(const FeatureStoreReader &r)
{
    std::vector<std::uint8_t> bytes;
    auto put = [&bytes](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        bytes.insert(bytes.end(), b, b + n);
    };
    auto c = r.cursor();
    FeatureRecord rec;
    while (c.next(rec)) {
        const std::int64_t iter = rec.iteration;
        const std::int64_t analysis = rec.analysis;
        const std::uint8_t stop = rec.stop ? 1 : 0;
        put(&iter, sizeof iter);
        put(&analysis, sizeof analysis);
        put(&stop, sizeof stop);
        put(&rec.wallTime, sizeof(double));
        put(&rec.wavefront, sizeof(double));
        put(&rec.predicted, sizeof(double));
        put(&rec.mse, sizeof(double));
        for (const double v : rec.coeffs)
            put(&v, sizeof(double));
    }
    return store::crc32(bytes.data(), bytes.size());
}

/** Digest of an honest (fresh, footer-backed) store holding records
 *  0..n-1 of the makeRecord stream. */
std::uint32_t
honestDigest(std::size_t n, std::size_t n_coeffs,
             std::size_t capacity)
{
    const std::string path = tempPath("honest_digest.tdfs");
    StoreOptions opts;
    opts.blockCapacity = capacity;
    {
        StoreSchema schema;
        schema.coeffCount = n_coeffs;
        FeatureStoreWriter w(path, schema, opts);
        for (std::size_t i = 0; i < n; ++i)
            w.append(makeRecord(i, n_coeffs));
        EXPECT_GT(w.finish(), 0u);
    }
    const auto r = FeatureStoreReader::open(path);
    EXPECT_TRUE(r);
    const std::uint32_t d = r ? streamDigest(*r) : 0;
    std::remove(path.c_str());
    return d;
}

/** Writer options of a followed store: flushed at every seal, so
 *  block k is committed (a byte follows it) at seal k + 1. */
StoreOptions
flushOptions(std::size_t capacity)
{
    StoreOptions opts;
    opts.blockCapacity = capacity;
    opts.durability = store::DurabilityPolicy::FlushPerSeal;
    return opts;
}

/** Poll knobs of the stall tests: degrade after a few idle polls. */
LiveViewOptions
quickStall()
{
    LiveViewOptions vopts;
    vopts.pollMinUs = 10;
    vopts.pollMaxUs = 100;
    vopts.stallDeadlineSeconds = 0.02;
    return vopts;
}

/** @return offset just past the last block @p r indexes. */
std::uint64_t
extentOf(const FeatureStoreReader &r)
{
    if (r.blockCount() == 0)
        return store::headerBytes;
    const store::BlockInfo &b = r.blockInfo(r.blockCount() - 1);
    return b.offset + b.size;
}

/**
 * One flush-per-seal run recorded seal by seal: the data-file bytes
 * after the header, after every seal, and after finish(). Every
 * later test reconstructs a crash scenario — a tear at any byte —
 * from these byte-exact artifacts.
 */
struct LiveRunArtifacts
{
    std::string dataInit;
    std::vector<std::string> dataAtSeal;
    std::string dataFinal;
};

LiveRunArtifacts
captureLiveRun(std::size_t records, std::size_t n_coeffs,
               std::size_t capacity)
{
    LiveRunArtifacts a;
    const std::string path = tempPath("capture.tdfs");
    StoreSchema schema;
    schema.coeffCount = n_coeffs;
    FeatureStoreWriter w(path, schema, flushOptions(capacity));
    // Flush per seal: after each seal the file on disk is exactly
    // the header plus the sealed blocks — capture it.
    a.dataInit = readBytes(path);
    EXPECT_EQ(a.dataInit.size(), store::headerBytes);
    for (std::size_t i = 0; i < records; ++i) {
        EXPECT_TRUE(w.append(makeRecord(i, n_coeffs)));
        if ((i + 1) % capacity == 0)
            a.dataAtSeal.push_back(readBytes(path));
    }
    EXPECT_GT(w.finish(), 0u);
    a.dataFinal = readBytes(path);
    std::remove(path.c_str());
    // Sealed blocks are immutable: every capture must extend the
    // previous one byte-for-byte.
    for (std::size_t s = 1; s < a.dataAtSeal.size(); ++s)
        EXPECT_EQ(a.dataAtSeal[s].compare(0, a.dataAtSeal[s - 1].size(),
                                          a.dataAtSeal[s - 1]),
                  0)
            << "seal " << s;
    return a;
}

TEST(LiveView, RefreshVsSealInterleavingNeverShowsPartialBlocks)
{
    constexpr std::size_t kRecords = 83;
    constexpr std::size_t kCoeffs = 3;
    constexpr std::size_t kCap = 16;
    const std::string path = tempPath("interleave.tdfs");
    StoreSchema schema;
    schema.coeffCount = kCoeffs;
    FeatureStoreWriter w(path, schema, flushOptions(kCap));

    LiveStoreReader live(path);
    EXPECT_FALSE(live.view().valid());
    EXPECT_FALSE(live.attached());
    // The header is flushed at open, so a reader attaches before the
    // first seal: an empty-but-valid Live view.
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.state(), LiveState::Live);
    EXPECT_TRUE(live.attached());
    EXPECT_EQ(live.generation(), 1u);
    EXPECT_EQ(live.view().recordCount(), 0u);
    EXPECT_EQ(live.view().blockCount(), 0u);

    TailCursor tail(live);
    FeatureRecord rec;
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < kRecords; ++i) {
        w.append(makeRecord(i, kCoeffs));
        const std::size_t seals = (i + 1) / kCap;
        const bool sealed_now = (i + 1) % kCap == 0;
        // Seal k commits block k - 1 (its bytes follow it); the
        // newest sealed block and the staged tail stay invisible.
        EXPECT_EQ(live.refresh(), sealed_now && seals >= 2)
            << "append " << i;
        const StoreView v = live.view();
        EXPECT_EQ(v.blockCount(), seals > 0 ? seals - 1 : 0)
            << "append " << i;
        EXPECT_EQ(v.recordCount(), v.blockCount() * kCap);
        // One generation per adoption.
        EXPECT_EQ(v.generation(), 1 + v.blockCount());
        EXPECT_FALSE(tail.done());
        while (tail.next(rec))
            expectRecordsEqual(rec, makeRecord(delivered++, kCoeffs));
        EXPECT_EQ(delivered, v.recordCount());
    }

    w.finish();
    // The footer commits the last sealed block and the partial one.
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.state(), LiveState::Final);
    EXPECT_EQ(live.view().recordCount(), kRecords);
    while (tail.next(rec))
        expectRecordsEqual(rec, makeRecord(delivered++, kCoeffs));
    EXPECT_EQ(delivered, kRecords);
    EXPECT_TRUE(tail.done());
    EXPECT_EQ(tail.recordsDelivered(), kRecords);
    EXPECT_EQ(live.refreshRejects(), 0u);
    EXPECT_FALSE(live.refresh()); // terminal: no further advance
    std::remove(path.c_str());
}

TEST(LiveView, PinnedViewsAreSnapshotIsolated)
{
    constexpr std::size_t kCoeffs = 2;
    constexpr std::size_t kCap = 16;
    const std::string path = tempPath("pin.tdfs");
    StoreSchema schema;
    schema.coeffCount = kCoeffs;
    FeatureStoreWriter w(path, schema, flushOptions(kCap));
    for (std::size_t i = 0; i < 3 * kCap; ++i)
        w.append(makeRecord(i, kCoeffs));

    LiveStoreReader live(path);
    ASSERT_TRUE(live.refresh());
    const StoreView v1 = live.view();
    EXPECT_EQ(v1.recordCount(), 2 * kCap);

    for (std::size_t i = 3 * kCap; i < 5 * kCap; ++i)
        w.append(makeRecord(i, kCoeffs));
    ASSERT_TRUE(live.refresh());
    const StoreView v2 = live.view();
    EXPECT_GT(v2.generation(), v1.generation());
    EXPECT_EQ(v2.recordCount(), 4 * kCap);

    // The old pin is untouched by the advance: same block count,
    // and its cursor yields exactly the records it always did.
    EXPECT_EQ(v1.recordCount(), 2 * kCap);
    auto c = v1.reader().cursor();
    FeatureRecord rec;
    std::size_t i = 0;
    while (c.next(rec))
        expectRecordsEqual(rec, makeRecord(i++, kCoeffs));
    EXPECT_EQ(i, 2 * kCap);

    // The full query engine (zone-map pushdown included) runs
    // against a pinned mid-write view exactly as on a finished
    // store: same results as brute force, fewer blocks decoded.
    EventFilter filter;
    filter.where({metricColumnIndex("mse"), PredOp::Gt, 0.2});
    v2.reader().resetIoStats();
    QueryCursor q(v2.reader(), filter);
    std::size_t hits = 0;
    while (q.next(rec)) {
        EXPECT_TRUE(filter.matches(rec));
        ++hits;
    }
    std::size_t want = 0;
    for (std::size_t r = 0; r < 4 * kCap; ++r)
        if (filter.matches(makeRecord(r, kCoeffs)))
            ++want;
    EXPECT_EQ(hits, want);
    EXPECT_LT(v2.reader().blocksDecoded(), v2.blockCount());

    w.finish();
    std::remove(path.c_str());
}

TEST(LiveView, TailFilterMatchesBruteForce)
{
    constexpr std::size_t kRecords = 150;
    constexpr std::size_t kCoeffs = 2;
    const std::string path = tempPath("tailfilter.tdfs");
    StoreSchema schema;
    schema.coeffCount = kCoeffs;
    FeatureStoreWriter w(path, schema, flushOptions(16));

    EventFilter filter;
    filter.analysisIs(1).where(
        {metricColumnIndex("mse"), PredOp::Lt, 0.05});
    LiveStoreReader live(path);
    TailCursor tail(live, filter);

    std::vector<FeatureRecord> want;
    FeatureRecord rec;
    std::vector<FeatureRecord> got;
    for (std::size_t i = 0; i < kRecords; ++i) {
        const FeatureRecord r = makeRecord(i, kCoeffs);
        w.append(r);
        if (filter.matches(r))
            want.push_back(r);
        live.refresh();
        while (tail.next(rec))
            got.push_back(rec);
    }
    w.finish();
    ASSERT_TRUE(live.refresh());
    while (tail.next(rec))
        got.push_back(rec);
    EXPECT_TRUE(tail.done());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectRecordsEqual(got[i], want[i]);
    std::remove(path.c_str());
}

TEST(LiveView, FilteredTailDecodesOnlyBlocksItsFilterAdmits)
{
    // The tail's filter runs inside its QueryCursor: across snapshot
    // advances, blocks the iteration bounds or the zone map rule out
    // are never decoded for records, yet the tail yields exactly the
    // filtered records of the finished store.
    constexpr std::size_t kRecords = 330;
    constexpr std::size_t kCoeffs = 2;
    constexpr std::size_t kCap = 16;
    const std::string path = tempPath("tailpushdown.tdfs");
    StoreSchema schema;
    schema.coeffCount = kCoeffs;
    FeatureStoreWriter w(path, schema, flushOptions(kCap));

    const EventFilter filter =
        EventFilter().analysisIs(1).iterRange(100, 200);
    LiveStoreReader live(path);
    TailCursor tail(live, filter);
    std::vector<FeatureRecord> got;
    std::size_t decoded = 0;
    std::size_t advances = 0;
    // Refresh, drain the tail, and count the record decodes of the
    // snapshot it drained (adoption's validation decodes are reset).
    const auto drain = [&] {
        ASSERT_TRUE(live.refresh());
        ++advances;
        const StoreView v = live.view();
        FeatureRecord rec;
        while (tail.next(rec))
            got.push_back(rec);
        decoded += v.reader().blocksDecoded();
    };
    for (std::size_t i = 0; i < kRecords; ++i) {
        w.append(makeRecord(i, kCoeffs));
        if ((i + 1) % (3 * kCap) == 0)
            drain();
    }
    w.finish();
    drain();
    EXPECT_TRUE(tail.done());
    EXPECT_GE(advances, 5u);

    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    const std::vector<FeatureRecord> want = test::bruteFilter(*r, filter);
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectRecordsEqual(got[i], want[i]);
    EXPECT_GT(decoded, 0u);
    EXPECT_LT(decoded, r->blockCount());
    std::remove(path.c_str());
}

TEST(LiveView, FooterFallbackServesFinishedStores)
{
    // A finished store: the reader attaches through the footer as a
    // Final view. The zero-block store is the regression the live
    // path exposed — empty-but-valid must attach, not error.
    for (const std::size_t records : {std::size_t{0}, std::size_t{37}}) {
        const std::string path = tempPath("fallback.tdfs");
        StoreOptions opts;
        opts.blockCapacity = 16;
        StoreSchema schema;
        schema.coeffCount = 2;
        {
            FeatureStoreWriter w(path, schema, opts);
            for (std::size_t i = 0; i < records; ++i)
                w.append(makeRecord(i, 2));
            EXPECT_GT(w.finish(), 0u);
        }
        LiveStoreReader live(path);
        ASSERT_TRUE(live.refresh()) << records;
        EXPECT_EQ(live.state(), LiveState::Final);
        EXPECT_EQ(live.view().recordCount(), records);
        TailCursor tail(live);
        FeatureRecord rec;
        std::size_t i = 0;
        while (tail.next(rec))
            expectRecordsEqual(rec, makeRecord(i++, 2));
        EXPECT_EQ(i, records);
        EXPECT_TRUE(tail.done());
        std::remove(path.c_str());
    }
}

/** ReadFile that logs every readAt as (offset, bytes). */
class LoggingReadFile final : public store::ReadFile
{
  public:
    using Log = std::vector<std::pair<std::uint64_t, std::size_t>>;

    LoggingReadFile(std::unique_ptr<store::ReadFile> inner,
                    std::shared_ptr<Log> log)
        : inner_(std::move(inner)), log_(std::move(log))
    {
    }

    store::IoError
    readAt(std::uint64_t offset, void *dst, std::size_t n) const override
    {
        log_->emplace_back(offset, n);
        return inner_->readAt(offset, dst, n);
    }
    std::uint64_t size() const override { return inner_->size(); }
    const std::string &path() const override { return inner_->path(); }

  private:
    std::unique_ptr<store::ReadFile> inner_;
    std::shared_ptr<Log> log_;
};

TEST(LiveView, RefreshReadsOnlyNewBytes)
{
    // The cost bound of following the data file: once attached, a
    // refresh reads nothing below the blocks it already adopted but
    // the 24-byte header check and the 16-byte trailer probe — no
    // index is re-read, no adopted block is re-checked — and in
    // total at most those two plus the bytes past the adopted
    // extent.
    constexpr std::size_t kCap = 16;
    constexpr std::size_t kSeals = 12;
    const std::string path = tempPath("readcost.tdfs");
    auto log = std::make_shared<LoggingReadFile::Log>();
    LiveViewOptions vopts;
    vopts.fileFactory = [log](const std::string &p, store::IoError *err)
        -> std::unique_ptr<store::ReadFile> {
        auto f = store::openOsReadFile(p, err);
        if (!f)
            return nullptr;
        return std::make_unique<LoggingReadFile>(std::move(f), log);
    };
    StoreSchema schema;
    schema.coeffCount = 2;
    FeatureStoreWriter w(path, schema, flushOptions(kCap));
    LiveStoreReader live(path, vopts);
    ASSERT_TRUE(live.refresh());

    std::size_t appended = 0;
    auto check_refresh = [&](bool final_refresh) {
        const std::uint64_t extent = extentOf(live.view().reader());
        const std::uint64_t size = readBytes(path).size();
        log->clear();
        EXPECT_TRUE(live.refresh());
        EXPECT_EQ(live.state(),
                  final_refresh ? LiveState::Final : LiveState::Live);
        std::uint64_t total = 0;
        for (const auto &[offset, n] : *log) {
            total += n;
            const bool header = offset == 0 && n == store::headerBytes;
            const bool trailer = n == store::trailerBytes;
            EXPECT_TRUE(offset >= extent || header || trailer)
                << "read of " << n << " bytes at " << offset
                << " below the adopted extent " << extent;
        }
        EXPECT_LE(total, store::headerBytes + store::trailerBytes +
                             (size - extent));
    };
    for (std::size_t s = 0; s < kSeals; ++s) {
        for (std::size_t i = 0; i < kCap; ++i)
            w.append(makeRecord(appended++, 2));
        if (s > 0) // seal s commits block s - 1
            check_refresh(false);
    }
    for (std::size_t i = 0; i < kCap / 2; ++i)
        w.append(makeRecord(appended++, 2));
    EXPECT_GT(w.finish(), 0u);
    check_refresh(true);
    EXPECT_EQ(live.view().recordCount(), appended);
    EXPECT_EQ(streamDigest(live.view().reader()),
              honestDigest(appended, 2, kCap));
    std::remove(path.c_str());
}

TEST(LiveView, UnpinnedViewReaderIsFatal)
{
    const StoreView v;
    EXPECT_FALSE(v.valid());
    EXPECT_EQ(v.generation(), 0u);
    EXPECT_EQ(v.recordCount(), 0u);
    EXPECT_DEATH(v.reader(), "unpinned");
}

TEST(LiveView, HeaderOnlyStoreAttachesEmptyThenStallDegrades)
{
    // Before the writer's header is down the reader waits — a
    // missing file or a partial header is no reject. The on-disk
    // state after a writer crashed before its first seal is a
    // header-only data file: a live reader must attach (empty view),
    // and a stall must degrade it to a frozen WriterLost view
    // without inventing or losing records.
    const LiveRunArtifacts a = captureLiveRun(40, 2, 16);
    const std::string path = tempPath("headeronly.tdfs");
    std::remove(path.c_str());
    LiveStoreReader live(path, quickStall());
    EXPECT_FALSE(live.refresh());
    writeBytes(path, a.dataInit.substr(0, store::headerBytes - 1));
    EXPECT_FALSE(live.refresh());
    EXPECT_EQ(live.state(), LiveState::Waiting);
    EXPECT_EQ(live.refreshRejects(), 0u);

    writeBytes(path, a.dataInit);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.state(), LiveState::Live);
    EXPECT_EQ(live.view().recordCount(), 0u);
    EXPECT_EQ(live.view().blockCount(), 0u);

    EXPECT_FALSE(live.waitForAdvance());
    EXPECT_EQ(live.state(), LiveState::WriterLost);
    EXPECT_TRUE(live.view().valid());
    EXPECT_EQ(live.view().recordCount(), 0u);
    TailCursor tail(live);
    FeatureRecord rec;
    EXPECT_FALSE(tail.next(rec));
    EXPECT_TRUE(tail.done());
    std::remove(path.c_str());
}

TEST(LiveFault, CrashPointSweepViewEqualsHonestSealedPrefix)
{
    // A data file torn at byte N: a live view holds exactly the
    // blocks that end before N (a byte follows each of them), and is
    // digest-equal to an honest footer-backed store of those
    // records. After the stall it holds salvage's prefix — which
    // also takes a block ending exactly at N — as WriterLost. Tears
    // sit a few bytes short of, exactly at, one past, and a few
    // bytes past every block end, inside the footer, and at the full
    // file, which is Final at once.
    constexpr std::size_t kRecords = 200;
    constexpr std::size_t kCoeffs = 2;
    constexpr std::size_t kCap = 16;
    const LiveRunArtifacts a = captureLiveRun(kRecords, kCoeffs, kCap);
    const std::string &full = a.dataFinal;
    const std::string path = tempPath("crash_live.tdfs");

    writeBytes(path, full);
    std::vector<std::uint64_t> ends;
    std::vector<std::size_t> recordsBefore = {0};
    {
        const auto r = FeatureStoreReader::open(path);
        ASSERT_TRUE(r);
        for (std::size_t b = 0; b < r->blockCount(); ++b) {
            const store::BlockInfo &info = r->blockInfo(b);
            ends.push_back(info.offset + info.size);
            recordsBefore.push_back(recordsBefore.back() +
                                    info.records);
        }
    }
    ASSERT_GE(ends.size(), 4u);
    std::vector<std::uint64_t> tears;
    for (const std::uint64_t e : ends)
        for (const std::uint64_t at : {e - 3, e, e + 1, e + 7})
            tears.push_back(at);
    tears.push_back(full.size() - 1);
    tears.push_back(full.size());

    std::vector<std::uint32_t> honest(recordsBefore.size());
    for (std::size_t k = 0; k < honest.size(); ++k)
        honest[k] = honestDigest(recordsBefore[k], kCoeffs, kCap);
    for (const std::uint64_t at : tears) {
        SCOPED_TRACE("tear at " + std::to_string(at));
        writeBytes(path, full.substr(0, static_cast<std::size_t>(at)));
        std::size_t before = 0, upto = 0;
        for (const std::uint64_t e : ends) {
            before += e < at ? 1 : 0;
            upto += e <= at ? 1 : 0;
        }
        LiveStoreReader live(path, quickStall());
        ASSERT_TRUE(live.refresh());
        const StoreView v = live.view();
        if (at == full.size()) {
            EXPECT_EQ(live.state(), LiveState::Final);
            EXPECT_EQ(v.recordCount(), kRecords);
            EXPECT_EQ(streamDigest(v.reader()), honest.back());
            continue;
        }
        EXPECT_EQ(live.state(), LiveState::Live);
        EXPECT_EQ(v.blockCount(), before);
        EXPECT_EQ(v.recordCount(), recordsBefore[before]);
        EXPECT_EQ(streamDigest(v.reader()), honest[before]);

        EXPECT_FALSE(live.waitForAdvance());
        EXPECT_EQ(live.state(), LiveState::WriterLost);
        const StoreView lost = live.view();
        EXPECT_EQ(lost.blockCount(), upto);
        EXPECT_EQ(streamDigest(lost.reader()), honest[upto]);
        const auto salvaged = FeatureStoreReader::salvage(path);
        ASSERT_TRUE(salvaged);
        EXPECT_EQ(streamDigest(lost.reader()), streamDigest(*salvaged));
        EXPECT_EQ(live.refreshRejects(), 0u);
    }
    std::remove(path.c_str());
}

TEST(LiveFault, ShrunkDataFileIsRejected)
{
    // A data file shorter than the blocks a view has adopted is not
    // a later state of the store it followed: reject, and keep the
    // snapshot serving — also for a file cut below its header or
    // removed. The file growing back past the extent advances again.
    const LiveRunArtifacts a = captureLiveRun(100, 2, 16);
    ASSERT_GE(a.dataAtSeal.size(), 6u);
    const std::string path = tempPath("shrunk.tdfs");
    writeBytes(path, a.dataAtSeal[3]);
    LiveStoreReader live(path);
    ASSERT_TRUE(live.refresh());
    const std::uint64_t gen = live.generation();
    EXPECT_EQ(live.view().recordCount(), 48u);

    std::uint64_t rejects = 0;
    auto expect_rejected = [&](const std::string &label) {
        EXPECT_FALSE(live.refresh()) << label;
        EXPECT_EQ(live.refreshRejects(), ++rejects) << label;
        EXPECT_EQ(live.generation(), gen) << label;
        EXPECT_EQ(live.view().recordCount(), 48u) << label;
        EXPECT_EQ(live.state(), LiveState::Live) << label;
    };
    writeBytes(path, a.dataAtSeal[1]);
    expect_rejected("cut to two blocks");
    EXPECT_NE(live.lastError().find("shrank"), std::string::npos)
        << live.lastError();
    writeBytes(path, a.dataInit.substr(0, 10));
    expect_rejected("cut below the header");
    std::remove(path.c_str());
    expect_rejected("removed");

    writeBytes(path, a.dataAtSeal[5]);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 80u);
    EXPECT_EQ(streamDigest(live.view().reader()), honestDigest(80, 2, 16));
    std::remove(path.c_str());
}

TEST(LiveFault, CorruptDataHeaderIsRejected)
{
    // A data file whose header magic was flipped is no longer a
    // feature store, and a live view must say so exactly as open()
    // and salvage() do — never serve the blocks behind it.
    const LiveRunArtifacts a = captureLiveRun(100, 2, 16);
    const std::string path = tempPath("badheader.tdfs");
    auto corrupt = [](std::string data) {
        data[0] ^= 0x20;
        return data;
    };
    writeBytes(path, corrupt(a.dataAtSeal[2]));

    LiveStoreReader fresh(path);
    EXPECT_FALSE(fresh.refresh());
    EXPECT_FALSE(fresh.attached());
    EXPECT_EQ(fresh.refreshRejects(), 1u);
    EXPECT_NE(fresh.lastError().find("bad header magic"),
              std::string::npos)
        << fresh.lastError();
    std::string error;
    EXPECT_EQ(FeatureStoreReader::salvage(path, &error), nullptr);
    EXPECT_NE(error.find("bad header magic"), std::string::npos)
        << error;

    // An attached view meeting the same corruption on a later poll
    // rejects it and keeps serving its snapshot.
    writeBytes(path, a.dataAtSeal[2]);
    LiveStoreReader live(path);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 32u);
    writeBytes(path, corrupt(a.dataAtSeal[3]));
    EXPECT_FALSE(live.refresh());
    EXPECT_EQ(live.refreshRejects(), 1u);
    EXPECT_NE(live.lastError().find("bad header magic"),
              std::string::npos)
        << live.lastError();
    EXPECT_EQ(live.view().recordCount(), 32u);
    EXPECT_EQ(live.state(), LiveState::Live);
    std::remove(path.c_str());
}

TEST(LiveFault, InjectedReadFaultsRejectThenHeal)
{
    const LiveRunArtifacts a = captureLiveRun(120, 2, 16);
    const std::string path = tempPath("readfault.tdfs");
    writeBytes(path, a.dataAtSeal[4]);

    // Per opened file (one per refresh), the offset from which its
    // reads fail with EIO; -1 opens it healthy.
    const std::vector<long> plan = {0, long(store::headerBytes), -1,
                                    long(store::headerBytes), -1};
    auto opens = std::make_shared<std::size_t>(0);
    LiveViewOptions vopts;
    vopts.fileFactory = [plan, opens](const std::string &p,
                                      store::IoError *err)
        -> std::unique_ptr<store::ReadFile> {
        auto f = store::openOsReadFile(p, err);
        if (!f)
            return nullptr;
        const std::size_t k = (*opens)++;
        if (k >= plan.size() || plan[k] < 0)
            return f;
        store::ReadFaultPlan fault;
        fault.kind = store::ReadFaultPlan::Kind::ErrorAt;
        fault.atByte = static_cast<std::uint64_t>(plan[k]);
        fault.errCode = EIO;
        return std::make_unique<store::FaultyReadFile>(std::move(f),
                                                       fault);
    };
    LiveStoreReader live(path, vopts);
    // Attempt 1: the header read faults.
    EXPECT_FALSE(live.refresh());
    EXPECT_EQ(live.refreshRejects(), 1u);
    EXPECT_NE(live.lastError().find("header read failed"),
              std::string::npos)
        << live.lastError();
    // Attempt 2: the header reads, the bytes past it fault.
    EXPECT_FALSE(live.refresh());
    EXPECT_EQ(live.refreshRejects(), 2u);
    EXPECT_NE(live.lastError().find("injected read"), std::string::npos)
        << live.lastError();
    EXPECT_FALSE(live.attached());
    // Attempt 3: healed end to end.
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 64u);
    EXPECT_EQ(streamDigest(live.view().reader()),
              honestDigest(64, 2, 16));

    // Attached: a fault past the adopted blocks rejects that poll
    // only, and the next one adopts the new blocks.
    writeBytes(path, a.dataAtSeal[6]);
    EXPECT_FALSE(live.refresh());
    EXPECT_EQ(live.refreshRejects(), 3u);
    EXPECT_EQ(live.view().recordCount(), 64u);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 96u);
    EXPECT_EQ(streamDigest(live.view().reader()),
              honestDigest(96, 2, 16));
    std::remove(path.c_str());
}

TEST(LiveFault, VanishedWriterDegradesToSalvagedPrefix)
{
    // Crash scene: the writer sealed its 4th block and died before
    // writing another byte. The view follows it to the three blocks
    // that bytes follow; the stall then degrades it to WriterLost on
    // salvage's 4-block prefix — growing from its adopted snapshot,
    // never shrinking — and a tail across the degrade delivers every
    // salvageable record exactly once.
    const LiveRunArtifacts a = captureLiveRun(120, 2, 16);
    ASSERT_GE(a.dataAtSeal.size(), 5u);
    const std::string path = tempPath("vanish.tdfs");
    writeBytes(path, a.dataAtSeal[2]);

    LiveStoreReader live(path, quickStall());
    TailCursor tail(live);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 32u);
    FeatureRecord rec;
    std::size_t delivered = 0;
    while (tail.next(rec))
        expectRecordsEqual(rec, makeRecord(delivered++, 2));
    EXPECT_EQ(delivered, 32u);

    writeBytes(path, a.dataAtSeal[3]);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 48u);
    EXPECT_FALSE(tail.done());

    EXPECT_FALSE(live.waitForAdvance());
    EXPECT_EQ(live.state(), LiveState::WriterLost);
    const StoreView v = live.view();
    EXPECT_EQ(v.recordCount(), 64u);
    EXPECT_EQ(streamDigest(v.reader()), honestDigest(64, 2, 16));
    while (tail.next(rec))
        expectRecordsEqual(rec, makeRecord(delivered++, 2));
    EXPECT_EQ(delivered, 64u);
    EXPECT_TRUE(tail.done());
    std::remove(path.c_str());
}

TEST(LiveFault, DegradedWriterTailEndsOnSalvagePrefix)
{
    // A writer that degrades (persistent ENOSPC on its 5th block)
    // cuts the file back to its sealed prefix and stops extending
    // it. A view that followed it ends at the stall deadline as
    // WriterLost on salvage's prefix — every sealed block, nothing
    // torn — never on anything the failed write left behind.
    constexpr std::size_t kCap = 16;
    const LiveRunArtifacts a = captureLiveRun(6 * kCap, 2, kCap);
    const std::string path = tempPath("degraded.tdfs");
    store::IoError err;
    auto file = store::openOsFile(path, &err);
    ASSERT_TRUE(file) << err.message;
    store::FaultPlan plan;
    plan.kind = store::FaultPlan::Kind::ErrorAt;
    plan.atByte = a.dataAtSeal[3].size() + 5;
    plan.errCode = ENOSPC;
    plan.shortWrite = true;
    StoreSchema schema;
    schema.coeffCount = 2;
    StoreOptions opts = flushOptions(kCap);
    opts.retryBackoffUs = 0;
    FeatureStoreWriter w(
        std::make_unique<store::FaultyFile>(std::move(file), plan),
        schema, opts);

    LiveStoreReader live(path, quickStall());
    TailCursor tail(live);
    std::size_t appended = 0;
    for (; appended < 6 * kCap; ++appended) {
        if (!w.append(makeRecord(appended, 2)))
            break;
        live.refresh();
    }
    EXPECT_FALSE(w.ok());
    EXPECT_EQ(w.status().code, ENOSPC);
    EXPECT_EQ(readBytes(path), a.dataAtSeal[3]);
    EXPECT_EQ(live.view().recordCount(), 3 * kCap);

    EXPECT_FALSE(live.waitForAdvance());
    EXPECT_EQ(live.state(), LiveState::WriterLost);
    EXPECT_EQ(live.view().recordCount(), 4 * kCap);
    EXPECT_EQ(streamDigest(live.view().reader()),
              honestDigest(4 * kCap, 2, kCap));
    FeatureRecord rec;
    std::size_t delivered = 0;
    while (tail.next(rec))
        expectRecordsEqual(rec, makeRecord(delivered++, 2));
    EXPECT_EQ(delivered, 4 * kCap);
    EXPECT_TRUE(tail.done());
    EXPECT_EQ(w.finish(), 0u);
    std::remove(path.c_str());
}

TEST(LiveTsan, ConcurrentWriterAndPollingReaders)
{
    constexpr std::size_t kRecords = 1200;
    constexpr std::size_t kCoeffs = 3;
    constexpr std::size_t kCap = 32;
    constexpr int kReaders = 2;
    const std::string path = tempPath("tsan_live.tdfs");
    std::remove(path.c_str());
    std::atomic<bool> writer_ok{true};
    std::thread writer([&] {
        StoreSchema schema;
        schema.coeffCount = kCoeffs;
        FeatureStoreWriter w(path, schema, flushOptions(kCap));
        for (std::size_t i = 0; i < kRecords; ++i) {
            if (!w.append(makeRecord(i, kCoeffs)))
                writer_ok.store(false);
            // Pace the seals so the readers follow the file mid-write
            // instead of meeting the finished store's footer.
            if ((i + 1) % kCap == 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
        }
        if (w.finish() == 0)
            writer_ok.store(false);
    });

    std::vector<std::thread> readers;
    std::vector<std::size_t> delivered(kReaders, 0);
    std::vector<std::size_t> out_of_order(kReaders, 0);
    std::vector<std::uint64_t> generations(kReaders, 0);
    for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
            LiveViewOptions vopts;
            vopts.pollMinUs = 20;
            vopts.pollMaxUs = 2000;
            vopts.stallDeadlineSeconds = 30.0;
            LiveStoreReader live(path, vopts);
            TailCursor tail(live);
            FeatureRecord rec;
            std::size_t next_iter = 0;
            while (!tail.done()) {
                if (tail.next(rec)) {
                    if (rec.iteration != static_cast<long>(next_iter))
                        ++out_of_order[t];
                    ++next_iter;
                    continue;
                }
                live.waitForAdvance(0.05);
            }
            delivered[t] = next_iter;
            generations[t] = live.generation();
        });
    }
    writer.join();
    for (std::thread &r : readers)
        r.join();
    EXPECT_TRUE(writer_ok.load());
    for (int t = 0; t < kReaders; ++t) {
        EXPECT_EQ(delivered[t], kRecords) << "reader " << t;
        EXPECT_EQ(out_of_order[t], 0u) << "reader " << t;
        std::printf("reader %d: %llu generations\n", t,
                    static_cast<unsigned long long>(generations[t]));
    }
    std::remove(path.c_str());
}

} // namespace
