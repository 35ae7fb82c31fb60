/**
 * @file
 * Live-view tests: snapshot-isolated readers over a store that is
 * still being written (see live.hh / manifest.hh). The interleaving
 * sweep refreshes after every single append and proves a view only
 * ever describes whole sealed blocks; the crash-point sweep crosses
 * data-file tears with every manifest generation and proves each
 * adopted view is record-for-record (digest) equal to an honest
 * store of the same sealed prefix, while a manifest that runs ahead
 * of the torn data file is rejected without disturbing the serving
 * snapshot. Torn/garbage sidecars, injected read faults (with
 * healing), a vanished writer (stall -> salvage-consistent static
 * view), and a failing manifest path (live-only sticky degrade) all
 * land on the degrade-never-die paths. The concurrent battery —
 * one writer, polling tail readers — is the TSan entry for the live
 * layer (label tsan_smoke via the TIER1_TSAN build).
 */

#include <atomic>
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
#include <thread>
#include <vector>

#include "store/codec.hh"
#include "store/file.hh"
#include "store/frame.hh"
#include "store/live.hh"
#include "store/manifest.hh"
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

void
removeStore(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(store::manifestPathFor(path).c_str());
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

/**
 * One live run recorded publication by publication: the data-file
 * and sidecar bytes after init (generation 1, empty prefix), after
 * every seal, and after finish(). Every later test reconstructs any
 * crash scenario — any data tear crossed with any manifest state —
 * from these byte-exact artifacts.
 */
struct LiveRunArtifacts
{
    std::string dataInit, manifestInit;
    std::vector<std::string> dataAtSeal, manifestAtSeal;
    std::string dataFinal, manifestFinal;
    std::size_t records = 0, coeffs = 0, capacity = 0;
};

LiveRunArtifacts
captureLiveRun(std::size_t records, std::size_t n_coeffs,
               std::size_t capacity)
{
    LiveRunArtifacts a;
    a.records = records;
    a.coeffs = n_coeffs;
    a.capacity = capacity;
    const std::string path = tempPath("capture.tdfs");
    const std::string mpath = store::manifestPathFor(path);
    StoreOptions opts;
    opts.blockCapacity = capacity;
    opts.live = true;
    StoreSchema schema;
    schema.coeffCount = n_coeffs;
    FeatureStoreWriter w(path, schema, opts);
    // Sync mode + DurabilityPolicy::None: publishManifest flushes
    // the data file before the rename, so after each seal both
    // files on disk are mutually consistent — capture them.
    a.dataInit = readBytes(path);
    a.manifestInit = readBytes(mpath);
    for (std::size_t i = 0; i < records; ++i) {
        EXPECT_TRUE(w.append(makeRecord(i, n_coeffs)));
        if ((i + 1) % capacity == 0) {
            a.dataAtSeal.push_back(readBytes(path));
            a.manifestAtSeal.push_back(readBytes(mpath));
        }
    }
    EXPECT_GT(w.finish(), 0u);
    EXPECT_TRUE(w.liveOk());
    a.dataFinal = readBytes(path);
    a.manifestFinal = readBytes(mpath);
    removeStore(path);
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
    StoreOptions opts;
    opts.blockCapacity = kCap;
    opts.live = true;
    StoreSchema schema;
    schema.coeffCount = kCoeffs;
    FeatureStoreWriter w(path, schema, opts);

    LiveStoreReader live(path);
    EXPECT_FALSE(live.view().valid());
    EXPECT_FALSE(live.attached());
    // The writer's init publication lets a reader attach before the
    // first seal: an empty-but-valid Live view.
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.state(), LiveState::Live);
    EXPECT_TRUE(live.attached());
    EXPECT_EQ(live.view().recordCount(), 0u);
    EXPECT_EQ(live.view().blockCount(), 0u);

    TailCursor tail(live);
    FeatureRecord rec;
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < kRecords; ++i) {
        w.append(makeRecord(i, kCoeffs));
        const bool sealed = (i + 1) % kCap == 0;
        EXPECT_EQ(live.refresh(), sealed) << "append " << i;
        // A view only ever describes whole sealed blocks, never the
        // staged tail.
        const StoreView v = live.view();
        EXPECT_EQ(v.recordCount() % kCap, 0u);
        EXPECT_EQ(v.recordCount(), ((i + 1) / kCap) * kCap);
        EXPECT_FALSE(tail.done());
        while (tail.next(rec))
            expectRecordsEqual(rec, makeRecord(delivered++, kCoeffs));
        EXPECT_EQ(delivered, v.recordCount());
    }

    w.finish();
    ASSERT_TRUE(live.refresh()); // final manifest, partial block in
    EXPECT_EQ(live.state(), LiveState::Final);
    EXPECT_FALSE(live.view().degraded());
    while (tail.next(rec))
        expectRecordsEqual(rec, makeRecord(delivered++, kCoeffs));
    EXPECT_EQ(delivered, kRecords);
    EXPECT_TRUE(tail.done());
    EXPECT_EQ(tail.recordsDelivered(), kRecords);
    EXPECT_EQ(live.refreshRejects(), 0u);
    EXPECT_FALSE(live.refresh()); // terminal: no further advance
    removeStore(path);
}

TEST(LiveView, PinnedViewsAreSnapshotIsolated)
{
    constexpr std::size_t kCoeffs = 2;
    constexpr std::size_t kCap = 16;
    const std::string path = tempPath("pin.tdfs");
    StoreOptions opts;
    opts.blockCapacity = kCap;
    opts.live = true;
    StoreSchema schema;
    schema.coeffCount = kCoeffs;
    FeatureStoreWriter w(path, schema, opts);
    for (std::size_t i = 0; i < 2 * kCap; ++i)
        w.append(makeRecord(i, kCoeffs));

    LiveStoreReader live(path);
    ASSERT_TRUE(live.refresh());
    const StoreView v1 = live.view();
    EXPECT_EQ(v1.recordCount(), 2 * kCap);

    for (std::size_t i = 2 * kCap; i < 4 * kCap; ++i)
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
    removeStore(path);
}

TEST(LiveView, TailFilterMatchesBruteForce)
{
    constexpr std::size_t kRecords = 150;
    constexpr std::size_t kCoeffs = 2;
    const std::string path = tempPath("tailfilter.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 16;
    opts.live = true;
    StoreSchema schema;
    schema.coeffCount = kCoeffs;
    FeatureStoreWriter w(path, schema, opts);

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
    removeStore(path);
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
    StoreOptions opts;
    opts.blockCapacity = kCap;
    opts.live = true;
    StoreSchema schema;
    schema.coeffCount = kCoeffs;
    FeatureStoreWriter w(path, schema, opts);

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
    removeStore(path);
}

TEST(LiveView, FooterFallbackServesFinishedStores)
{
    // A store finished without live mode (no sidecar ever existed):
    // the reader attaches through the footer as a Final view. The
    // zero-block store is the regression the live path exposed —
    // empty-but-valid must attach, not error.
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
        removeStore(path);
    }
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
    // The on-disk state after a writer crashed before its first
    // seal: a header-only data file plus the generation-1 manifest.
    // A live reader must attach (empty view), and a stall must
    // degrade it to a frozen WriterLost view without inventing or
    // losing records.
    const LiveRunArtifacts a = captureLiveRun(40, 2, 16);
    const std::string path = tempPath("headeronly.tdfs");
    writeBytes(path, a.dataInit);
    writeBytes(store::manifestPathFor(path), a.manifestInit);

    LiveViewOptions vopts;
    vopts.pollMinUs = 10;
    vopts.pollMaxUs = 100;
    vopts.stallDeadlineSeconds = 0.05;
    LiveStoreReader live(path, vopts);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.state(), LiveState::Live);
    EXPECT_EQ(live.view().recordCount(), 0u);
    EXPECT_EQ(live.view().blockCount(), 0u);

    EXPECT_FALSE(live.waitForAdvance());
    EXPECT_EQ(live.state(), LiveState::WriterLost);
    EXPECT_TRUE(live.view().valid());
    EXPECT_EQ(live.view().recordCount(), 0u);
    EXPECT_TRUE(live.view().degraded());
    TailCursor tail(live);
    FeatureRecord rec;
    EXPECT_FALSE(tail.next(rec));
    EXPECT_TRUE(tail.done());
    removeStore(path);
}

TEST(LiveFault, CrashPointSweepViewEqualsHonestSealedPrefix)
{
    constexpr std::size_t kRecords = 200;
    constexpr std::size_t kCoeffs = 2;
    constexpr std::size_t kCap = 16;
    const LiveRunArtifacts a = captureLiveRun(kRecords, kCoeffs, kCap);
    const std::size_t seals = a.dataAtSeal.size();
    ASSERT_GE(seals, 4u);
    const std::string &full = a.dataAtSeal.back();

    const std::string path = tempPath("crash_live.tdfs");
    const std::string mpath = store::manifestPathFor(path);
    for (std::size_t s = 1; s + 1 < seals; ++s) {
        const std::size_t boundary = a.dataAtSeal[s].size();
        // Tear classes around seal s: exactly at the publication
        // point, a few bytes into the next block, and a few bytes
        // short of the boundary (mid final block of the prefix).
        const std::size_t tears[] = {boundary, boundary + 7,
                                     boundary - 3};
        for (const std::size_t at : tears) {
            writeBytes(path, full.substr(0, at));

            // The newest manifest the tear still covers must adopt,
            // and the adopted view must be digest-equal to an
            // honest footer-backed store of the same sealed prefix.
            const std::size_t adoptable =
                at >= boundary ? s : s - 1;
            writeBytes(mpath, a.manifestAtSeal[adoptable]);
            LiveStoreReader live(path);
            ASSERT_TRUE(live.refresh()) << "seal " << s << " at " << at;
            const StoreView v = live.view();
            const std::size_t sealed_records =
                (adoptable + 1) * kCap;
            EXPECT_EQ(v.recordCount(), sealed_records);
            EXPECT_EQ(streamDigest(v.reader()),
                      honestDigest(sealed_records, kCoeffs, kCap))
                << "seal " << s << " at " << at;

            // A manifest that runs ahead of the torn data file is
            // the lying-kernel tear: reject, keep the good snapshot.
            const std::uint64_t rejects_before = live.refreshRejects();
            writeBytes(mpath, a.manifestAtSeal[s + 1]);
            EXPECT_FALSE(live.refresh());
            EXPECT_EQ(live.refreshRejects(), rejects_before + 1);
            EXPECT_NE(live.lastError().find("runs ahead"),
                      std::string::npos)
                << live.lastError();
            EXPECT_EQ(live.view().recordCount(), sealed_records);
            EXPECT_EQ(live.state(), LiveState::Live);

            // A fresh reader facing the same ahead-manifest (no
            // prior snapshot) must also reject, not fatal.
            LiveStoreReader fresh(path);
            EXPECT_FALSE(fresh.refresh());
            EXPECT_FALSE(fresh.attached());
            EXPECT_EQ(fresh.refreshRejects(), 1u);
        }
    }
    removeStore(path);
}

TEST(LiveFault, TornManifestsRejectAndKeepServing)
{
    const LiveRunArtifacts a = captureLiveRun(100, 2, 16);
    ASSERT_GE(a.manifestAtSeal.size(), 3u);
    const std::string path = tempPath("torn.tdfs");
    const std::string mpath = store::manifestPathFor(path);
    writeBytes(path, a.dataAtSeal.back());
    writeBytes(mpath, a.manifestAtSeal[1]);

    LiveStoreReader live(path);
    ASSERT_TRUE(live.refresh());
    const std::uint64_t gen = live.generation();
    const std::size_t records = live.view().recordCount();
    EXPECT_EQ(records, 32u);

    const std::string &good = a.manifestAtSeal[2];
    std::uint64_t expected_rejects = 0;
    auto expect_rejected = [&](const std::string &label) {
        EXPECT_FALSE(live.refresh()) << label;
        EXPECT_EQ(live.refreshRejects(), ++expected_rejects)
            << label;
        EXPECT_FALSE(live.lastError().empty()) << label;
        EXPECT_EQ(live.generation(), gen) << label;
        EXPECT_EQ(live.view().recordCount(), records) << label;
        EXPECT_EQ(live.state(), LiveState::Live) << label;
    };

    // Truncations at every frame region: inside the magic, the
    // fixed fields, the index, and the trailing CRC.
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{16}, good.size() / 2,
          good.size() - 5, good.size() - 1}) {
        writeBytes(mpath, good.substr(0, keep));
        expect_rejected("truncated at " + std::to_string(keep));
    }
    // Bit flip mid-frame: CRC catches it.
    std::string flipped = good;
    flipped[flipped.size() / 2] ^= 0x10;
    writeBytes(mpath, flipped);
    expect_rejected("bit flip");
    // Garbage and an implausibly tiny sidecar.
    writeBytes(mpath, std::string(256, 'x'));
    expect_rejected("garbage");
    writeBytes(mpath, "xy");
    expect_rejected("tiny");
    // A well-formed frame in the previous sidecar layout (magic
    // TDFSLIV1, manifest version 2, generation, then this payload,
    // then a CRC over everything): not a frame of this build.
    std::vector<std::uint8_t> v2(store::manifestMagic,
                                 store::manifestMagic + 8);
    v2[7] = '1';
    store::putU32(v2, 2);
    v2.insert(v2.end(), good.begin() + 16, good.begin() + 24);
    v2.insert(v2.end(), good.begin() + store::frameHeaderBytes,
              good.end() - store::frameTrailerBytes);
    store::putU32(v2, store::crc32(v2.data(), v2.size()));
    writeBytes(mpath, std::string(v2.begin(), v2.end()));
    expect_rejected("version 2 layout");
    EXPECT_NE(live.lastError().find("bad magic"), std::string::npos)
        << live.lastError();

    // The next good publication advances as if nothing happened.
    writeBytes(mpath, good);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 48u);
    removeStore(path);
}

TEST(LiveFault, CorruptDataHeaderIsRejected)
{
    // Intact manifests over a data file whose header magic was
    // flipped: the file is no longer a feature store, and a live
    // view must say so exactly as open() and salvage() do — never
    // serve the blocks the manifest indexes.
    const LiveRunArtifacts a = captureLiveRun(100, 2, 16);
    const std::string path = tempPath("badheader.tdfs");
    const std::string mpath = store::manifestPathFor(path);
    auto corrupt = [](std::string data) {
        data[0] ^= 0x20;
        return data;
    };
    writeBytes(path, corrupt(a.dataAtSeal[1]));
    writeBytes(mpath, a.manifestAtSeal[1]);

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

    // An attached view meeting the same corruption on its next
    // generation rejects it and keeps serving its snapshot.
    writeBytes(path, a.dataAtSeal[1]);
    LiveStoreReader live(path);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 32u);
    writeBytes(path, corrupt(a.dataAtSeal[2]));
    writeBytes(mpath, a.manifestAtSeal[2]);
    EXPECT_FALSE(live.refresh());
    EXPECT_EQ(live.refreshRejects(), 1u);
    EXPECT_NE(live.lastError().find("bad header magic"),
              std::string::npos)
        << live.lastError();
    EXPECT_EQ(live.view().recordCount(), 32u);
    EXPECT_EQ(live.state(), LiveState::Live);
    removeStore(path);
}

TEST(LiveFault, InjectedReadFaultsRejectThenHeal)
{
    const LiveRunArtifacts a = captureLiveRun(100, 2, 16);
    const std::string path = tempPath("readfault.tdfs");
    const std::string mpath = store::manifestPathFor(path);
    writeBytes(path, a.dataAtSeal[3]);
    writeBytes(mpath, a.manifestAtSeal[3]);

    // Two refresh attempts see EIO on every data-file read (the
    // new-block validation hits it), then the file heals. Each
    // failure rejects that refresh and nothing else.
    auto data_faults = std::make_shared<std::atomic<int>>(2);
    auto manifest_faults = std::make_shared<std::atomic<int>>(1);
    LiveViewOptions vopts;
    vopts.fileFactory =
        [path, mpath, data_faults, manifest_faults](
            const std::string &p, store::IoError *err)
        -> std::unique_ptr<store::ReadFile> {
        auto f = store::openOsReadFile(p, err);
        if (!f)
            return nullptr;
        auto *budget = p == path ? data_faults.get()
                     : p == mpath ? manifest_faults.get()
                                  : nullptr;
        if (budget && budget->fetch_sub(1) > 0) {
            store::ReadFaultPlan plan;
            plan.kind = store::ReadFaultPlan::Kind::ErrorAt;
            plan.atByte = 0;
            plan.errCode = EIO;
            return std::make_unique<store::FaultyReadFile>(
                std::move(f), plan);
        }
        return f;
    };
    LiveStoreReader live(path, vopts);
    // Attempt 1: the manifest read itself faults.
    EXPECT_FALSE(live.refresh());
    EXPECT_EQ(live.refreshRejects(), 1u);
    EXPECT_NE(live.lastError().find("manifest"), std::string::npos);
    // Attempts 2 and 3: manifest healed, data-file reads fault —
    // block validation rejects the adoption, no snapshot appears.
    EXPECT_FALSE(live.refresh());
    EXPECT_FALSE(live.refresh());
    EXPECT_EQ(live.refreshRejects(), 3u);
    EXPECT_FALSE(live.attached());
    // Attempt 4: healed end to end.
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 64u);
    EXPECT_EQ(streamDigest(live.view().reader()),
              honestDigest(64, 2, 16));
    removeStore(path);
}

TEST(LiveFault, VanishedWriterDegradesToSalvagedPrefix)
{
    // Crash scene: the writer sealed 4 blocks and tore mid-way
    // through the 5th, but the newest surviving manifest only
    // covers 2. The stalled reader must end WriterLost on the
    // salvaged 4-block prefix — growing from its adopted snapshot,
    // never shrinking — and a tail across the degrade delivers
    // every salvageable record exactly once.
    const LiveRunArtifacts a = captureLiveRun(120, 2, 16);
    ASSERT_GE(a.dataAtSeal.size(), 5u);
    const std::string path = tempPath("vanish.tdfs");
    writeBytes(path, a.dataAtSeal[4].substr(
                         0, a.dataAtSeal[3].size() + 11));
    writeBytes(store::manifestPathFor(path), a.manifestAtSeal[1]);

    LiveViewOptions vopts;
    vopts.pollMinUs = 10;
    vopts.pollMaxUs = 100;
    vopts.stallDeadlineSeconds = 0.05;
    LiveStoreReader live(path, vopts);
    TailCursor tail(live);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), 32u);
    FeatureRecord rec;
    std::size_t delivered = 0;
    while (tail.next(rec))
        expectRecordsEqual(rec, makeRecord(delivered++, 2));
    EXPECT_EQ(delivered, 32u);
    EXPECT_FALSE(tail.done());

    EXPECT_FALSE(live.waitForAdvance());
    EXPECT_EQ(live.state(), LiveState::WriterLost);
    const StoreView v = live.view();
    EXPECT_TRUE(v.degraded());
    EXPECT_EQ(v.recordCount(), 64u);
    EXPECT_EQ(streamDigest(v.reader()), honestDigest(64, 2, 16));
    while (tail.next(rec))
        expectRecordsEqual(rec, makeRecord(delivered++, 2));
    EXPECT_EQ(delivered, 64u);
    EXPECT_TRUE(tail.done());
    removeStore(path);
}

TEST(LiveFault, ManifestPublishFailureDegradesLiveSideOnly)
{
    constexpr std::size_t kRecords = 100;
    constexpr std::size_t kCap = 16;
    const std::string path = tempPath("livefail.tdfs");
    StoreOptions opts;
    opts.blockCapacity = kCap;
    opts.live = true;
    // Publications 1 (init) and 2 (first seal) succeed; from the
    // third on the manifest tmp file dies with persistent ENOSPC.
    int opened = 0;
    opts.liveWrapFile = [&opened](std::unique_ptr<store::StoreFile> f)
        -> std::unique_ptr<store::StoreFile> {
        if (++opened <= 2)
            return f;
        store::FaultPlan plan;
        plan.kind = store::FaultPlan::Kind::ErrorAt;
        plan.atByte = 0;
        plan.errCode = ENOSPC;
        return std::make_unique<store::FaultyFile>(std::move(f),
                                                   plan);
    };
    StoreSchema schema;
    schema.coeffCount = 2;
    FeatureStoreWriter w(path, schema, opts);
    EXPECT_TRUE(w.liveOk());
    for (std::size_t i = 0; i < kRecords; ++i)
        EXPECT_TRUE(w.append(makeRecord(i, 2)));

    // The live side is degraded — sticky, with the injected errno —
    // while the store itself never noticed.
    EXPECT_FALSE(w.liveOk());
    EXPECT_EQ(w.liveStatus().code, ENOSPC);
    EXPECT_EQ(w.livePublished(), 2u);
    EXPECT_TRUE(w.ok());
    EXPECT_GT(w.finish(), 0u);
    EXPECT_EQ(w.droppedRecords(), 0u);

    // A live reader rides the last good publication (generation 2 =
    // one sealed block), stalls, and degrades onto the intact
    // footer: Final with every record, nothing torn.
    LiveViewOptions vopts;
    vopts.pollMinUs = 10;
    vopts.pollMaxUs = 100;
    vopts.stallDeadlineSeconds = 0.05;
    LiveStoreReader live(path, vopts);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.view().recordCount(), kCap);
    EXPECT_FALSE(live.waitForAdvance());
    EXPECT_EQ(live.state(), LiveState::Final);
    EXPECT_FALSE(live.view().degraded());
    EXPECT_EQ(live.view().recordCount(), kRecords);
    EXPECT_EQ(streamDigest(live.view().reader()),
              honestDigest(kRecords, 2, kCap));
    removeStore(path);
}

TEST(LiveFault, TornPublicationsRejectThenNextAdopts)
{
    // A lying kernel tears one manifest publication inside the frame
    // header, the payload, or the trailing CRC. The torn frame is
    // renamed into place (Crash mode reports success); the view must
    // reject it, keep its generation, and adopt the next healthy one.
    constexpr std::size_t kCap = 16;
    const std::string path = tempPath("torn_publish.tdfs");
    const std::string mpath = store::manifestPathFor(path);
    std::uint64_t tear_at = ~0ull;
    StoreOptions opts;
    opts.blockCapacity = kCap;
    opts.live = true;
    opts.liveWrapFile = [&tear_at](std::unique_ptr<store::StoreFile> f)
        -> std::unique_ptr<store::StoreFile> {
        if (tear_at == ~0ull)
            return f;
        store::FaultPlan plan;
        plan.kind = store::FaultPlan::Kind::Crash;
        plan.atByte = tear_at;
        return std::make_unique<store::FaultyFile>(std::move(f), plan);
    };
    StoreSchema schema;
    schema.coeffCount = 2;
    FeatureStoreWriter w(path, schema, opts);
    std::size_t appended = 0;
    auto seal_block = [&] {
        for (std::size_t i = 0; i < kCap; ++i)
            EXPECT_TRUE(w.append(makeRecord(appended++, 2)));
    };
    // Frame size grows by a fixed footer entry per sealed block.
    const std::size_t empty_frame = readBytes(mpath).size();
    seal_block();
    const std::size_t per_block = readBytes(mpath).size() - empty_frame;
    LiveStoreReader live(path);
    ASSERT_TRUE(live.refresh());

    const char *regions[] = {"header", "payload", "payload CRC"};
    std::uint64_t rejects = 0;
    for (std::size_t t = 0; t < 3; ++t) {
        SCOPED_TRACE(regions[t]);
        // Each round seals two blocks, a torn publication and a
        // healthy one; the torn frame describes 2t + 2 blocks.
        const std::uint64_t size = empty_frame + (2 * t + 2) * per_block;
        const std::uint64_t at[] = {
            20, store::frameHeaderBytes + per_block, size - 2};
        tear_at = at[t];
        const std::uint64_t gen = live.generation();
        const std::size_t records = live.view().recordCount();
        seal_block();
        EXPECT_EQ(readBytes(mpath).size(), tear_at);
        tear_at = ~0ull;
        EXPECT_FALSE(live.refresh());
        EXPECT_EQ(live.refreshRejects(), ++rejects);
        EXPECT_NE(live.lastError().find("live manifest"),
                  std::string::npos)
            << live.lastError();
        EXPECT_EQ(live.generation(), gen);
        EXPECT_EQ(live.view().recordCount(), records);
        EXPECT_EQ(live.state(), LiveState::Live);

        seal_block();
        ASSERT_TRUE(live.refresh());
        EXPECT_EQ(live.generation(), gen + 2);
        EXPECT_EQ(live.view().recordCount(), records + 2 * kCap);
    }
    EXPECT_TRUE(w.liveOk());
    EXPECT_GT(w.finish(), 0u);
    ASSERT_TRUE(live.refresh());
    EXPECT_EQ(live.state(), LiveState::Final);
    EXPECT_EQ(streamDigest(live.view().reader()),
              honestDigest(appended, 2, kCap));
    removeStore(path);
}

TEST(LiveTsan, ConcurrentWriterAndPollingReaders)
{
    constexpr std::size_t kRecords = 1200;
    constexpr std::size_t kCoeffs = 3;
    constexpr std::size_t kCap = 32;
    constexpr int kReaders = 2;
    const std::string path = tempPath("tsan_live.tdfs");
    std::atomic<bool> writer_ok{true};
    std::thread writer([&] {
        StoreOptions opts;
        opts.blockCapacity = kCap;
        opts.live = true;
        StoreSchema schema;
        schema.coeffCount = kCoeffs;
        FeatureStoreWriter w(path, schema, opts);
        for (std::size_t i = 0; i < kRecords; ++i)
            if (!w.append(makeRecord(i, kCoeffs)))
                writer_ok.store(false);
        if (w.finish() == 0 || !w.liveOk())
            writer_ok.store(false);
    });

    std::vector<std::thread> readers;
    std::vector<std::size_t> delivered(kReaders, 0);
    std::vector<std::size_t> out_of_order(kReaders, 0);
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
        });
    }
    writer.join();
    for (std::thread &r : readers)
        r.join();
    EXPECT_TRUE(writer_ok.load());
    for (int t = 0; t < kReaders; ++t) {
        EXPECT_EQ(delivered[t], kRecords) << "reader " << t;
        EXPECT_EQ(out_of_order[t], 0u) << "reader " << t;
    }
    removeStore(path);
}

} // namespace
