/**
 * @file
 * Feature-store integration tests above the raw format: the Region
 * feature sink (records per iteration/analysis, identical feature
 * payloads across sync/async ingest), graceful degradation when the
 * sink's I/O dies mid-run (the simulation must not notice),
 * rank-order store merging, and the td_store_* C API.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <vector>

#include "base/thread_pool.hh"
#include "blastapp/runner.hh"
#include "core/region.hh"
#include "core/td_api.h"
#include "par/store_merge.hh"
#include "par/thread_comm.hh"
#include "store/file.hh"
#include "store/query.hh"
#include "store/reader.hh"
#include "store/writer.hh"
#include "tests/test_util.hh"

namespace
{

using namespace tdfe;
using test::tempPath;

/** Attenuating wave, as in test_analysis_region. */
struct WaveDomain
{
    double
    value(long l, long t) const
    {
        const double ramp = 1.0 - std::exp(-static_cast<double>(t) /
                                           20.0);
        return 10.0 * std::pow(0.7, static_cast<double>(l - 1)) *
               ramp;
    }
    long iter = 0;
};

AnalysisConfig
waveAnalysis()
{
    AnalysisConfig ac;
    ac.provider = [](void *domain, long loc) {
        auto *d = static_cast<WaveDomain *>(domain);
        return d->value(loc, d->iter);
    };
    ac.space = IterParam(1, 6, 1);
    ac.time = IterParam(10, 200, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = 0.5;
    ac.searchEnd = 25;
    ac.minLocation = 1;
    ac.ar.order = 2;
    ac.ar.lag = 1;
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 24;
    return ac;
}

/** Instrumented wave run writing a store; @return the store path. */
std::string
runWaveWithStore(const std::string &name, bool async_region,
                 long iters = 200)
{
    const std::string path = tempPath(name);
    WaveDomain domain;
    Region region("wave", &domain);
    region.setAsyncAnalyses(async_region);
    region.addAnalysis(waveAnalysis());

    StoreSchema schema;
    schema.coeffCount = 3; // order 2 + intercept
    StoreOptions opts;
    opts.blockCapacity = 32;
    FeatureStoreWriter store(path, schema, opts);
    region.setFeatureStore(&store);

    for (domain.iter = 0; domain.iter <= iters; ++domain.iter) {
        region.begin();
        region.end();
    }
    // Queries drain the in-flight epoch, so the final record is
    // appended before the store closes.
    region.analysis(0);
    region.setFeatureStore(nullptr);
    store.finish();
    return path;
}

TEST(StoreSink, RegionRecordsEveryIteration)
{
    const std::string path =
        runWaveWithStore("sink.tdfs", false);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->recordCount(), 201u);
    EXPECT_TRUE(r->verify());

    auto c = r->cursor();
    FeatureRecord rec;
    long expect_iter = 0;
    bool saw_trained = false;
    while (c.next(rec)) {
        EXPECT_EQ(rec.iteration, expect_iter++);
        EXPECT_EQ(rec.analysis, 0);
        EXPECT_EQ(rec.coeffs.size(), 3u);
        EXPECT_GE(rec.wavefront, 1.0);
        if (rec.coeffs[1] != 0.0)
            saw_trained = true;
    }
    EXPECT_EQ(expect_iter, 201);
    // The model trains inside the window, so late records carry
    // non-zero raw coefficients.
    EXPECT_TRUE(saw_trained);

    // The last record's payload matches the final analysis state.
    WaveDomain domain;
    Region region("wave-ref", &domain);
    region.addAnalysis(waveAnalysis());
    for (domain.iter = 0; domain.iter <= 200; ++domain.iter) {
        region.begin();
        region.end();
    }
    const CurveFitAnalysis &a = region.analysis(0);
    EXPECT_EQ(rec.mse, a.lastValidationMse());
    EXPECT_EQ(rec.wavefront,
              static_cast<double>(a.wavefrontLocation()));
    const std::vector<double> coeffs = a.model().rawCoefficients();
    ASSERT_EQ(coeffs.size(), 3u);
    for (std::size_t k = 0; k < coeffs.size(); ++k)
        EXPECT_EQ(rec.coeffs[k], coeffs[k]) << "coeff " << k;
    std::remove(path.c_str());
}

TEST(StoreSink, AsyncRegionSameFeaturePayloads)
{
    // Features, coefficients, MSE, and stop flags are bitwise
    // invariant across the region's sync/async ingest; only
    // wall_time is clock noise.
    setGlobalThreadCount(4);
    const std::string sync_path =
        runWaveWithStore("sync.tdfs", false);
    const std::string async_path =
        runWaveWithStore("async.tdfs", true);
    setGlobalThreadCount(1);

    const auto a = FeatureStoreReader::open(sync_path);
    const auto b = FeatureStoreReader::open(async_path);
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    ASSERT_EQ(a->recordCount(), b->recordCount());
    auto ca = a->cursor();
    auto cb = b->cursor();
    FeatureRecord ra, rb;
    while (ca.next(ra)) {
        ASSERT_TRUE(cb.next(rb));
        EXPECT_EQ(ra.iteration, rb.iteration);
        EXPECT_EQ(ra.stop, rb.stop);
        EXPECT_EQ(ra.wavefront, rb.wavefront);
        EXPECT_EQ(ra.predicted, rb.predicted);
        EXPECT_EQ(ra.mse, rb.mse);
        EXPECT_EQ(ra.coeffs, rb.coeffs);
    }
    std::remove(sync_path.c_str());
    std::remove(async_path.c_str());
}

TEST(StoreSink, DetachDrainsInFlightEpoch)
{
    // Regression: detaching the sink right after the last end() —
    // with no intervening query to drain the async epoch — must
    // not drop the pending iteration's records.
    setGlobalThreadCount(4);
    const std::string path = tempPath("detach.tdfs");
    {
        WaveDomain domain;
        Region region("wave", &domain);
        region.setAsyncAnalyses(true);
        region.addAnalysis(waveAnalysis());
        StoreSchema schema;
        schema.coeffCount = 3;
        FeatureStoreWriter store(path, schema);
        region.setFeatureStore(&store);
        for (domain.iter = 0; domain.iter < 50; ++domain.iter) {
            region.begin();
            region.end();
        }
        region.setFeatureStore(nullptr); // immediate detach
        EXPECT_EQ(store.recordCount(), 50u);
        store.finish();
    }
    setGlobalThreadCount(1);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->recordCount(), 50u);
    std::remove(path.c_str());
}

TEST(StoreSink, RegionSurvivesStoreDeathMidRun)
{
    // Reference: the identical run with no sink attached.
    WaveDomain ref_domain;
    Region ref_region("wave-ref", &ref_domain);
    ref_region.addAnalysis(waveAnalysis());
    for (ref_domain.iter = 0; ref_domain.iter <= 200;
         ++ref_domain.iter) {
        ref_region.begin();
        ref_region.end();
    }
    const CurveFitAnalysis &ra = ref_region.analysis(0);

    // Instrumented run whose store hits persistent ENOSPC a few
    // sealed blocks in.
    const std::string path = tempPath("dies_midrun.tdfs");
    store::IoError open_error;
    auto os = store::openOsFile(path, &open_error);
    ASSERT_TRUE(os) << open_error.message;
    store::FaultPlan plan;
    plan.kind = store::FaultPlan::Kind::ErrorAt;
    plan.atByte = 2000;
    plan.errCode = ENOSPC;
    auto faulty = std::make_unique<store::FaultyFile>(
        std::move(os), plan);

    StoreSchema schema;
    schema.coeffCount = 3;
    StoreOptions opts;
    opts.blockCapacity = 32;
    opts.retryBackoffUs = 0;
    FeatureStoreWriter store(std::move(faulty), schema, opts);

    WaveDomain domain;
    Region region("wave", &domain);
    region.addAnalysis(waveAnalysis());
    region.setFeatureStore(&store);
    EXPECT_FALSE(region.featureStoreDegraded());
    for (domain.iter = 0; domain.iter <= 200; ++domain.iter) {
        region.begin();
        region.end();
    }
    region.analysis(0); // drains

    // The sink died mid-run and the region detached it...
    EXPECT_TRUE(region.featureStoreDegraded());
    EXPECT_FALSE(store.ok());
    EXPECT_EQ(store.status().code, ENOSPC);
    EXPECT_GT(store.droppedRecords(), 0u);
    EXPECT_EQ(store.finish(), 0u);

    // ...while the analysis pipeline above it is bitwise unaffected.
    const CurveFitAnalysis &a = region.analysis(0);
    EXPECT_EQ(a.wavefrontLocation(), ra.wavefrontLocation());
    EXPECT_EQ(a.lastValidationMse(), ra.lastValidationMse());
    EXPECT_EQ(a.model().rawCoefficients(),
              ra.model().rawCoefficients());

    // The sealed-block prefix written before the death is still
    // recoverable, record-exact from iteration 0.
    std::string error;
    const auto r = FeatureStoreReader::salvage(path, &error);
    ASSERT_TRUE(r) << error;
    EXPECT_GT(r->recordCount(), 0u);
    EXPECT_EQ(r->recordCount() % opts.blockCapacity, 0u);
    auto c = r->cursor();
    FeatureRecord rec;
    long expect_iter = 0;
    while (c.next(rec))
        EXPECT_EQ(rec.iteration, expect_iter++);
    EXPECT_EQ(static_cast<std::size_t>(expect_iter),
              r->recordCount());
    std::remove(path.c_str());
}

TEST(StoreSink, BlastRunnerReportsDegradedStore)
{
    // An unwritable store path must cost the run nothing but the
    // records: same iterations, same probe trace, same feature —
    // plus a degraded flag the caller can alert on.
    using namespace blast;
    BlastConfig config;
    config.size = 12;
    const RunResult ref = runBlast(config, nullptr, RunOptions());
    ASSERT_GT(ref.iterations, 20);

    RunOptions fe;
    fe.instrument = true;
    fe.recordTrace = true;
    fe.analysis.space = IterParam(1, 8, 1);
    fe.analysis.time = IterParam(ref.iterations / 20,
                                 (ref.iterations * 2) / 5, 1);
    fe.analysis.feature = FeatureKind::BreakpointRadius;
    fe.analysis.searchEnd = config.size;
    fe.analysis.minLocation = 1;
    fe.analysis.ar.axis = LagAxis::Space;
    fe.analysis.ar.order = 3;
    fe.analysis.ar.lag = 2;
    const RunResult good = runBlast(config, nullptr, fe);
    EXPECT_FALSE(good.storeDegraded);

    RunOptions bad = fe;
    bad.store.path = "/nonexistent-dir/sub/blast.tdfs";
    const RunResult degraded = runBlast(config, nullptr, bad);
    EXPECT_TRUE(degraded.storeDegraded);
    EXPECT_EQ(degraded.storeBytes, 0u);

    EXPECT_EQ(degraded.iterations, good.iterations);
    EXPECT_EQ(degraded.featureValue, good.featureValue);
    EXPECT_EQ(degraded.validationMse, good.validationMse);
    ASSERT_EQ(degraded.trace.size(), good.trace.size());
    for (std::size_t i = 0; i < good.trace.size(); ++i)
        EXPECT_EQ(degraded.trace[i], good.trace[i]) << "iter " << i;
}

TEST(StoreSink, SchemaTooSmallIsFatal)
{
    WaveDomain domain;
    Region region("wave", &domain);
    region.addAnalysis(waveAnalysis()); // needs 3 coeff columns
    StoreSchema schema;
    schema.coeffCount = 2;
    const std::string path = tempPath("small.tdfs");
    {
        FeatureStoreWriter store(path, schema);
        EXPECT_DEATH(region.setFeatureStore(&store),
                     "coefficient columns");
    }
    std::remove(path.c_str());
}

TEST(StoreMerge, RankOrderConcatenation)
{
    // Three "ranks" with distinguishable payloads.
    std::vector<std::string> parts;
    StoreSchema schema;
    schema.coeffCount = 1;
    for (int rank = 0; rank < 3; ++rank) {
        const std::string part = rankStorePath(
            tempPath("merge.tdfs"), rank, 3);
        EXPECT_NE(part, tempPath("merge.tdfs"));
        FeatureStoreWriter w(part, schema);
        FeatureRecord rec;
        rec.coeffs.assign(1, 0.0);
        for (long i = 0; i < 40; ++i) {
            rec.iteration = i;
            rec.analysis = 0;
            rec.wavefront = 100.0 * rank + static_cast<double>(i);
            rec.coeffs[0] = static_cast<double>(rank);
            w.append(rec);
        }
        w.finish();
        parts.push_back(part);
    }

    const std::string merged = tempPath("merge.tdfs");
    EXPECT_EQ(mergeRankStores(parts, merged), 120u);
    const auto r = FeatureStoreReader::open(merged);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->recordCount(), 120u);
    EXPECT_TRUE(r->verify());
    // The k-way merge emits iteration-major order (ties in rank
    // order), so the merged store keeps the sorted flag even though
    // the same iterations repeat across ranks...
    EXPECT_TRUE(r->sortedByIteration());
    auto c = r->cursor();
    FeatureRecord rec;
    long row = 0;
    while (c.next(rec)) {
        const long rank = row % 3;
        EXPECT_EQ(rec.iteration, row / 3);
        EXPECT_EQ(rec.coeffs[0], static_cast<double>(rank));
        ++row;
    }
    EXPECT_EQ(row, 120);
    // ...and range queries prune on the block index yet stay exact:
    // iteration 5 appears once per rank.
    QueryCursor hits(*r, EventFilter().iterRange(5, 6));
    std::size_t n_hits = 0;
    while (hits.next(rec)) {
        EXPECT_EQ(rec.iteration, 5);
        ++n_hits;
    }
    EXPECT_EQ(n_hits, 3u);

    // Single-rank worlds use the base path unchanged.
    EXPECT_EQ(rankStorePath("x.tdfs", 0, 1), "x.tdfs");

    for (const std::string &p : parts)
        std::remove(p.c_str());
    std::remove(merged.c_str());
}

TEST(StoreMerge, BlastRunnerMergesRankStores)
{
    using namespace blast;
    BlastConfig config;
    config.size = 12;
    const RunResult ref = runBlast(config, nullptr, RunOptions());
    ASSERT_GT(ref.iterations, 20);

    const std::string path = tempPath("blast_store.tdfs");
    ThreadCommWorld world(2);
    world.run([&](Communicator &comm) {
        RunOptions fe;
        fe.instrument = true;
        fe.store.path = path;
        fe.analysis.space = IterParam(1, 8, 1);
        fe.analysis.time = IterParam(ref.iterations / 20,
                                     (ref.iterations * 2) / 5, 1);
        fe.analysis.feature = FeatureKind::BreakpointRadius;
        fe.analysis.searchEnd = config.size;
        fe.analysis.minLocation = 1;
        fe.analysis.ar.axis = LagAxis::Space;
        fe.analysis.ar.order = 3;
        fe.analysis.ar.lag = 2;
        runBlast(config, &comm, fe);
    });

    // Rank 0 merged the per-rank parts into the base path and
    // removed them.
    EXPECT_FALSE(std::ifstream(path + ".rk0").good());
    EXPECT_FALSE(std::ifstream(path + ".rk1").good());
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->verify());
    const std::size_t n =
        static_cast<std::size_t>(ref.iterations);
    ASSERT_EQ(r->recordCount(), 2 * n);

    // Analyses are replicated across ranks, and the iteration-
    // sorted merge pairs the two ranks' records per iteration
    // (rank 0 first), so adjacent rows must agree bitwise on
    // everything except the wall clock.
    std::vector<FeatureRecord> all;
    {
        auto c = r->cursor();
        FeatureRecord rec;
        while (c.next(rec))
            all.push_back(rec);
    }
    ASSERT_EQ(all.size(), 2 * n);
    EXPECT_TRUE(r->sortedByIteration());
    for (std::size_t i = 0; i < n; ++i) {
        const FeatureRecord &a = all[2 * i];
        const FeatureRecord &b = all[2 * i + 1];
        EXPECT_EQ(a.iteration, static_cast<long>(i));
        EXPECT_EQ(a.iteration, b.iteration);
        EXPECT_EQ(a.stop, b.stop);
        EXPECT_EQ(a.wavefront, b.wavefront);
        EXPECT_EQ(a.predicted, b.predicted);
        EXPECT_EQ(a.mse, b.mse);
        EXPECT_EQ(a.coeffs, b.coeffs);
    }
    std::remove(path.c_str());
}

TEST(StoreMerge, SchemaMismatchIsFatal)
{
    StoreSchema s1, s2;
    s1.coeffCount = 1;
    s2.coeffCount = 2;
    const std::string p1 = tempPath("mismatch1.tdfs");
    const std::string p2 = tempPath("mismatch2.tdfs");
    {
        FeatureStoreWriter w1(p1, s1);
        FeatureStoreWriter w2(p2, s2);
    }
    EXPECT_DEATH(
        mergeRankStores({p1, p2}, tempPath("mismatch.tdfs")),
        "schema mismatch");
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(StoreMerge, DegradedRankPartDoesNotKillTheRun)
{
    // Rank 1's writer loses its footer write to ENOSPC: finish()
    // degrades and leaves five sealed blocks with no footer. The
    // rank merge salvages them instead of aborting the run.
    StoreSchema schema;
    schema.coeffCount = 3;
    StoreOptions opts;
    opts.blockCapacity = 16;
    opts.retryBackoffUs = 0;
    constexpr long records = 80; // five sealed blocks per rank
    const auto appendAll = [](FeatureStoreWriter &w, int rank) {
        FeatureRecord rec;
        rec.coeffs.assign(3, static_cast<double>(rank));
        for (long i = 0; i < records; ++i) {
            rec.iteration = i;
            rec.analysis = rank;
            rec.wavefront = 100.0 * rank + static_cast<double>(i);
            w.append(rec);
        }
    };

    // Rank 1's footer starts where the same stream's last block ends.
    std::uint64_t footer_at = 0;
    {
        const std::string probe = tempPath("degraded_probe.tdfs");
        {
            FeatureStoreWriter w(probe, schema, opts);
            appendAll(w, 1);
            ASSERT_GT(w.finish(), 0u);
        }
        const auto r = FeatureStoreReader::open(probe);
        ASSERT_TRUE(r);
        ASSERT_EQ(r->blockCount(), 5u);
        const store::BlockInfo &last = r->blockInfo(4);
        footer_at = last.offset + last.size;
        std::remove(probe.c_str());
    }

    const std::string base = tempPath("degraded_rank.tdfs");
    std::size_t part_bytes[2] = {0, 0};
    ThreadCommWorld world(2);
    world.run([&](Communicator &comm) {
        WaveDomain domain;
        Region region("degraded", &domain, &comm);
        region.addAnalysis(waveAnalysis());
        std::unique_ptr<FeatureStoreWriter> store;
        if (comm.rank() == 0) {
            store = attachRankStore(region, base, 3, opts, &comm);
        } else {
            store::IoError open_error;
            auto os = store::openOsFile(rankStorePath(base, 1, 2),
                                        &open_error);
            EXPECT_TRUE(os) << open_error.message;
            store::FaultPlan plan;
            plan.kind = store::FaultPlan::Kind::ErrorAt;
            plan.atByte = footer_at;
            plan.errCode = ENOSPC;
            store = std::make_unique<FeatureStoreWriter>(
                std::make_unique<store::FaultyFile>(std::move(os),
                                                    plan),
                schema, opts);
            region.setFeatureStore(store.get());
        }
        appendAll(*store, comm.rank());
        RankMergeOptions merge;
        merge.storeOptions = opts;
        part_bytes[comm.rank()] =
            finishRankStore(region, std::move(store), base, &comm,
                            merge);
    });

    // The run returned; rank 1's writer reported its degrade.
    EXPECT_GT(part_bytes[0], 0u);
    EXPECT_EQ(part_bytes[1], 0u);

    // The merged store holds rank 0's records plus rank 1's sealed
    // prefix, iteration-major with rank 0 first on ties.
    const auto r = FeatureStoreReader::open(base);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->verify());
    EXPECT_TRUE(r->sortedByIteration());
    EXPECT_EQ(r->recordCount(), 2u * records);
    auto c = r->cursor();
    FeatureRecord rec;
    long row = 0;
    while (c.next(rec)) {
        EXPECT_EQ(rec.iteration, row / 2);
        EXPECT_EQ(rec.analysis, row % 2);
        EXPECT_EQ(rec.wavefront,
                  100.0 * (row % 2) + static_cast<double>(row / 2));
        ++row;
    }
    EXPECT_EQ(row, 2 * records);

    // The clean part is gone; the damaged one stays for post-mortem.
    EXPECT_FALSE(std::ifstream(rankStorePath(base, 0, 2)).good());
    EXPECT_TRUE(std::ifstream(rankStorePath(base, 1, 2)).good());
    std::remove(rankStorePath(base, 1, 2).c_str());
    std::remove(base.c_str());
}

TEST(StoreCApi, EndToEnd)
{
    const std::string path = tempPath("capi.tdfs");
    td_store_t *store = td_store_open(path.c_str(), 3, 16);
    ASSERT_NE(store, nullptr);
    const double coeffs[3] = {1.0, -0.5, 0.25};
    for (long i = 0; i < 50; ++i) {
        EXPECT_EQ(td_store_append(store, i, 0, i == 49, 0.001 * i,
                                  1.0 + i, 2.0 * i, 0.1, coeffs),
                  0);
    }
    EXPECT_EQ(td_store_append(nullptr, 0, 0, 0, 0, 0, 0, 0, coeffs),
              -1);
    EXPECT_GT(td_store_close(store), 0);

    EXPECT_EQ(td_store_verify(path.c_str()), 0);
    EXPECT_EQ(td_store_record_count(path.c_str()), 50);
    EXPECT_EQ(td_store_verify("/nonexistent/no.tdfs"), -1);
    EXPECT_EQ(td_store_record_count("/nonexistent/no.tdfs"), -1);

    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    auto c = r->cursor();
    FeatureRecord rec;
    long i = 0;
    while (c.next(rec)) {
        EXPECT_EQ(rec.iteration, i);
        EXPECT_EQ(rec.stop, i == 49);
        EXPECT_EQ(rec.predicted, 2.0 * i);
        EXPECT_EQ(rec.coeffs[2], 0.25);
        ++i;
    }
    EXPECT_EQ(i, 50);
    std::remove(path.c_str());
}

TEST(StoreCApi, UnopenablePathDegradesWithoutAborting)
{
    // The directory does not exist: the open still hands back a
    // handle, degraded from the start, so the simulation keeps going.
    const std::string path = tempPath("no-such-dir/capi.tdfs");
    td_store_t *store = td_store_open(path.c_str(), 2, 8);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(td_store_status(store), ENOENT);
    EXPECT_NE(std::string(td_store_error(store)).find(path),
              std::string::npos)
        << td_store_error(store);
    EXPECT_EQ(td_store_dropped(store), 0);

    const double coeffs[2] = {0.5, 1.5};
    for (long i = 0; i < 5; ++i)
        EXPECT_EQ(td_store_append(store, i, 0, 0, 0.0, 1.0, 2.0, 0.1,
                                  coeffs),
                  ENOENT);
    EXPECT_EQ(td_store_dropped(store), 5);
    EXPECT_EQ(td_store_status(store), ENOENT); // sticky
    EXPECT_EQ(td_store_close(store), 0);

    EXPECT_EQ(td_store_status(nullptr), -1);
    EXPECT_EQ(td_store_dropped(nullptr), -1);
    EXPECT_EQ(td_store_close(nullptr), -1);
}

TEST(StoreCApi, OpenVariantsParseDurabilityAlike)
{
    const std::string path = tempPath("capi_open.tdfs");
    // An unknown policy is a NULL return, never a terminated
    // process.
    EXPECT_EQ(td_store_open_ex(path.c_str(), 2, 8, "sometimes"),
              nullptr);
    EXPECT_EQ(td_store_open_ex(path.c_str(), -1, 8, nullptr), nullptr);
    EXPECT_EQ(td_store_open_ex(nullptr, 2, 8, nullptr), nullptr);

    const double coeffs[2] = {0.5, 1.5};
    for (const char *durability : {"none", "flush", "fsync"}) {
        td_store_t *store =
            td_store_open_ex(path.c_str(), 2, 8, durability);
        ASSERT_NE(store, nullptr) << durability;
        for (long i = 0; i < 20; ++i)
            EXPECT_EQ(td_store_append(store, i, 0, 0, 0.0, 1.0, 2.0,
                                      0.1, coeffs),
                      0);
        EXPECT_GT(td_store_close(store), 0);
        EXPECT_EQ(td_store_record_count(path.c_str()), 20);
        // The data file is the whole store: nothing is written
        // beside it.
        EXPECT_FALSE(std::ifstream(path + ".live").good()) << durability;
    }
    std::remove(path.c_str());
}

TEST(StoreCApi, FlushedStoreIsFollowedRecordExactly)
{
    // A view follows a "flush" store while it is written: block k is
    // adopted at seal k + 1 (the next block's bytes commit it), the
    // rest once the footer lands, and every record comes out once,
    // in order, with every field intact.
    constexpr int kCap = 8;
    constexpr long kRecords = 45;
    const std::string path = tempPath("capi_follow.tdfs");
    td_store_t *store = td_store_open_ex(path.c_str(), 2, kCap, "flush");
    ASSERT_NE(store, nullptr);
    td_store_view_t *view = td_store_view_open(path.c_str(), 0.0);
    ASSERT_NE(view, nullptr);

    long next = 0;
    auto drain = [&] {
        long iteration = -1, analysis = -1;
        int stop = -1;
        double wall = 0, wave = 0, pred = 0, mse = 0, c[2] = {0, 0};
        while (td_store_view_next(view, &iteration, &analysis, &stop,
                                  &wall, &wave, &pred, &mse, c,
                                  2) == 1) {
            EXPECT_EQ(iteration, next);
            EXPECT_EQ(analysis, next % 3);
            EXPECT_EQ(stop, next == kRecords - 1 ? 1 : 0);
            EXPECT_EQ(wall, 0.5 * static_cast<double>(next));
            EXPECT_EQ(wave, static_cast<double>(next + 1));
            EXPECT_EQ(pred, -static_cast<double>(next));
            EXPECT_EQ(mse, 1.0 / static_cast<double>(next + 1));
            EXPECT_EQ(c[0], static_cast<double>(2 * next));
            EXPECT_EQ(c[1], static_cast<double>(2 * next + 1));
            ++next;
        }
    };
    // The header is flushed at open: the view attaches empty.
    EXPECT_EQ(td_store_view_refresh(view), 1);
    EXPECT_EQ(td_store_view_state(view), 1);
    EXPECT_EQ(td_store_view_records(view), 0);
    for (long i = 0; i < kRecords; ++i) {
        const double c[2] = {static_cast<double>(2 * i),
                             static_cast<double>(2 * i + 1)};
        ASSERT_EQ(td_store_append(store, i, i % 3,
                                  i == kRecords - 1 ? 1 : 0, 0.5 * i,
                                  static_cast<double>(i + 1),
                                  -static_cast<double>(i),
                                  1.0 / static_cast<double>(i + 1), c),
                  0);
        td_store_view_refresh(view);
        const long sealed = (i + 1) / kCap;
        EXPECT_EQ(td_store_view_records(view),
                  sealed > 0 ? (sealed - 1) * kCap : 0)
            << "append " << i;
        drain();
        EXPECT_EQ(next, td_store_view_records(view));
    }
    EXPECT_GT(td_store_close(store), 0);
    EXPECT_EQ(td_store_view_refresh(view), 1);
    EXPECT_EQ(td_store_view_state(view), 2);
    drain();
    EXPECT_EQ(next, kRecords);
    EXPECT_EQ(td_store_view_done(view), 1);
    td_store_view_close(view);
    std::remove(path.c_str());
}

TEST(StoreCApi, RegionSinkThroughCApi)
{
    static WaveDomain domain; // provider needs process lifetime
    domain.iter = 0;
    td_region_t *region = td_region_init("capi-wave", &domain);
    td_iter_param_t *loc = td_iter_param_init(1, 6, 1);
    td_iter_param_t *time = td_iter_param_init(10, 120, 1);
    const int id = td_region_add_analysis(
        region,
        [](void *d, int l) {
            auto *w = static_cast<WaveDomain *>(d);
            return w->value(l, w->iter);
        },
        loc, Curve_Fitting, time, 0.5, 0);
    ASSERT_EQ(id, 0);

    const std::string path = tempPath("capi_region.tdfs");
    td_store_t *store = td_store_open(path.c_str(), 5, 0);
    ASSERT_NE(store, nullptr);
    td_region_set_store(region, store);

    for (domain.iter = 0; domain.iter <= 120; ++domain.iter) {
        td_region_begin(region);
        td_region_end(region);
    }
    (void)td_region_feature(region, id); // drains
    td_region_set_store(region, nullptr);
    EXPECT_GT(td_store_close(store), 0);
    td_region_destroy(region);
    td_iter_param_destroy(loc);
    td_iter_param_destroy(time);

    EXPECT_EQ(td_store_verify(path.c_str()), 0);
    EXPECT_EQ(td_store_record_count(path.c_str()), 121);
    std::remove(path.c_str());
}

} // namespace
