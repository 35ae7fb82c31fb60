/**
 * @file
 * Telemetry non-interference tests: the observability layer must be
 * a pure observer. Runs of the instrumented wave pipeline with
 * metrics + tracing enabled must produce record-identical stores
 * and the same early-stop iteration as telemetry-off runs, at every
 * thread count; and identical runs must report identical values for
 * the deterministic counters (records appended, blocks sealed, ...).
 * Rides the TSan battery: the sharded metric updates and ring-buffer
 * publishes happen concurrently with the async region pipeline here.
 */

#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "base/thread_pool.hh"
#include "core/region.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/reader.hh"
#include "store/writer.hh"
#include "tests/test_util.hh"

namespace
{

using namespace tdfe;

/** Attenuating wave, as in test_store_sink. */
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
    ac.stopWhenConverged = true;
    ac.ar.order = 2;
    ac.ar.lag = 1;
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 24;
    ac.ar.convergeTol = 0.1;
    ac.ar.convergePatience = 3;
    ac.ar.minBatches = 4;
    return ac;
}

/** Everything a run produced that must be telemetry-invariant. */
struct WaveOutcome
{
    std::vector<FeatureRecord> records;
    /** First iteration whose record carries the stop flag (-1:
     *  never stopped). */
    long stopIteration = -1;
    double feature = 0.0;
};

WaveOutcome
runWave(const std::string &name, bool telemetry, bool async)
{
    obs::setMetricsEnabled(telemetry);
    obs::setTraceEnabled(telemetry);
    if (telemetry) {
        obs::resetMetrics();
        obs::clearTrace();
    }

    const std::string path = test::tempPath(name);
    WaveDomain domain;
    Region region("obs-wave", &domain);
    region.setAsyncAnalyses(async);
    region.addAnalysis(waveAnalysis());

    StoreSchema schema;
    schema.coeffCount = 3;
    StoreOptions opts;
    opts.blockCapacity = 32;
    opts.async = async;
    FeatureStoreWriter store(path, schema, opts);
    region.setFeatureStore(&store);

    for (domain.iter = 0; domain.iter <= 200; ++domain.iter) {
        region.begin();
        region.end();
    }
    region.analysis(0); // drains the in-flight epoch
    region.setFeatureStore(nullptr);
    store.finish();

    WaveOutcome out;
    out.feature = region.analysis(0).extractFeature();
    const auto r = FeatureStoreReader::open(path);
    EXPECT_TRUE(r);
    if (r) {
        EXPECT_TRUE(r->verify());
        auto c = r->cursor();
        FeatureRecord rec;
        while (c.next(rec)) {
            if (rec.stop && out.stopIteration < 0)
                out.stopIteration = rec.iteration;
            out.records.push_back(rec);
        }
    }
    std::remove(path.c_str());

    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    return out;
}

/** Records must agree bitwise on every field except wallTime (the
 *  one column that is wall-clock noise by design). */
void
expectSameRecords(const WaveOutcome &a, const WaveOutcome &b,
                  const std::string &what)
{
    ASSERT_EQ(a.records.size(), b.records.size()) << what;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const FeatureRecord &ra = a.records[i];
        const FeatureRecord &rb = b.records[i];
        EXPECT_EQ(ra.iteration, rb.iteration) << what << " row " << i;
        EXPECT_EQ(ra.analysis, rb.analysis) << what << " row " << i;
        EXPECT_EQ(ra.stop, rb.stop) << what << " row " << i;
        EXPECT_EQ(ra.wavefront, rb.wavefront) << what << " row " << i;
        EXPECT_EQ(ra.predicted, rb.predicted) << what << " row " << i;
        EXPECT_EQ(ra.mse, rb.mse) << what << " row " << i;
        EXPECT_EQ(ra.coeffs, rb.coeffs) << what << " row " << i;
    }
    EXPECT_EQ(a.stopIteration, b.stopIteration) << what;
    EXPECT_EQ(a.feature, b.feature) << what;
}

TEST(ObsDeterminism, TelemetryDoesNotSteerThePipeline)
{
    // Reference: telemetry off, single thread, synchronous ingest.
    const WaveOutcome ref = runWave("obs_ref.tdfs", false, false);
    ASSERT_FALSE(ref.records.empty());
    // The workload exercises the early-stop protocol, so "stop
    // iterations identical" is a real check, not vacuous.
    ASSERT_GE(ref.stopIteration, 0);

    for (const int threads : {1, 2, 4}) {
        setGlobalThreadCount(threads);
        const bool async = threads > 1;
        const std::string tag =
            "threads=" + std::to_string(threads);
        const WaveOutcome off =
            runWave("obs_off.tdfs", false, async);
        const WaveOutcome on = runWave("obs_on.tdfs", true, async);
        expectSameRecords(ref, off, tag + " telemetry off");
        expectSameRecords(ref, on, tag + " telemetry on");
    }
    setGlobalThreadCount(1);
}

TEST(ObsDeterminism, IdenticalRunsReportIdenticalCounters)
{
    // The deterministic subset of the catalog: event counts fixed by
    // the workload, not by scheduling. Stall counts and latency
    // histograms are timing-dependent and excluded by design — as is
    // bytes_written_total: the record wallTime column's *encoded*
    // size varies with the clock values it happens to carry.
    const std::vector<std::string> deterministic = {
        "region.snapshots_total",
        "region.digests_total",
        "store.writer.records_total",
        "store.writer.blocks_sealed_total",
    };

    setGlobalThreadCount(2);
    runWave("obs_cnt_a.tdfs", true, true);
    const obs::MetricsSnapshot a = obs::snapshotMetrics();
    runWave("obs_cnt_b.tdfs", true, true);
    const obs::MetricsSnapshot b = obs::snapshotMetrics();
    setGlobalThreadCount(1);

    for (const std::string &name : deterministic) {
        EXPECT_GT(a.counter(name), 0u) << name;
        EXPECT_EQ(a.counter(name), b.counter(name)) << name;
    }
}

TEST(ObsDeterminism, TracedAsyncRunKeepsWellFormedTrace)
{
    // The async traced run above recorded through the per-thread
    // rings; a fresh traced run must export a parseable document
    // whose every event names a real span. (Deep trace validation —
    // nesting, derivation — lives in bench/obs_overhead.)
    setGlobalThreadCount(2);
    runWave("obs_trace.tdfs", true, true);
    setGlobalThreadCount(1);

    const std::string trace = obs::exportChromeTrace();
    EXPECT_NE(trace.find("\"tdfe.trace.v1\""), std::string::npos);
    EXPECT_NE(trace.find("region.exposed.end"), std::string::npos);
    EXPECT_EQ(obs::traceEventCount() > 0, true);
}

} // namespace
