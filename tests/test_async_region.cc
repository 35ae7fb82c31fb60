/**
 * @file
 * Tests of the asynchronous ingest pipeline: async (snapshot-and-
 * defer) runs must produce bitwise-identical features, predictions,
 * stop iterations, and checkpoints to synchronous runs at every
 * thread count; queries must drain the in-flight epoch; and in
 * both modes the variable providers run only on the thread that
 * called end().
 */

#include <cmath>
#include <gtest/gtest.h>
#include <sstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/serial.hh"
#include "base/thread_pool.hh"
#include "base/timer.hh"
#include "core/region.hh"
#include "obs/metrics.hh"
#include "par/thread_comm.hh"

namespace
{

using namespace tdfe;

/**
 * Deterministic synthetic substrate: an attenuating gaussian pulse
 * travelling outward, plus a small deterministic ripple so the fit
 * never degenerates. The "solver step" is bumping `iter`.
 */
struct WaveDomain
{
    long iter = 0;

    double
    at(long loc) const
    {
        const double x = static_cast<double>(loc);
        const double t = static_cast<double>(iter);
        const double front = 0.35 * t;
        const double amp = 1.0 / (1.0 + 0.03 * x);
        return amp * std::exp(-(x - front) * (x - front) / 24.0) +
               0.01 * std::sin(0.7 * x + 0.3 * t);
    }
};

double
waveProvider(void *domain, long loc)
{
    return static_cast<WaveDomain *>(domain)->at(loc);
}

AnalysisConfig
waveAnalysis(bool stopper)
{
    AnalysisConfig ac;
    ac.name = "wave";
    ac.provider = waveProvider;
    ac.space = IterParam(1, 16, 1);
    ac.time = IterParam(5, 60, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = 0.3;
    ac.searchEnd = 16;
    ac.minLocation = 1;
    ac.stopWhenConverged = stopper;
    ac.ar.axis = LagAxis::Space;
    ac.ar.order = 3;
    ac.ar.lag = 2;
    ac.ar.batchSize = 8;
    ac.ar.convergeTol = 0.2;
    ac.ar.convergePatience = 2;
    ac.ar.minBatches = 2;
    return ac;
}

enum class Mode { Sync, Async };

void
applyMode(Region &region, Mode mode)
{
    region.setAsyncAnalyses(mode == Mode::Async);
}

/** Mutable state of one analysis, byte-exact. */
std::string
analysisBytes(Region &region, std::size_t id)
{
    std::ostringstream os;
    BinaryWriter w(os);
    region.analysis(id).save(w);
    return os.str();
}

/** Everything a run produced that must be mode-invariant. */
struct RunOut
{
    double feature = 0.0;
    double prediction = 0.0;
    long convergedIter = -2;
    long stopIter = -1;
    std::size_t rounds = 0;
    std::string bytes;
    std::vector<double> perIterPrediction;
};

/**
 * Drive @p iters iterations of the wave through a two-analysis
 * region. When @p query_each_iter, shouldStop() and
 * currentPrediction() are polled after every end() — mid-flight
 * queries that must drain the epoch and observe exactly the
 * synchronous per-iteration state.
 */
RunOut
runWave(Mode mode, long iters, bool query_each_iter)
{
    WaveDomain dom;
    Region region("wave", &dom);
    applyMode(region, mode);
    const std::size_t id = region.addAnalysis(waveAnalysis(true));
    AnalysisConfig second = waveAnalysis(false);
    second.feature = FeatureKind::PeakValue;
    second.featureLocation = 4;
    region.addAnalysis(second);

    RunOut out;
    for (long k = 0; k < iters; ++k) {
        region.begin();
        dom.iter = k;
        region.end();
        if (query_each_iter) {
            out.perIterPrediction.push_back(
                region.analysis(id).currentPrediction());
            if (out.stopIter < 0 && region.shouldStop())
                out.stopIter = k;
        }
    }

    const CurveFitAnalysis &a = region.analysis(id);
    out.feature = a.extractFeature();
    out.prediction = a.currentPrediction();
    out.convergedIter = a.convergedIteration();
    out.rounds = a.trainingRounds();
    out.bytes = analysisBytes(region, id) + analysisBytes(region, 1);
    return out;
}

class AsyncRegionTest : public ::testing::Test
{
  protected:
    void TearDown() override { setGlobalThreadCount(1); }
};

TEST_F(AsyncRegionTest, AsyncMatchesSerialAtEveryThreadCount)
{
    setGlobalThreadCount(1);
    const RunOut ref = runWave(Mode::Sync, 80, false);
    ASSERT_GT(ref.rounds, 2u);
    ASSERT_GE(ref.convergedIter, 0);

    for (const int t : {1, 2, 4}) {
        setGlobalThreadCount(t);
        for (const Mode mode : {Mode::Sync, Mode::Async}) {
            const RunOut r = runWave(mode, 80, false);
            EXPECT_EQ(ref.feature, r.feature) << "threads " << t;
            EXPECT_EQ(ref.prediction, r.prediction)
                << "threads " << t;
            EXPECT_EQ(ref.convergedIter, r.convergedIter)
                << "threads " << t;
            EXPECT_EQ(ref.rounds, r.rounds) << "threads " << t;
            EXPECT_EQ(ref.bytes, r.bytes)
                << "checkpoint bytes differ at " << t << " threads";
        }
    }
}

TEST_F(AsyncRegionTest, StopIterationAndQueriesIdenticalMidFlight)
{
    setGlobalThreadCount(1);
    const RunOut ref = runWave(Mode::Sync, 80, true);
    ASSERT_GE(ref.stopIter, 0)
        << "reference run never requested a stop";

    for (const int t : {1, 2, 4}) {
        setGlobalThreadCount(t);
        const RunOut r = runWave(Mode::Async, 80, true);
        EXPECT_EQ(ref.stopIter, r.stopIter) << "threads " << t;
        EXPECT_EQ(ref.perIterPrediction, r.perIterPrediction)
            << "threads " << t;
        EXPECT_EQ(ref.bytes, r.bytes) << "threads " << t;
    }
}

TEST_F(AsyncRegionTest, QueriesDrainTheEpoch)
{
    setGlobalThreadCount(2);
    WaveDomain dom;
    Region region("wave-drain", &dom);
    region.setAsyncAnalyses(true);
    const std::size_t id = region.addAnalysis(waveAnalysis(false));

    for (long k = 0; k < 20; ++k) {
        region.begin();
        dom.iter = k;
        region.end();
        // end() leaves the digest in flight...
        EXPECT_TRUE(region.epochInFlight());
        // ...and any query drains it before answering.
        region.analysis(id).observed();
        EXPECT_FALSE(region.epochInFlight());
    }

    region.begin();
    dom.iter = 20;
    region.end();
    EXPECT_TRUE(region.epochInFlight());
    EXPECT_FALSE(region.shouldStop());
    EXPECT_FALSE(region.epochInFlight());
}

TEST_F(AsyncRegionTest, DestructorWaitsForTheEpochInFlight)
{
    // Providers run on the caller at snapshot, so the digest is
    // slowed by a wide window instead: each analysis digests 4,000
    // locations per iteration and trains on their pairs, which keeps
    // the workers inside the region's epoch job when the region is
    // destroyed right after end(). The destructor must wait for
    // them: afterwards every digest has run to the end, and under
    // ASan a worker left in the job would touch the freed job and
    // analyses.
    setGlobalThreadCount(4);
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    constexpr std::size_t analysisCount = 3;
    constexpr long iters = 8; // training starts at iteration 5
    constexpr int regions = 10;
    for (int r = 0; r < regions; ++r) {
        WaveDomain dom;
        Region region("wave-dtor", &dom);
        region.setAsyncAnalyses(true);
        for (std::size_t a = 0; a < analysisCount; ++a) {
            AnalysisConfig ac = waveAnalysis(false);
            ac.space = IterParam(1, 4000, 1);
            region.addAnalysis(ac);
        }
        for (long k = 0; k < iters; ++k) {
            region.begin();
            dom.iter = k;
            region.end();
        }
        EXPECT_TRUE(region.epochInFlight());
    }
    const std::uint64_t digests =
        obs::snapshotMetrics().counter("region.digests_total");
    obs::setMetricsEnabled(false);
    EXPECT_EQ(digests, regions * iters * analysisCount);
}

/** A wave domain that records the thread of every provider call. */
struct RecordingDomain
{
    WaveDomain wave;
    std::mutex mu;
    std::vector<std::thread::id> callers;
};

double
recordingProvider(void *domain, long loc)
{
    auto *d = static_cast<RecordingDomain *>(domain);
    {
        std::lock_guard<std::mutex> lock(d->mu);
        d->callers.push_back(std::this_thread::get_id());
    }
    return d->wave.at(loc);
}

TEST_F(AsyncRegionTest, ProvidersRunOnTheCallingThread)
{
    // Providers need not be thread-safe: in both modes they run only
    // inside end(), on the thread that called it, even when a
    // several-analysis region has pool workers to digest on.
    setGlobalThreadCount(4);
    for (const Mode mode : {Mode::Sync, Mode::Async}) {
        const char *what = mode == Mode::Async ? "async" : "sync";
        RecordingDomain dom;
        Region region("wave-caller", &dom);
        applyMode(region, mode);
        for (int a = 0; a < 3; ++a) {
            AnalysisConfig ac = waveAnalysis(a == 0);
            ac.provider = recordingProvider;
            region.addAnalysis(ac);
        }
        for (long k = 0; k < 40; ++k) {
            region.begin();
            dom.wave.iter = k;
            region.end();
        }
        (void)region.shouldStop(); // drain the last epoch

        ASSERT_FALSE(dom.callers.empty()) << what;
        const std::thread::id caller = std::this_thread::get_id();
        std::size_t elsewhere = 0;
        for (const std::thread::id &id : dom.callers)
            elsewhere += id != caller ? 1 : 0;
        EXPECT_EQ(0u, elsewhere)
            << what << ": " << elsewhere << " of "
            << dom.callers.size()
            << " provider calls ran off the calling thread";
    }
}

TEST_F(AsyncRegionTest, OverheadChargesDrainStallsExactlyOnce)
{
    // overheadSeconds() reports exposed time only. A query that
    // drains an in-flight epoch charges the stall once; asking
    // again without new work must return the exact same number (no
    // hidden re-charging), and the running total must be monotone.
    setGlobalThreadCount(2);
    WaveDomain dom;
    Region region("wave-ovh", &dom);
    region.setAsyncAnalyses(true);
    region.addAnalysis(waveAnalysis(false));

    double last = 0.0;
    for (long k = 0; k < 30; ++k) {
        region.begin();
        dom.iter = k;
        region.end();
        const double charged = region.overheadSeconds(); // drains
        EXPECT_FALSE(region.epochInFlight());
        const double again = region.overheadSeconds();
        EXPECT_EQ(charged, again) << "iteration " << k;
        EXPECT_GE(charged, last);
        last = charged;
    }
    // Exposed time never exceeds wall time: the overlap hides the
    // digest, it does not double-bill it.
    Timer wall;
    const double before = region.overheadSeconds();
    for (long k = 30; k < 60; ++k) {
        region.begin();
        dom.iter = k;
        region.end();
    }
    (void)region.overheadSeconds(); // final drain charged here
    EXPECT_LE(region.overheadSeconds() - before,
              wall.elapsed() + 1e-9);
}

TEST_F(AsyncRegionTest, RelaxedStopQueryDoesNotDrainTheEpoch)
{
    setGlobalThreadCount(2);
    WaveDomain dom;
    Region region("wave-relaxed", &dom);
    region.setAsyncAnalyses(true);
    region.setRelaxedStopQuery(true);
    region.addAnalysis(waveAnalysis(false));

    for (long k = 0; k < 10; ++k) {
        region.begin();
        dom.iter = k;
        region.end();
        EXPECT_TRUE(region.epochInFlight());
        // The relaxed poll reports the published decision without
        // touching the in-flight epoch...
        EXPECT_FALSE(region.shouldStop());
        EXPECT_TRUE(region.epochInFlight());
        // ...while stopIteration() mirrors it drain-free.
        EXPECT_EQ(region.stopIteration(), -1);
    }
    // Measurement queries still drain (and charge) as before.
    (void)region.overheadSeconds();
    EXPECT_FALSE(region.epochInFlight());
}

TEST_F(AsyncRegionTest, OverheadAccountingUnderOverlappedSync)
{
    // Two thread-ranks with the overlapped sync protocol: the
    // strict stop query completes the posted collective and charges
    // any stall exactly once — repeated queries with no intervening
    // end() leave both the answer and the accounted overhead
    // untouched on every rank.
    setGlobalThreadCount(2);
    ThreadCommWorld world(2);
    world.run([&](Communicator &comm) {
        WaveDomain dom;
        Region region("wave-sync-ovh", &dom, &comm);
        region.setAsyncAnalyses(true);
        region.setSyncInterval(4);
        region.addAnalysis(waveAnalysis(true));

        for (long k = 0; k < 80; ++k) {
            region.begin();
            dom.iter = k;
            region.end();
            const bool stop1 = region.shouldStop(); // drain+harvest
            const double o1 = region.overheadSeconds();
            const double o2 = region.overheadSeconds();
            EXPECT_EQ(o1, o2) << "rank " << comm.rank() << " it "
                              << k;
            const bool stop2 = region.shouldStop();
            EXPECT_EQ(stop1, stop2);
            EXPECT_EQ(region.overheadSeconds(), o2)
                << "repeat query re-charged overhead";
        }
        EXPECT_TRUE(region.shouldStop())
            << "stopper analysis never converged";
    });
}

TEST_F(AsyncRegionTest, CheckpointDrainsAndRoundTripsAcrossModes)
{
    const long split = 30, total = 70;

    // 1-thread reference: checkpoint at the split, state at the end.
    setGlobalThreadCount(1);
    WaveDomain dref;
    Region serial("wave-ck", &dref);
    serial.addAnalysis(waveAnalysis(true));
    std::stringstream serial_split;
    for (long k = 0; k < total; ++k) {
        serial.begin();
        dref.iter = k;
        serial.end();
        if (k == split - 1)
            serial.saveCheckpoint(serial_split);
    }
    const std::string serial_end = analysisBytes(serial, 0);

    // Async run up to the split: saveCheckpoint must drain the
    // in-flight epoch and emit the same analysis payload the serial
    // run saved.
    setGlobalThreadCount(2);
    std::stringstream async_split;
    {
        WaveDomain dom;
        Region async_r("wave-ck", &dom);
        async_r.setAsyncAnalyses(true);
        async_r.addAnalysis(waveAnalysis(true));
        for (long k = 0; k < split; ++k) {
            async_r.begin();
            dom.iter = k;
            async_r.end();
        }
        EXPECT_TRUE(async_r.epochInFlight());
        async_r.saveCheckpoint(async_split);
        EXPECT_FALSE(async_r.epochInFlight());
    }

    // The region checkpoint carries wall-clock overhead/step
    // timings, which legitimately differ between runs; the analysis
    // payloads and protocol state must not. Restore both
    // checkpoints and continue both restored regions to the end —
    // one synchronously, one async — and compare final states.
    auto continue_from = [&](std::stringstream &ck,
                             bool async_mode) -> std::string {
        WaveDomain dom;
        Region region("wave-ck", &dom);
        region.setAsyncAnalyses(async_mode);
        region.addAnalysis(waveAnalysis(true));
        const std::string bytes = ck.str();
        BinaryReader r(bytes);
        region.loadCheckpoint(r);
        EXPECT_EQ(split, region.iteration());
        for (long k = split; k < total; ++k) {
            region.begin();
            dom.iter = k;
            region.end();
        }
        return analysisBytes(region, 0);
    };
    const std::string from_serial = continue_from(serial_split, false);
    const std::string from_async = continue_from(async_split, true);
    EXPECT_EQ(serial_end, from_serial);
    EXPECT_EQ(serial_end, from_async);
}

} // namespace
