/**
 * @file
 * Property tests for the relaxed stop query
 * (Region::setRelaxedStopQuery): across seeds, thread counts, and
 * workloads (synthetic wave, clover2d, blast), the relaxed-mode
 * stop iteration trails the strict mode by at most one iteration,
 * and fixed-length runs stay bitwise identical — features,
 * predictions, and per-analysis checkpoint bytes — because the
 * relaxed query changes only *when* the pipeline is drained, never
 * what it computes.
 */

#include <cmath>
#include <gtest/gtest.h>
#include <string>

#include "base/serial.hh"
#include "base/thread_pool.hh"
#include "blastapp/runner.hh"
#include "clover2d/app.hh"
#include "core/region.hh"
#include "par/thread_comm.hh"

namespace
{

using namespace tdfe;

/** Deterministic travelling pulse; seeds reshape its attenuation
 *  and ripple so every seed trains a genuinely different model. */
struct WaveDomain
{
    long iter = 0;
    int seed = 0;

    double
    at(long loc) const
    {
        const double x = static_cast<double>(loc);
        const double t = static_cast<double>(iter);
        const double front = (0.3 + 0.02 * seed) * t;
        const double amp = 1.0 / (1.0 + (0.02 + 0.005 * seed) * x);
        return amp * std::exp(-(x - front) * (x - front) / 24.0) +
               0.01 * std::sin(0.7 * x + 0.3 * t + seed);
    }
};

AnalysisConfig
waveAnalysis(int seed, bool stopper)
{
    AnalysisConfig ac;
    ac.name = "wave";
    ac.provider = [](void *domain, long loc) {
        return static_cast<WaveDomain *>(domain)->at(loc);
    };
    ac.space = IterParam(1, 16, 1);
    ac.time = IterParam(5, 70, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = 0.3;
    ac.searchEnd = 16;
    ac.minLocation = 1;
    ac.stopWhenConverged = stopper;
    ac.ar.axis = LagAxis::Space;
    ac.ar.order = 2 + seed % 3;
    ac.ar.lag = 1 + seed % 2;
    ac.ar.batchSize = 6 + 2 * (seed % 3);
    ac.ar.convergeTol = 0.25;
    ac.ar.convergePatience = 2;
    ac.ar.minBatches = 2;
    return ac;
}

/** First iteration whose per-step poll reported a stop (-1: none),
 *  plus the final analysis checkpoint bytes. */
struct StopTrace
{
    long stopIter = -1;
    std::string bytes;
    double feature = 0.0;
    std::size_t convergedRound = 0;
};

StopTrace
runWave(int seed, bool relaxed, long iters, bool honor_stop)
{
    WaveDomain dom;
    dom.seed = seed;
    Region region("relaxed-wave", &dom);
    region.setAsyncAnalyses(true);
    region.setRelaxedStopQuery(relaxed);
    const std::size_t id =
        region.addAnalysis(waveAnalysis(seed, true));

    StopTrace out;
    for (long k = 0; k < iters; ++k) {
        region.begin();
        dom.iter = k;
        region.end();
        if (region.shouldStop()) {
            if (out.stopIter < 0)
                out.stopIter = k;
            if (honor_stop)
                break;
        }
    }
    out.feature = region.analysis(id).extractFeature();
    out.convergedRound = region.analysis(id).convergedRound();
    BinaryWriter w(out.bytes);
    region.analysis(id).save(w);
    return out;
}

class RelaxedStopTest : public ::testing::Test
{
  protected:
    void TearDown() override { setGlobalThreadCount(1); }
};

TEST_F(RelaxedStopTest, WaveStopTrailsStrictByAtMostOneAcrossSeeds)
{
    for (int seed = 0; seed < 5; ++seed) {
        for (const int threads : {1, 2, 4}) {
            setGlobalThreadCount(threads);
            const StopTrace strict =
                runWave(seed, false, 150, false);
            ASSERT_GE(strict.stopIter, 0)
                << "seed " << seed << " never stopped";
            const StopTrace relaxed =
                runWave(seed, true, 150, false);
            ASSERT_GE(relaxed.stopIter, 0) << "seed " << seed;
            EXPECT_GE(relaxed.stopIter, strict.stopIter)
                << "seed " << seed << " threads " << threads;
            EXPECT_LE(relaxed.stopIter, strict.stopIter + 1)
                << "seed " << seed << " threads " << threads;
            // Fixed-length runs: the relaxed query must not change
            // a single byte of what the pipeline computed.
            EXPECT_EQ(strict.bytes, relaxed.bytes)
                << "seed " << seed << " threads " << threads;
            EXPECT_EQ(strict.feature, relaxed.feature);
            // The decision's publication round is part of the
            // invariant state: only the query timing may differ.
            ASSERT_GT(strict.convergedRound, 0u);
            EXPECT_EQ(strict.convergedRound,
                      relaxed.convergedRound);
        }
    }
}

TEST_F(RelaxedStopTest, WaveHonoredStopRunsAtMostOneIterationLonger)
{
    for (int seed = 0; seed < 5; ++seed) {
        setGlobalThreadCount(2);
        const StopTrace strict = runWave(seed, false, 150, true);
        ASSERT_GE(strict.stopIter, 0) << "seed " << seed;
        const StopTrace relaxed = runWave(seed, true, 150, true);
        ASSERT_GE(relaxed.stopIter, 0) << "seed " << seed;
        EXPECT_GE(relaxed.stopIter, strict.stopIter);
        EXPECT_LE(relaxed.stopIter, strict.stopIter + 1);
    }
}

/** Clover workload: the instrumented 2D blast loop of
 *  bench/async_pipeline, shrunk to test size. */
StopTrace
runClover(bool relaxed, bool stopper, long steps)
{
    clover::CloverAppConfig cfg;
    cfg.size = 32;
    cfg.maxIterations = steps + 1;
    clover::CloverField field(cfg);

    Region region("relaxed-clover", &field);
    region.setAsyncAnalyses(true);
    region.setRelaxedStopQuery(relaxed);

    AnalysisConfig ac;
    ac.name = "clover-bp";
    ac.provider = [](void *domain, long loc) {
        return static_cast<clover::CloverField *>(domain)->fieldAt(
            loc);
    };
    ac.space = IterParam(1, 20, 1);
    ac.time = IterParam(6, (steps * 3) / 5, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = 0.05;
    ac.searchEnd = cfg.size;
    ac.minLocation = 1;
    ac.stopWhenConverged = stopper;
    ac.ar.axis = LagAxis::Space;
    ac.ar.order = 3;
    ac.ar.lag = 2;
    ac.ar.batchSize = 12;
    ac.ar.convergeTol = 0.3;
    ac.ar.convergePatience = 2;
    ac.ar.minBatches = 2;
    const std::size_t id = region.addAnalysis(std::move(ac));

    StopTrace out;
    for (long s = 0; s < steps; ++s) {
        region.begin();
        clover::Timestep(field);
        clover::HydroCycle(field);
        field.gatherProbes();
        region.end();
        if (out.stopIter < 0 && region.shouldStop())
            out.stopIter = s;
    }
    out.feature = region.analysis(id).extractFeature();
    BinaryWriter w(out.bytes);
    region.analysis(id).save(w);
    return out;
}

TEST_F(RelaxedStopTest, CloverDigestIdenticalAndStopWithinOne)
{
    setGlobalThreadCount(2);
    const long steps = 140;
    const StopTrace strict = runClover(false, true, steps);
    const StopTrace relaxed = runClover(true, true, steps);
    EXPECT_EQ(strict.bytes, relaxed.bytes);
    EXPECT_EQ(strict.feature, relaxed.feature);
    if (strict.stopIter >= 0) {
        ASSERT_GE(relaxed.stopIter, strict.stopIter);
        EXPECT_LE(relaxed.stopIter, strict.stopIter + 1);
    } else {
        EXPECT_EQ(relaxed.stopIter, -1);
    }
}

/** Blast workload helpers (the paper's LULESH stand-in). */
blast::BlastConfig
smallBlast()
{
    blast::BlastConfig cfg;
    cfg.size = 16;
    return cfg;
}

AnalysisConfig
blastAnalysis(long total_iters, double threshold_abs, bool stop)
{
    AnalysisConfig ac;
    ac.space = IterParam(1, 8, 1);
    ac.time = IterParam(total_iters / 20, (total_iters * 2) / 5, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = threshold_abs;
    ac.searchEnd = 16;
    ac.minLocation = 1;
    ac.stopWhenConverged = stop;
    ac.ar.order = 3;
    ac.ar.lag = 2;
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 16;
    ac.ar.convergeTol = 0.1;
    ac.ar.convergePatience = 3;
    ac.ar.minBatches = 4;
    return ac;
}

TEST_F(RelaxedStopTest, BlastStopWithinOneAndNonStopIdentical)
{
    setGlobalThreadCount(2);
    blast::RunOptions probe;
    probe.recordTrace = true;
    const blast::RunResult truth =
        blast::runBlast(smallBlast(), nullptr, probe);
    ASSERT_GT(truth.iterations, 40);
    const double threshold = 0.05 * truth.initialVelocity;

    // Early-terminated: relaxed stops at most one iteration later.
    auto stop_run = [&](bool relaxed) {
        blast::RunOptions opt;
        opt.instrument = true;
        opt.honorStop = true;
        opt.asyncAnalyses = true;
        opt.relaxedStop = relaxed;
        opt.analysis =
            blastAnalysis(truth.iterations, threshold, true);
        return blast::runBlast(smallBlast(), nullptr, opt);
    };
    const blast::RunResult strict = stop_run(false);
    const blast::RunResult relaxed = stop_run(true);
    ASSERT_TRUE(strict.stoppedEarly);
    ASSERT_TRUE(relaxed.stoppedEarly);
    EXPECT_GE(relaxed.iterations, strict.iterations);
    EXPECT_LE(relaxed.iterations, strict.iterations + 1);
    EXPECT_EQ(strict.convergedIteration, relaxed.convergedIteration);

    // Non-stop instrumented runs: every extracted number bitwise
    // identical between the strict and relaxed query modes.
    auto full_run = [&](bool relaxed_q) {
        blast::RunOptions opt;
        opt.instrument = true;
        opt.asyncAnalyses = true;
        opt.relaxedStop = relaxed_q;
        opt.analysis =
            blastAnalysis(truth.iterations, threshold, false);
        return blast::runBlast(smallBlast(), nullptr, opt);
    };
    const blast::RunResult a = full_run(false);
    const blast::RunResult b = full_run(true);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.featureValue, b.featureValue);
    EXPECT_EQ(a.validationMse, b.validationMse);
    EXPECT_EQ(a.convergedIteration, b.convergedIteration);
}

TEST_F(RelaxedStopTest, MultiRankRelaxedStopAgreesAcrossRanks)
{
    // Two thread-ranks with replicated analyses: the relaxed query
    // must pick the same stop iteration on every rank (the decision
    // is published deterministically, the posted collective is only
    // belt-and-braces), and it must stay within one iteration of
    // the strict protocol.
    setGlobalThreadCount(2);
    blast::RunOptions probe;
    probe.recordTrace = true;
    const blast::RunResult truth =
        blast::runBlast(smallBlast(), nullptr, probe);
    const double threshold = 0.05 * truth.initialVelocity;

    auto ranked_run = [&](bool relaxed) {
        std::vector<long> iters(2, -1);
        ThreadCommWorld world(2);
        world.run([&](Communicator &comm) {
            blast::RunOptions opt;
            opt.instrument = true;
            opt.honorStop = true;
            opt.asyncAnalyses = true;
            opt.relaxedStop = relaxed;
            opt.syncInterval = 5;
            opt.analysis =
                blastAnalysis(truth.iterations, threshold, true);
            const blast::RunResult r =
                blast::runBlast(smallBlast(), &comm, opt);
            iters[static_cast<std::size_t>(comm.rank())] =
                r.iterations;
        });
        EXPECT_EQ(iters[0], iters[1]) << "ranks diverged";
        return iters[0];
    };
    const long strict_iters = ranked_run(false);
    const long relaxed_iters = ranked_run(true);
    EXPECT_GE(relaxed_iters, strict_iters);
    EXPECT_LE(relaxed_iters, strict_iters + 1);
}

} // namespace
