/**
 * @file
 * End-to-end tests of the analysis pipeline and the Region
 * orchestrator on a synthetic attenuating-wave domain.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "core/region.hh"
#include "par/thread_comm.hh"

namespace
{

using namespace tdfe;

/**
 * Synthetic domain: V(l, t) = 10 * 0.7^(l-1) * ramp(t), an
 * attenuating profile obeying V(l,t) ~= 0.7 * V(l-1, t-1) once the
 * ramp saturates.
 */
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
waveAnalysis(double threshold_fraction, bool stop)
{
    AnalysisConfig ac;
    ac.provider = [](void *domain, long loc) {
        auto *d = static_cast<WaveDomain *>(domain);
        return d->value(loc, d->iter);
    };
    ac.space = IterParam(1, 6, 1);
    ac.time = IterParam(10, 200, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = threshold_fraction * 10.0;
    ac.searchEnd = 25;
    ac.minLocation = 1;
    ac.stopWhenConverged = stop;
    ac.ar.order = 2;
    ac.ar.lag = 1;
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 24;
    ac.ar.convergeTol = 1e-3;
    ac.ar.convergePatience = 3;
    ac.ar.minBatches = 4;
    return ac;
}

TEST(Analysis, LearnsWaveAndExtractsBreakpoint)
{
    WaveDomain domain;
    Region region("wave", &domain);
    const std::size_t id = region.addAnalysis(waveAnalysis(0.05,
                                                           false));

    for (domain.iter = 0; domain.iter <= 200; ++domain.iter) {
        region.begin();
        region.end();
    }

    const CurveFitAnalysis &a = region.analysis(id);
    EXPECT_TRUE(a.converged());
    EXPECT_GT(a.trainingRounds(), 3u);
    EXPECT_LT(a.lastValidationMse(), 1e-3);

    // Ground truth: 10 * 0.7^(l-1) >= 0.5 up to l = 9. The model
    // must extrapolate from sampled locations 1..6 to find it.
    const BreakPoint bp = a.breakPoint();
    EXPECT_NEAR(static_cast<double>(bp.radius), 9.0, 1.0);
    EXPECT_FALSE(bp.clamped);

    // The model reproduces the attenuation: feeding a saturated
    // profile slice predicts ~0.7 of the nearest lag. (Individual
    // coefficients are not identifiable — the two lag columns are
    // collinear on this field.)
    const double pred = a.model().predict({7.0, 10.0});
    EXPECT_NEAR(pred, 4.9, 0.5);

    // Wave front: largest value sits at the innermost location.
    EXPECT_EQ(a.wavefrontLocation(), 1);
}

TEST(Analysis, TinyThresholdClampsAtSearchEnd)
{
    WaveDomain domain;
    Region region("wave", &domain);
    const std::size_t id =
        region.addAnalysis(waveAnalysis(1e-7, false));
    for (domain.iter = 0; domain.iter <= 200; ++domain.iter) {
        region.begin();
        region.end();
    }
    // The paper's low-threshold rows: extraction saturates at the
    // domain boundary.
    const BreakPoint bp = region.analysis(id).breakPoint();
    EXPECT_EQ(bp.radius, 25);
    EXPECT_TRUE(bp.clamped);
}

TEST(Region, EarlyStopProtocol)
{
    // One ThreadComm rank: every collective completes at post time.
    ThreadCommWorld world(1);
    world.run([](Communicator &comm) {
        WaveDomain domain;
        Region region("wave", &domain, &comm);
        region.setSyncInterval(5);
        region.addAnalysis(waveAnalysis(0.05, true));
        region.setRankOfLocation([](long) { return 0; });

        long stop_iter = -1;
        for (domain.iter = 0; domain.iter <= 200; ++domain.iter) {
            region.begin();
            region.end();
            if (region.shouldStop()) {
                stop_iter = domain.iter;
                break;
            }
        }
        ASSERT_GT(stop_iter, 0);
        EXPECT_LT(stop_iter, 200);
        EXPECT_EQ(region.wavefrontRank(), 0);
        // The convergence broadcast carried the stop flag.
        EXPECT_DOUBLE_EQ(region.lastBroadcast()[2], 1.0);
        EXPECT_GT(region.overheadSeconds(), 0.0);
        EXPECT_GE(region.stepSeconds(), region.overheadSeconds() * 0.0);
    });
}

TEST(Region, IterationCountsAndAccessors)
{
    WaveDomain domain;
    Region region("wave", &domain);
    region.addAnalysis(waveAnalysis(0.05, false));
    EXPECT_EQ(region.analysisCount(), 1u);
    for (domain.iter = 0; domain.iter < 30; ++domain.iter) {
        region.begin();
        region.end();
    }
    EXPECT_EQ(region.iteration(), 30);
}

TEST(RegionDeathTest, MisnestedBeginEndPanics)
{
    WaveDomain domain;
    Region region("wave", &domain);
    EXPECT_DEATH(region.end(), "without matching begin");
    region.begin();
    EXPECT_DEATH(region.begin(), "without matching end");
}

TEST(RegionDeathTest, LateAnalysisRegistrationPanics)
{
    WaveDomain domain;
    Region region("wave", &domain);
    region.addAnalysis(waveAnalysis(0.05, false));
    region.begin();
    region.end();
    EXPECT_DEATH(region.addAnalysis(waveAnalysis(0.05, false)),
                 "before the first");
}

TEST(Analysis, DelayTimeFeatureOnSyntheticDiagnostic)
{
    // Diagnostic with a kink at t = 60: slope 1 then flat.
    struct KinkDomain
    {
        long iter = 0;
    } domain;

    AnalysisConfig ac;
    ac.provider = [](void *d, long) {
        const long t = static_cast<KinkDomain *>(d)->iter;
        return t < 60 ? static_cast<double>(t) : 60.0;
    };
    ac.space = IterParam(0, 0, 1);
    ac.time = IterParam(5, 50, 1);
    ac.feature = FeatureKind::DelayTime;
    ac.smoothWindow = 3;
    ac.ar.order = 3;
    ac.ar.lag = 1;
    ac.ar.axis = LagAxis::Time;
    ac.ar.batchSize = 8;

    Region region("kink", &domain);
    const std::size_t id = region.addAnalysis(std::move(ac));
    for (domain.iter = 0; domain.iter <= 120; ++domain.iter) {
        region.begin();
        region.end();
    }
    // The fitted curve's strongest gradient change sits at the kink.
    const double feature = region.analysis(id).extractFeature();
    EXPECT_NEAR(feature, 60.0, 3.0);
}

} // namespace
