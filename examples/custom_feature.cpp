/**
 * @file
 * Custom feature extraction: the library's feature kinds beyond the
 * two headline cases — PeakValue tracking on an oscillating
 * diagnostic, plus direct use of the variable tracker and the
 * threshold extractor on user data.
 */

#include <cmath>
#include <cstdio>

#include "base/cli.hh"
#include "core/region.hh"
#include "core/threshold.hh"
#include "core/tracker.hh"

using namespace tdfe;

/** A ringing diagnostic: damped oscillation around a drift. */
struct RingDomain
{
    long step = 0;

    double
    value(long) const
    {
        const double t = static_cast<double>(step);
        return 2.0 + 0.01 * t +
               1.5 * std::exp(-t / 120.0) *
                   std::sin(2.0 * M_PI * t / 40.0);
    }
};

int
main(int argc, char **argv)
{
    ArgParser args("Custom features: in-situ peak tracking plus the "
                   "standalone tracker and threshold extractor");
    addThreadsOption(args);
    addObsOptions(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    const ObsCliOptions obsCli = obsOptions(args);
    applyObsOptions(obsCli);

    // 1. In-situ peak tracking through the Region API.
    RingDomain sim;
    Region region("ring", &sim);
    AnalysisConfig cfg;
    cfg.provider = [](void *d, long loc) {
        return static_cast<RingDomain *>(d)->value(loc);
    };
    cfg.space = IterParam(0, 0, 1);
    cfg.time = IterParam(4, 200, 1);
    cfg.feature = FeatureKind::PeakValue;
    cfg.ar.axis = LagAxis::Time;
    cfg.ar.order = 4;
    cfg.ar.batchSize = 8;
    const std::size_t id = region.addAnalysis(std::move(cfg));

    for (sim.step = 0; sim.step <= 200; ++sim.step) {
        region.begin();
        region.end();
    }
    std::printf("latest fitted local maximum: %.3f\n",
                region.analysis(id).extractFeature());

    // 2. The same trackers, used standalone on user-held series.
    std::vector<double> series;
    for (int t = 0; t <= 200; ++t) {
        RingDomain probe;
        probe.step = t;
        series.push_back(probe.value(0));
    }
    const auto maxima = VariableTracker::localMaxima(series);
    std::printf("streaming k1/k2/k3 tracker found %zu local "
                "maxima:\n",
                maxima.size());
    for (const auto &p : maxima)
        std::printf("  step %zu: %.3f\n", p.index, p.value);

    const auto infl = VariableTracker::inflections(series);
    std::printf("%zu inflection points\n", infl.size());

    // 3. Threshold search over a decaying profile.
    ThresholdExtractor extractor(2.2, 6);
    const BreakPoint bp = extractor.find(
        [&](long l) {
            // Envelope of the ring: drift + decaying amplitude.
            return 2.0 + 1.5 * std::exp(-l / 120.0);
        },
        0, 400);
    std::printf("envelope drops below 2.2 after step %ld "
                "(%ld profile evaluations, clamped=%d)\n",
                bp.radius, bp.evaluations, bp.clamped ? 1 : 0);
    finishObsOptions(obsCli);
    return 0;
}
