/**
 * @file
 * Quickstart: attach an in-situ auto-regression analysis to a toy
 * iterative "simulation" (a damped travelling wave), train it while
 * the loop runs, and extract a threshold feature — everything the
 * library does, in fifty lines.
 */

#include <cmath>
#include <cstdio>

#include "base/cli.hh"
#include "core/region.hh"

using namespace tdfe;

/** A fake simulation domain: an attenuating wave over 20 sites. */
struct ToySim
{
    long step = 0;

    double
    value(long site) const
    {
        const double ramp = 1.0 - std::exp(-step / 30.0);
        return 5.0 * std::pow(0.75, site - 1) * ramp;
    }
};

int
main(int argc, char **argv)
{
    ArgParser args("Quickstart: one in-situ AR analysis on a toy "
                   "travelling wave");
    addThreadsOption(args);
    // --metrics-out / --trace-out / --metrics-every work here like
    // everywhere else (see src/obs): every layer under begin()/end()
    // is instrumented, the flags only turn recording on.
    addObsOptions(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    const ObsCliOptions obsCli = obsOptions(args);
    applyObsOptions(obsCli);

    ToySim sim;

    // 1. A region bound to the simulation domain.
    Region region("quickstart", &sim);

    // 2. One curve-fitting analysis: sample sites 1..8 every
    //    iteration from step 10 to 150, fit a spatial AR model, and
    //    find the break-point where the wave drops below 0.4.
    AnalysisConfig cfg;
    cfg.provider = [](void *domain, long site) {
        return static_cast<ToySim *>(domain)->value(site);
    };
    cfg.space = IterParam(1, 8, 1);
    cfg.time = IterParam(10, 150, 1);
    cfg.feature = FeatureKind::BreakpointRadius;
    cfg.threshold = 0.4;
    cfg.searchEnd = 20;
    cfg.minLocation = 1;
    cfg.ar.axis = LagAxis::Space;
    cfg.ar.order = 2;
    cfg.ar.batchSize = 16;
    const std::size_t id = region.addAnalysis(std::move(cfg));

    // 3. The simulation loop, bracketed by begin()/end().
    for (sim.step = 0; sim.step <= 150; ++sim.step) {
        region.begin();
        // ... the real solver kernels would run here ...
        region.end();
    }

    // 4. Query the results.
    const CurveFitAnalysis &a = region.analysis(id);
    std::printf("trained on %zu mini-batches, validation MSE %.2e\n",
                a.trainingRounds(), a.lastValidationMse());
    std::printf("break-point radius (threshold 0.4): %ld\n",
                a.breakPoint().radius);
    std::printf("ground truth: 5 * 0.75^(r-1) >= 0.4 up to r = %d\n",
                9);
    std::printf("in-situ memory footprint: %zu bytes\n",
                a.observed().memoryBytes());
    finishObsOptions(obsCli);
    return 0;
}
