#include "wdmerger/runner.hh"

#include <algorithm>
#include <memory>

#include "core/predictor.hh"
#include "core/region.hh"
#include "stats/metrics.hh"

namespace tdfe
{

namespace wd
{

namespace
{

/** The merger app behind the harness's app interface: one loop
 *  iteration is one dump interval. */
class WdHarnessApp : public HarnessApp
{
  public:
    explicit WdHarnessApp(WdMergerApp &app) : app(app) {}

    bool finished() const override { return app.finished(); }
    void step() override { app.advanceDump(); }
    long cycle() const override { return app.dumpIndex(); }
    void save(BinaryWriter &w) const override { app.save(w); }
    void load(BinaryReader &r) override { app.load(r); }

  private:
    WdMergerApp &app;
};

} // namespace

WdRunResult
runWdMerger(const WdMergerConfig &config, Communicator *comm,
            const WdRunOptions &options)
{
    WdRunResult result;
    WdMergerApp app(config, comm);

    const long total_dumps = static_cast<long>(
        config.tEnd / config.dumpInterval + 0.5);

    std::unique_ptr<Region> region =
        makeRegion("wdmerger", &app, comm, options);
    if (region) {
        const long span =
            static_cast<long>(options.ar.order) * options.ar.lag;
        long train_end = static_cast<long>(
            options.trainFraction * static_cast<double>(total_dumps));
        train_end = std::max(train_end, span + 4);

        for (int v = 0; v < numDiagVars; ++v) {
            AnalysisConfig ac;
            ac.name = diagName(static_cast<DiagVar>(v));
            ac.provider = [](void *domain, long loc) {
                return static_cast<WdMergerApp *>(domain)
                    ->diagnostic(static_cast<DiagVar>(loc));
            };
            ac.space = IterParam(v, v, 1);
            ac.time = IterParam(span, train_end, 1);
            ac.feature = FeatureKind::DelayTime;
            ac.smoothWindow = options.smoothWindow;
            ac.featureLocation = v;
            ac.minLocation = v;
            ac.stopWhenConverged = true;
            ac.ar = options.ar;
            region->addAnalysis(std::move(ac));
        }
    }

    WdHarnessApp harness_app(app);
    runHarness(harness_app, region.get(), comm, options, result);

    result.dumps = app.dumpIndex();
    result.sphSteps = app.sphSteps();
    result.mergeTime = app.mergeTime();
    result.detonationTime = app.detonationTime();
    for (int v = 0; v < numDiagVars; ++v)
        result.history[v] = app.history(static_cast<DiagVar>(v));

    if (region) {
        for (int v = 0; v < numDiagVars; ++v) {
            const CurveFitAnalysis &a =
                region->analysis(static_cast<std::size_t>(v));
            result.convergedIteration[v] = a.convergedIteration();

            // Analysis iteration i observes the diagnostic recorded
            // after dump i+1, i.e. time (i+1)*dumpInterval.
            const double feature = a.extractFeature();
            result.delayTime[v] =
                (feature + 1.0) * config.dumpInterval;

            // The curve-fit error is scored on the one-step fitted
            // curve over the entire recorded series, exactly the
            // comparison the paper plots in Fig. 7 and tabulates in
            // Table V.
            const Predictor pred(a.model(), a.observed());
            const FittedSeries fit = pred.oneStepSeries(v);
            if (!fit.predicted.empty()) {
                result.fitErrorPct[v] =
                    errorRatePct(fit.predicted, fit.actual);
                result.fitted[v] = fit.predicted;
                result.fittedIters[v] = fit.iters;
            }
        }
    }
    return result;
}

WdRunResult
runWdMergerResilient(const WdMergerConfig &config, Communicator *comm,
                     const WdRunOptions &options)
{
    return superviseRuns(options, [&](const WdRunOptions &attempt) {
        return runWdMerger(config, comm, attempt);
    });
}

} // namespace wd

} // namespace tdfe
