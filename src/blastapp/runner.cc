#include "blastapp/runner.hh"

#include <memory>

#include "core/region.hh"

namespace tdfe
{

namespace blast
{

namespace
{

/** The blast domain behind the harness's app interface; the probe
 *  gather (and trace record) runs outside the solver span. */
class BlastHarnessApp : public HarnessApp
{
  public:
    BlastHarnessApp(Domain &domain, bool gather, RunResult *trace_to)
        : domain(domain), gather(gather), traceTo(trace_to)
    {
    }

    bool finished() const override { return domain.finished(); }

    void
    step() override
    {
        TimeIncrement(domain);
        LagrangeLeapFrog(domain);
    }

    void
    afterStep() override
    {
        if (gather)
            domain.gatherProbes();
        if (traceTo)
            traceTo->trace.push_back(domain.probes());
    }

    long cycle() const override { return domain.cycle(); }
    void save(BinaryWriter &w) const override { domain.save(w); }
    void load(BinaryReader &r) override { domain.load(r); }

  private:
    Domain &domain;
    const bool gather;
    RunResult *const traceTo;
};

} // namespace

RunResult
runBlast(const BlastConfig &config, Communicator *comm,
         const RunOptions &options)
{
    Domain domain(config, comm);
    RunResult result;

    std::unique_ptr<Region> region =
        makeRegion("blast", &domain, comm, options);
    if (region) {
        region->setRankOfLocation([&domain](long loc) {
            return domain.rankOfLocation(loc);
        });
        AnalysisConfig ac = options.analysis;
        ac.provider = [](void *d, long loc) {
            return static_cast<Domain *>(d)->xd(loc);
        };
        region->addAnalysis(std::move(ac));
    }

    BlastHarnessApp app(domain, options.instrument || options.recordTrace,
                        options.recordTrace ? &result : nullptr);
    runHarness(app, region.get(), comm, options, result);

    result.iterations = domain.cycle();
    result.initialVelocity = domain.initialVelocity();
    if (region) {
        const CurveFitAnalysis &a = region->analysis(0);
        result.convergedIteration = a.convergedIteration();
        result.validationMse = a.lastValidationMse();
        if (a.config().feature == FeatureKind::BreakpointRadius) {
            result.breakPoint = a.breakPoint();
            result.featureValue =
                static_cast<double>(result.breakPoint.radius);
        } else {
            result.featureValue = a.extractFeature();
        }
    }
    return result;
}

RunResult
runBlastResilient(const BlastConfig &config, Communicator *comm,
                  const RunOptions &options)
{
    return superviseRuns(options, [&](const RunOptions &attempt) {
        return runBlast(config, comm, attempt);
    });
}

} // namespace blast

} // namespace tdfe
