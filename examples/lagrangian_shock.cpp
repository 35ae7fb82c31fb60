/**
 * @file
 * Third-substrate demo on the async pipeline: instrument the 1D
 * spherical Lagrangian (von Neumann-Richtmyer) solver with the same
 * break-point analysis the LULESH stand-in and clover2d use, running
 * the ingest asynchronously — td_region_end only snapshots the node
 * velocities and the mini-batch training digests on the thread pool
 * while the solver computes the next step. The extracted feature is
 * checked against the recorded probe peaks, and the exposed overhead
 * (what actually blocked the solver loop) is reported.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "base/cli.hh"
#include "core/region.hh"
#include "lagrangian/solver1d.hh"

using namespace tdfe;

int
main(int argc, char **argv)
{
    ArgParser args("1D spherical Lagrangian blast with an async "
                   "in-situ break-point analysis");
    args.addInt("zones", 60, "Lagrangian zones");
    addThreadsOption(args);
    addObsOptions(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    const ObsCliOptions obsCli = obsOptions(args);
    applyObsOptions(obsCli);

    Lagrangian1Config config;
    config.zones = static_cast<int>(args.getInt("zones"));
    config.length = static_cast<double>(config.zones);
    const double stop_radius = 0.9 * config.length;

    // Dry run: total cycle count sizes the temporal window, probe
    // peaks double as ground truth for the break-point.
    LagrangianSolver1D probe(config);
    probe.depositCenterEnergy(1.0);
    std::vector<double> peak(
        static_cast<std::size_t>(config.zones) + 1, 0.0);
    double v_init = 0.0;
    long total = 0;
    while (probe.shockRadius() < stop_radius) {
        probe.advance();
        ++total;
        for (long l = 1; l <= config.zones; ++l) {
            auto &p = peak[static_cast<std::size_t>(l)];
            p = std::max(p, probe.velocityAt(l));
        }
        v_init = std::max(v_init, probe.velocityAt(1));
    }
    std::printf("full 1D blast run: %ld cycles to t = %.3f\n", total,
                probe.time());

    LagrangianSolver1D solver(config);
    solver.depositCenterEnergy(1.0);

    Region region("lagrangian_shock", &solver);
    // Async ingest: the digest of cycle k trains while the solver
    // runs cycle k+1; queries drain, so results are bitwise
    // identical to a synchronous run.
    region.setAsyncAnalyses(true);

    AnalysisConfig cfg;
    cfg.name = "lagrangian-breakpoint";
    cfg.provider = [](void *domain, long loc) {
        return static_cast<LagrangianSolver1D *>(domain)
            ->velocityAt(loc);
    };
    cfg.space = IterParam(1, std::min<long>(20, config.zones - 2), 1);
    cfg.time = IterParam(total / 20, (total * 3) / 5, 1);
    cfg.feature = FeatureKind::BreakpointRadius;
    cfg.threshold = 0.1 * v_init;
    cfg.searchEnd = config.zones;
    cfg.minLocation = 1;
    cfg.ar.axis = LagAxis::Space;
    cfg.ar.order = 3;
    cfg.ar.lag = std::max<long>(2, total / 150);
    cfg.ar.batchSize = 16;
    const std::size_t id = region.addAnalysis(std::move(cfg));

    while (solver.shockRadius() < stop_radius) {
        region.begin();
        solver.advance();
        region.end();
    }

    const CurveFitAnalysis &a = region.analysis(id);
    long truth = 0;
    for (long l = 1; l <= config.zones; ++l)
        if (peak[static_cast<std::size_t>(l)] >= 0.1 * v_init)
            truth = l;
    std::printf("mini-batch rounds: %zu, validation MSE %.2e\n",
                a.trainingRounds(), a.lastValidationMse());
    std::printf("break-point radius: extracted %ld, ground truth "
                "%ld\n",
                a.breakPoint().radius, truth);
    std::printf("exposed analysis overhead: %.3f ms over %ld cycles "
                "(%.2f us/cycle)\n",
                1e3 * region.overheadSeconds(), region.iteration(),
                1e6 * region.overheadSeconds() /
                    static_cast<double>(region.iteration()));
    finishObsOptions(obsCli);
    return 0;
}
