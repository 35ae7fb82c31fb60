/**
 * @file
 * Second-substrate demo: attach the same in-situ auto-regression
 * analysis used on the LULESH stand-in to a structurally different
 * hydro code — the CloverLeaf-style 2D staggered Lagrangian-remap
 * solver. The paper's integration pattern (Fig. 2) is unchanged:
 * a provider reading one scalar per location, begin()/end() around
 * the solver kernels, and a threshold break-point query at the end.
 *
 * This demonstrates the library's portability claim: nothing in the
 * analysis knows whether the substrate is 3D Godunov, 2D staggered
 * remap, or SPH — only the provider changes.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "base/cli.hh"
#include "clover2d/app.hh"
#include "core/region.hh"
#include "harness/run_harness.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "par/store_merge.hh"

using namespace tdfe;
using namespace tdfe::clover;

int
main(int argc, char **argv)
{
    ArgParser args("2D staggered Lagrangian-remap blast with an "
                   "in-situ break-point analysis");
    args.addInt("size", 48, "grid cells per side");
    addThreadsOption(args);
    addStoreOptions(args);
    // --metrics-out <file> snapshots every counter at exit,
    // --trace-out <file> records spans for Perfetto, and
    // --metrics-every <n> prints a heartbeat line from the loop.
    addObsOptions(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    const StoreCliOptions storeCli = storeOptions(args);
    const ObsCliOptions obsCli = obsOptions(args);
    applyObsOptions(obsCli);

    CloverAppConfig config;
    config.size = static_cast<int>(args.getInt("size"));
    config.blastEnergy = 2.0;

    CloverField field(config);

    // Probe the first pass to size the temporal window, exactly as
    // the blast harness does: a cheap dry run caps the iteration
    // budget.
    CloverField probe(config);
    long total = 0;
    while (!probe.finished()) {
        Timestep(probe);
        HydroCycle(probe);
        ++total;
    }
    std::printf("full 2D blast run: %ld cycles to t = %.2f\n", total,
                probe.time());

    Region region("clover_shock", &field);
    // Pipelined ingest: end() snapshots the probe line and the
    // training digest overlaps the next hydro cycle on the pool.
    // The relaxed stop query composes with it: polling shouldStop()
    // every cycle no longer drains the in-flight digest, so the
    // overlap survives the poll (the decision is at most one cycle
    // stale — irrelevant here, the analysis never requests a stop).
    region.setAsyncAnalyses(true);
    region.setRelaxedStopQuery(true);
    AnalysisConfig cfg;
    cfg.name = "clover-breakpoint";
    cfg.provider = [](void *domain, long loc) {
        return static_cast<CloverField *>(domain)->fieldAt(loc);
    };
    cfg.space = IterParam(1, 20, 1);
    cfg.time = IterParam(total / 20, (total * 3) / 5, 1);
    cfg.feature = FeatureKind::BreakpointRadius;
    cfg.searchEnd = config.size;
    cfg.minLocation = 1;
    cfg.ar.axis = LagAxis::Space;
    cfg.ar.order = 3;
    cfg.ar.lag = std::max<long>(2, total / 150);
    cfg.ar.batchSize = 16;
    const std::size_t order = cfg.ar.order;
    const std::size_t id = region.addAnalysis(std::move(cfg));

    // --store <path> persists every iteration's extracted features
    // (wave front, prediction, fit coefficients, MSE) to a trace
    // store; --store-async flushes its blocks on the thread pool,
    // --store-durability picks when sealed blocks hit the disk.
    std::unique_ptr<FeatureStoreWriter> store;
    if (!storeCli.path.empty()) {
        store = attachRankStore(region, storeCli.path, order + 1,
                                storeOptionsFrom(storeCli), nullptr);
    }

    // The instrumented run; probe peaks double as ground truth.
    std::vector<double> peak(static_cast<std::size_t>(config.size),
                             0.0);
    obs::Heartbeat heartbeat(
        static_cast<std::uint64_t>(obsCli.metricsEvery));
    std::uint64_t cycle = 0;
    while (!field.finished()) {
        region.begin();
        {
            static obs::Counter steps("solver.steps_total");
            obs::SpanTimer step("solver.step", "solver");
            Timestep(field);
            HydroCycle(field);
            steps.add();
        }
        region.end();
        heartbeat.tick(++cycle);
        if (region.shouldStop()) // relaxed: no drain, no stall
            break;
        field.gatherProbes();
        for (long loc = 1; loc <= field.probeCount(); ++loc) {
            auto &p = peak[static_cast<std::size_t>(loc - 1)];
            p = std::max(p, field.fieldAt(loc));
        }
    }

    CurveFitAnalysis &a = region.analysis(id);
    std::printf("mini-batch rounds: %zu, validation MSE %.2e\n",
                a.trainingRounds(), a.lastValidationMse());

    if (store) {
        // analysis(id) above drained the pipeline, so every record
        // is appended; close the store before the final queries.
        region.setFeatureStore(nullptr);
        const std::size_t bytes = store->finish();
        std::printf("feature store: %s (%zu records, %zu bytes, "
                    "exposed %.3f ms)\n",
                    storeCli.path.c_str(), store->recordCount(),
                    bytes, 1e3 * store->exposedSeconds());
    }

    // Threshold sweep in the style of the paper's Table II. The 2D
    // cylindrical blast attenuates much more slowly (~r^-1/2) than
    // the 3D one, so low thresholds sit below anything the wave
    // reaches inside the grid and the extraction clamps to the
    // boundary — the same behaviour as the paper's -16.67% rows.
    // Once the threshold crosses into the observed/attenuated
    // range, extraction matches the ground truth exactly.
    std::printf("%-14s %-12s %-12s\n", "threshold(%)", "extracted",
                "ground-truth");
    for (const double pct : {2.0, 5.0, 10.0, 20.0, 40.0}) {
        const double thr =
            0.01 * pct * field.initialVelocity();
        a.setThreshold(thr);
        const long extracted = a.breakPoint().radius;
        long truth_radius = 0;
        for (long loc = 1; loc <= field.probeCount(); ++loc)
            if (peak[static_cast<std::size_t>(loc - 1)] >= thr)
                truth_radius = loc;
        std::printf("%-14.1f %-12ld %-12ld\n", pct, extracted,
                    truth_radius);
    }
    finishObsOptions(obsCli);
    return 0;
}
