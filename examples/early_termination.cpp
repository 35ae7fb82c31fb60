/**
 * @file
 * Early termination: the same blast experiment run to completion
 * and with the analysis allowed to stop the simulation once its
 * model converges — the paper's headline cost saving.
 */

#include <cstdio>

#include "base/cli.hh"
#include "blastapp/runner.hh"

using namespace tdfe;
using namespace tdfe::blast;

int
main(int argc, char **argv)
{
    ArgParser args("Early termination: a full blast run against one "
                   "the converged analysis stops");
    args.addInt("size", 24, "blast domain size");
    addThreadsOption(args);
    addStoreOptions(args);
    addCkptOptions(args);
    addObsOptions(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    const StoreCliOptions store = storeOptions(args);
    const CkptCliOptions ckpt = ckptOptions(args);
    const ObsCliOptions obsCli = obsOptions(args);
    applyObsOptions(obsCli);

    BlastConfig config;
    config.size = static_cast<int>(args.getInt("size"));

    // Full run, recording the trace for reference.
    RunOptions full;
    full.recordTrace = true;
    const RunResult reference = runBlast(config, nullptr, full);
    std::printf("full run: %ld iterations, %.3f s\n",
                reference.iterations, reference.seconds);

    // Early-terminated run: stop once the model is trained. The
    // ingest runs on the async pipeline with the relaxed stop
    // query: the per-iteration shouldStop() poll reports the last
    // published decision instead of draining the in-flight digest,
    // so the analysis keeps overlapping the solver the whole run
    // and the stop fires at most one iteration after the strict
    // (drain-on-query) protocol would have fired it. Drop
    // relaxedStop to get the bitwise-identical strict behaviour.
    RunOptions stop;
    stop.instrument = true;
    stop.honorStop = true;
    stop.asyncAnalyses = true;
    stop.relaxedStop = true;
    stop.analysis.space = IterParam(1, 10, 1);
    stop.analysis.time =
        IterParam(reference.iterations / 20,
                  (reference.iterations * 3) / 5, 1);
    stop.analysis.feature = FeatureKind::BreakpointRadius;
    stop.analysis.threshold = 0.05 * reference.initialVelocity;
    stop.analysis.searchEnd = config.size;
    stop.analysis.minLocation = 1;
    stop.analysis.stopWhenConverged = true;
    stop.analysis.ar.axis = LagAxis::Space;
    stop.analysis.ar.order = 3;
    stop.analysis.ar.lag =
        std::max<long>(1, reference.iterations / 20);
    stop.analysis.ar.convergeTol = 0.1;
    // --store <path> persists the per-iteration features of the
    // instrumented run (--store-durability picks when sealed blocks
    // hit the disk).
    stop.store = store;
    // --ckpt <prefix> writes crash-safe checkpoint generations every
    // --ckpt-every iterations; --resume-auto restores the newest
    // valid one at startup (kill the run mid-flight and rerun with
    // the same flags to see it pick up where it left off).
    stop.ckpt = ckpt;
    // --metrics-every prints a counter heartbeat from the run loop;
    // --metrics-out / --trace-out dump the full telemetry at exit.
    stop.metricsEvery = obsCli.metricsEvery;
    const RunResult early = runBlast(config, nullptr, stop);
    if (!ckpt.path.empty()) {
        std::printf("checkpoints: %ld generations under %s\n",
                    early.checkpointsWritten, ckpt.path.c_str());
        if (early.resumed)
            std::printf("resumed from checkpoint at iteration %ld\n",
                        early.resumedFromIteration);
    }
    if (!store.path.empty()) {
        std::printf("feature store: %s (%zu bytes)\n",
                    store.path.c_str(), early.storeBytes);
    }

    std::printf("early-terminated run: %ld iterations, %.3f s "
                "(stopped %s)\n",
                early.iterations, early.seconds,
                early.stoppedEarly ? "early" : "at the end");
    std::printf("model converged at iteration %ld\n",
                early.convergedIteration);
    std::printf("extracted break-point radius: %.0f\n",
                early.featureValue);
    if (early.stoppedEarly) {
        std::printf("acceleration: %.1f%% of the runtime saved\n",
                    100.0 * (reference.seconds - early.seconds) /
                        reference.seconds);
    }
    finishObsOptions(obsCli);
    return 0;
}
