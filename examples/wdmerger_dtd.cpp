/**
 * @file
 * White-dwarf merger delay-time extraction: runs the SPH binary
 * merger with four in-situ analyses (temperature, angular momentum,
 * mass, energy), extracts a delay time from each, and combines a
 * small sweep of initial separations into a delay-time distribution
 * (DTD) — the paper's Sec. V application.
 */

#include <cstdio>
#include <vector>

#include "base/cli.hh"
#include "postproc/ground_truth.hh"
#include "wdmerger/dtd.hh"
#include "wdmerger/runner.hh"

using namespace tdfe;
using namespace tdfe::wd;

int
main(int argc, char **argv)
{
    ArgParser args("White-dwarf merger delay times from four in-situ "
                   "analyses, plus a small separation sweep");
    args.addInt("resolution", 8, "SPH resolution");
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

    const int resolution = static_cast<int>(args.getInt("resolution"));

    // One instrumented run: delay time per diagnostic. With
    // --store <path> the four analyses' per-dump features land in a
    // trace store (--store-async flushes on the pool).
    WdMergerConfig config;
    config.resolution = resolution;
    WdRunOptions options;
    options.instrument = true;
    options.trainFraction = 0.25;
    options.store = store;
    // --ckpt <prefix> routes the instrumented run through the
    // resilient supervisor: crash-safe generations every
    // --ckpt-every dumps, auto-resume from the newest valid one.
    options.ckpt = ckpt;
    options.metricsEvery = obsCli.metricsEvery;

    std::printf("running wdmerger at resolution %d...\n",
                resolution);
    const WdRunResult r =
        ckpt.path.empty()
            ? runWdMerger(config, nullptr, options)
            : runWdMergerResilient(config, nullptr, options);
    if (!ckpt.path.empty()) {
        std::printf("checkpoints: %ld generations under %s\n",
                    r.checkpointsWritten, ckpt.path.c_str());
        if (r.resumed)
            std::printf("resumed from checkpoint at dump %ld\n",
                        r.resumedFromIteration);
    }
    if (!store.path.empty()) {
        std::printf("feature store: %s (%zu bytes)\n",
                    store.path.c_str(), r.storeBytes);
    }

    std::printf("merger at t = %.2f, detonation at t = %.2f\n",
                r.mergeTime, r.detonationTime);
    for (int v = 0; v < numDiagVars; ++v) {
        const double truth =
            truthDelayTime(r.history[v], config.dumpInterval, 5);
        std::printf("  %-12s delay time: extracted %.1f, "
                    "ground truth %.1f\n",
                    diagName(static_cast<DiagVar>(v)),
                    r.delayTime[v], truth);
    }

    // A small DTD: sweep initial separations; wider binaries take
    // longer to merge, shifting the delay time (the paper's
    // progenitor-scenario connection).
    std::printf("\ndelay-time distribution over initial "
                "separations:\n");
    DelayTimeDistribution dtd(0.0, 100.0, 10);
    for (const double sep : {2.0, 2.2, 2.4}) {
        WdMergerConfig c = config;
        c.separation = sep;
        WdRunOptions bare;
        const WdRunResult s = runWdMerger(c, nullptr, bare);
        std::printf("  a0 = %.1f -> detonation delay %.1f\n", sep,
                    s.detonationTime);
        dtd.add({sep, s.detonationTime, "detonation"});
    }
    const auto bins = dtd.histogram();
    std::printf("DTD histogram (bin centre: count):\n");
    for (std::size_t b = 0; b < bins.size(); ++b)
        if (bins[b] > 0)
            std::printf("  %5.1f: %zu\n", dtd.binCentre(b), bins[b]);
    std::printf("mean delay time: %.1f (range %.1f..%.1f)\n",
                dtd.mean(), dtd.min(), dtd.max());
    finishObsOptions(obsCli);
    return 0;
}
