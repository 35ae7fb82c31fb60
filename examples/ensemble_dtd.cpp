/**
 * @file
 * Population synthesis with in-situ extraction: the paper argues
 * its delay times are the raw material for reconstructing
 * delay-time distributions (DTDs) from merger-based progenitor
 * systems (Sec. V, citing Totani et al. and Maoz et al.). This
 * example runs an ensemble of binary white-dwarf mergers whose
 * initial separations sample a flat-in-log population, extracts a
 * detonation delay time from each run in-situ, and assembles the
 * DTD.
 *
 * Physics check built in: for gravitational-wave-like orbital
 * decay, the merger time scales as a strong power of the initial
 * separation (t ~ a^4 for pure GW; our drag law gives its own
 * exponent), so a flat-in-log-a population yields a falling
 * power-law DTD, qualitatively the observed t^-1 law. The example
 * fits the empirical exponent of t(a) from the ensemble and prints
 * the implied DTD slope next to the histogram.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "base/cli.hh"
#include "base/logging.hh"
#include "wdmerger/dtd.hh"
#include "wdmerger/runner.hh"

using namespace tdfe;
using namespace tdfe::wd;

int
main(int argc, char **argv)
{
    ArgParser args("Delay-time distribution from an ensemble of "
                   "in-situ instrumented white-dwarf mergers");
    args.addInt("count", 8, "mergers in the ensemble");
    args.addInt("resolution", 6, "SPH resolution of each merger");
    addThreadsOption(args);
    addObsOptions(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    const ObsCliOptions obsCli = obsOptions(args);
    applyObsOptions(obsCli);

    const int count = static_cast<int>(args.getInt("count"));
    const int resolution = static_cast<int>(args.getInt("resolution"));
    setLogQuiet(true);

    // Flat-in-log separations between a_min and a_max.
    const double a_min = 1.8;
    const double a_max = 3.0;

    std::printf("ensemble of %d mergers, resolution %d, "
                "a0 in [%.1f, %.1f] (flat in log a)\n\n",
                count, resolution, a_min, a_max);

    DelayTimeDistribution dtd(0.0, 120.0, 12);
    std::vector<double> log_a, log_t;

    std::printf("%-8s %-12s %-12s %-10s\n", "a0", "delay (mass)",
                "detonation", "stopped");
    for (int k = 0; k < count; ++k) {
        const double frac =
            count > 1 ? static_cast<double>(k) /
                            static_cast<double>(count - 1)
                      : 0.5;
        const double a0 =
            a_min * std::pow(a_max / a_min, frac);

        WdMergerConfig cfg;
        cfg.resolution = resolution;
        cfg.separation = a0;
        // Wide binaries inspiral as a strong power of a0 (t ~ a^4
        // for our drag law); size the run to each progenitor so the
        // detonation always lands inside the window. NOTE: early
        // termination must NOT be used here — the model converges
        // on the quiet inspiral long before the feature exists, so
        // an early-stopped run would hand back a curve with no
        // detonation in it. The protocol is: capture the inflection
        // first, then stop.
        cfg.tEnd = 40.0 * std::pow(a0 / 1.8, 4.0) + 40.0;

        WdRunOptions opt;
        opt.instrument = true;
        opt.trainFraction = 0.6;
        const WdRunResult r = runWdMerger(cfg, nullptr, opt);

        // The bound-mass diagnostic was the paper's most reliable
        // delay source (Table VI).
        const double delay =
            r.delayTime[static_cast<int>(DiagVar::Mass)];
        std::printf("%-8.2f %-12.1f %-12.1f %-10s\n", a0, delay,
                    r.detonationTime,
                    r.stoppedEarly ? "early" : "full");
        if (r.detonationTime > 0.0 && delay > 0.0) {
            dtd.add({a0, delay, "Mass"});
            log_a.push_back(std::log(a0));
            log_t.push_back(std::log(delay));
        }
    }

    // Empirical t(a) power law: least-squares slope in log space.
    double slope = 0.0;
    if (log_a.size() >= 3) {
        double sa = 0.0, st = 0.0, saa = 0.0, sat = 0.0;
        const double n = static_cast<double>(log_a.size());
        for (std::size_t i = 0; i < log_a.size(); ++i) {
            sa += log_a[i];
            st += log_t[i];
            saa += log_a[i] * log_a[i];
            sat += log_a[i] * log_t[i];
        }
        slope = (n * sat - sa * st) / (n * saa - sa * sa);
    }

    std::printf("\nDTD histogram (bin centre: count):\n");
    const auto bins = dtd.histogram();
    for (std::size_t b = 0; b < bins.size(); ++b) {
        if (bins[b] > 0) {
            std::printf("  %6.1f: %zu %s\n", dtd.binCentre(b),
                        bins[b],
                        std::string(bins[b], '#').c_str());
        }
    }
    std::printf("\nmean delay %.1f, range %.1f..%.1f over %zu "
                "mergers\n",
                dtd.mean(), dtd.min(), dtd.max(), dtd.count());
    std::printf("empirical merger-time scaling: t ~ a^%.1f\n", slope);
    if (slope > 0.0) {
        // Flat-in-log-a population: dN/dt = (dN/dln a)(dln a/dt)
        // ~ 1/t, independent of the exponent — print the chain.
        std::printf("flat-in-log-a population + t ~ a^%.1f "
                    "=> DTD dN/dt ~ t^-1 (the observed SNe Ia "
                    "law)\n",
                    slope);
    }
    finishObsOptions(obsCli);
    return 0;
}
