/**
 * @file
 * Material-deformation analysis: the paper's Fig. 2 integration,
 * nearly verbatim, against this repository's LULESH-shaped blast
 * app. Uses the C API (`td_*` functions) exactly as the paper's
 * code listing does, including the provider reading locDom->xd(loc).
 */

#include <cstdio>

#include "base/cli.hh"
#include "blastapp/domain.hh"
#include "core/td_api.h"

using namespace tdfe::blast;

// Paper Fig. 2, lines 1-5.
double
td_var_provider(void *loc_dom, int loc)
{
    Domain *dom = static_cast<Domain *>(loc_dom);
    double v = dom->xd(loc);
    return v;
}

int
main(int argc, char **argv)
{
    tdfe::ArgParser args("Material deformation through the C API "
                         "(the paper's Fig. 2 integration)");
    args.addInt("size", 24, "blast domain size");
    tdfe::addThreadsOption(args);
    tdfe::addObsOptions(args);
    args.parse(argc, argv);
    tdfe::applyThreadsOption(args);
    // Telemetry through the C API: --metrics-out/--trace-out parse
    // here, but enable/export go through td_metrics_* / td_trace_*
    // exactly as a C simulation would call them.
    const tdfe::ObsCliOptions obsCli = tdfe::obsOptions(args);
    if (obsCli.enabled())
        td_metrics_enable(1);
    if (!obsCli.traceOut.empty())
        td_trace_enable(1);

    BlastConfig config;
    config.size = static_cast<int>(args.getInt("size"));

    Domain *locDom = new Domain(config);

    // init td_region (paper Fig. 2 lines 10-20).
    td_region_t *lulesh_region = td_region_init("", locDom);
    td_iter_param_t *lulesh_loc = td_iter_param_init(1, 10, 1);
    td_iter_param_t *lulesh_iter = td_iter_param_init(10, 80, 1);
    int method = Curve_Fitting;
    double threshold = 0.01; // absolute velocity threshold
    int if_simulation_will_terminate = 0;

    td_ar_options_t opts;
    td_ar_options_default(&opts);
    opts.order = 3;
    opts.lag = 8;
    opts.search_end = config.size;
    opts.min_location = 1;
    int analysis = td_region_add_analysis_ex(
        lulesh_region, td_var_provider, lulesh_loc, method,
        lulesh_iter, threshold, if_simulation_will_terminate, &opts);

    // The main loop (paper Fig. 2 lines 22-29).
    while (!locDom->finished()) {
        td_region_begin(lulesh_region);

        TimeIncrement(*locDom);   // time-step update
        LagrangeLeapFrog(*locDom); // main computation

        locDom->gatherProbes();
        td_region_end(lulesh_region);
    }

    std::printf("simulation finished after %ld iterations "
                "(t = %.3f)\n",
                locDom->cycle(), locDom->time());
    std::printf("initial blast velocity: %.4f\n",
                locDom->initialVelocity());
    std::printf("model converged: %s (iteration %ld)\n",
                td_region_analysis_converged(lulesh_region, analysis)
                    ? "yes"
                    : "no",
                td_region_converged_iteration(lulesh_region,
                                              analysis));
    std::printf("material break-point radius at threshold %.3f: "
                "%.0f of %d\n",
                threshold,
                td_region_feature(lulesh_region, analysis),
                config.size);
    std::printf("in-situ overhead: %.4f s\n",
                td_region_overhead_seconds(lulesh_region));

    td_iter_param_destroy(lulesh_loc);
    td_iter_param_destroy(lulesh_iter);
    td_region_destroy(lulesh_region);
    delete locDom;
    if (!obsCli.metricsOut.empty() &&
        td_metrics_write(obsCli.metricsOut.c_str()) != 0)
        std::printf("metrics write failed: %s\n",
                    obsCli.metricsOut.c_str());
    if (!obsCli.traceOut.empty() &&
        td_trace_export(obsCli.traceOut.c_str()) != 0)
        std::printf("trace export failed: %s\n",
                    obsCli.traceOut.c_str());
    return 0;
}
