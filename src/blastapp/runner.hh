/**
 * @file
 * Experiment harness for the material-deformation case: runs the
 * blast app bare (the paper's "origin"), instrumented ("non-stop"),
 * or instrumented with early termination ("stop"), and returns the
 * measurements the paper's Tables II-IV report.
 */

#ifndef TDFE_BLASTAPP_RUNNER_HH
#define TDFE_BLASTAPP_RUNNER_HH

#include <vector>

#include "blastapp/domain.hh"
#include "core/analysis.hh"
#include "core/threshold.hh"
#include "harness/run_harness.hh"

namespace tdfe
{

namespace blast
{

/** What the harness should do around the bare simulation (the
 *  shared loop/store/checkpoint knobs are in HarnessOptions). */
struct RunOptions : HarnessOptions
{
    /** Record the full probe trace (ground-truth extraction). */
    bool recordTrace = false;
    /** Analysis specification (provider is filled by the harness). */
    AnalysisConfig analysis;
};

/** Everything measured during one run. */
struct RunResult : HarnessResult
{
    /** Iterations executed. */
    long iterations = 0;
    /** Iteration at which the model converged (-1: never). */
    long convergedIteration = -1;
    /** Peak probe velocity at location 1 (threshold reference). */
    double initialVelocity = 0.0;
    /** Extracted feature (break-point radius), if instrumented. */
    double featureValue = -1.0;
    /** Detailed break-point, if instrumented. */
    BreakPoint breakPoint;
    /** Probe trace [iteration][location-1], if recorded. */
    std::vector<std::vector<double>> trace;
    /** Validation MSE at the end of training. */
    double validationMse = 0.0;
};

/**
 * Run one blast experiment.
 *
 * @param config Domain/blast parameters.
 * @param comm Optional communicator; when given, every rank must
 *        call runBlast collectively with identical arguments.
 * @param options Harness behaviour.
 */
RunResult runBlast(const BlastConfig &config, Communicator *comm,
                   const RunOptions &options);

/** runBlast under the crash-resume supervisor (superviseRuns;
 *  requires options.ckpt.path). */
RunResult runBlastResilient(const BlastConfig &config,
                            Communicator *comm,
                            const RunOptions &options);

} // namespace blast

} // namespace tdfe

#endif // TDFE_BLASTAPP_RUNNER_HH
