/**
 * @file
 * One run harness for the paper applications: the instrumented loop
 * (solver span, Region begin/end/shouldStop, heartbeat), crash-safe
 * checkpoints with auto-resume, the per-rank feature store, and the
 * crash-resume supervisor — written once against a small app
 * interface, so blast::runBlast and wd::runWdMerger only set up their
 * region, adapt their simulation, and extract their results.
 *
 * **App contract** (HarnessApp). finished() ends the loop; step()
 * advances one loop iteration and is timed as the `solver.step` span
 * (and counted in `solver.steps_total`); afterStep() runs outside
 * that span, before Region::end (blast gathers its probe line there);
 * cycle() is the iteration number after the step — the heartbeat
 * tick, the checkpoint cadence, and the generation number all use it;
 * save()/load() write and restore the simulation state bit-exactly.
 *
 * **Resume payload** (inside the ckpt envelope, which adds the CRCs):
 * tag "TDRESUME", u64 version 2, bool "has region", the app's save()
 * bytes, then — when instrumented — Region::saveCheckpoint's bytes,
 * then bool "has store" and the store's commit
 * (FeatureStoreWriter::saveCommit), written once the region's save
 * has drained the epoch. One BinaryReader reads the whole payload in
 * place. A CRC-valid payload that does not fit the run (other
 * version, a region or store saved by a differently configured run,
 * a region with a different analysis count, or a store file that no
 * longer holds the committed blocks — power loss under durability
 * "none") is skipped with a warning and the run starts from scratch:
 * the app and region are put back in the state they had before the
 * attempt, even when the app's part had already loaded.
 *
 * **Store resume in place.** A resumed run reopens its store file
 * (or "<path>.rk<rank>" part), cuts it back to the commit and
 * appends: the committed bytes are never rewritten, and the store
 * ends as the uninterrupted run's (wall_time aside). A halted or
 * interrupted attempt only seals its part; the attempt that finishes
 * the run merges the parts.
 *
 * **Supervisor** (superviseRuns). Attempts run until one is not an
 * injected crash (HarnessOptions::haltAfterIterations); each retry
 * arms resumeAuto and drops the halt.
 */

#ifndef TDFE_HARNESS_RUN_HARNESS_HH
#define TDFE_HARNESS_RUN_HARNESS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "base/cli.hh"
#include "base/logging.hh"
#include "ckpt/checkpoint.hh"
#include "obs/report.hh"
#include "store/writer.hh"

namespace tdfe
{

class BinaryReader;
class BinaryWriter;
class Communicator;
class Region;

/** Harness behaviour shared by every harnessed app. */
struct HarnessOptions
{
    /** Attach a td region (the app registers its analyses). */
    bool instrument = false;
    /** Honour the region's early-termination request. */
    bool honorStop = false;
    /** Pipeline the analysis ingest: snapshot at end(), digest on
     *  the pool (results stay bitwise identical; see
     *  Region::setAsyncAnalyses). The digest overlaps the next step
     *  in non-stop runs; with honorStop the harness polls
     *  shouldStop() every iteration, which drains the epoch there —
     *  the stop fires on the identical iteration, but nothing is
     *  hidden under the solver. */
    bool asyncAnalyses = false;
    /** Relaxed stop query (Region::setRelaxedStopQuery): the
     *  per-iteration poll returns the last published decision
     *  without draining, so the digest keeps overlapping the solver
     *  even with honorStop; the stop may fire one iteration late. */
    bool relaxedStop = false;
    /** Iterations between collective stop syncs. */
    long syncInterval = 10;
    /** Feature store (empty path: disabled; requires instrument).
     *  Under a multi-rank communicator every rank writes
     *  "<path>.rk<rank>" and rank 0 merges them into the path in
     *  rank order once the run finishes (a halted or interrupted
     *  run keeps the parts to resume them). Any of these files can
     *  be tailed while it is written; its durability policy sets
     *  when each sealed block becomes visible. */
    StoreCliOptions store;
    /** Crash-safe checkpoints (empty path: disabled). Generations
     *  land at "<path>.NNNNNN.tdck" (per rank "<path>.rk<rank>")
     *  every `every` iterations (0: only on SIGINT/SIGTERM); keep
     *  >= 2 so a torn newest generation has a previous-good
     *  fallback; resumeAuto restores the newest valid one first. */
    CkptCliOptions ckpt;
    /** Comm watchdog deadline for the region's stop protocol
     *  (seconds; 0 disables). See Region::setCommDeadline. */
    double commDeadlineSeconds = 0.0;
    /** Iterations between metrics heartbeat lines (0 disables;
     *  counters stay zero unless telemetry is enabled). */
    long metricsEvery = 0;
    /** Test seam: crash the attempt (leave the loop without a
     *  final checkpoint, as a kill would) after this many loop
     *  iterations of this attempt (0: disabled). */
    long haltAfterIterations = 0;
    /** Test seam: per-generation fault injection on checkpoint
     *  writes (see CheckpointSet::setWriteHook). */
    std::function<void(std::uint64_t, ckpt::WriteOptions &)>
        ckptWriteHook;
};

/** Measurements every harnessed run reports. */
struct HarnessResult
{
    /** Wall-clock seconds of the whole loop. */
    double seconds = 0.0;
    /** Seconds the region spent inside the library. */
    double overheadSeconds = 0.0;
    /** True when the run terminated early on convergence. */
    bool stoppedEarly = false;
    /** Bytes of this rank's feature store (0: none written). */
    std::size_t storeBytes = 0;
    /** True when the feature sink degraded mid-run and was
     *  detached (the physics are still exact). */
    bool storeDegraded = false;
    /** True when a SIGINT/SIGTERM stopped the loop (after an
     *  orderly final checkpoint + store seal). */
    bool interrupted = false;
    /** True when the test seam crashed this attempt (no final
     *  checkpoint — simulating a kill). */
    bool halted = false;
    /** True when this run restored state from a checkpoint. */
    bool resumed = false;
    /** Iteration the restored checkpoint was taken at (-1: none). */
    long resumedFromIteration = -1;
    /** Checkpoint generations written during the run. */
    long checkpointsWritten = 0;
    /** True when a checkpoint write failed (sticky; the run
     *  continued — checkpoint I/O never fatals). */
    bool ckptDegraded = false;
    /** First checkpoint failure's message. */
    std::string ckptError;
    /** True when the comm watchdog fired and the region fell back
     *  to its last published decision (results unchanged —
     *  analyses are replicated). */
    bool commDegraded = false;
    /** Restart attempts the supervisor consumed (0: the first
     *  attempt completed). */
    int restarts = 0;
    /** End-of-run telemetry (empty unless metrics were enabled). */
    obs::RunReport report;
};

/** The simulation side of the loop (see the file comment). */
class HarnessApp
{
  public:
    virtual bool finished() const = 0;
    virtual void step() = 0;
    virtual void afterStep() {}
    virtual long cycle() const = 0;
    virtual void save(BinaryWriter &w) const = 0;
    virtual void load(BinaryReader &r) = 0;

  protected:
    /** Adapters live on the caller's stack, never deleted through
     *  this base. */
    ~HarnessApp() = default;
};

/** Writer knobs from a --store* request: the per-rank parts, their
 *  resume and the rank-0 merge all use this one builder (durability
 *  parsed here, fatal on typos). */
StoreOptions storeOptionsFrom(const StoreCliOptions &store);

/**
 * A region named @p name over @p domain with the protocol knobs of
 * @p options applied, or null when options.instrument is false. The
 * caller registers its analyses before runHarness.
 */
std::unique_ptr<Region> makeRegion(const std::string &name,
                                   void *domain, Communicator *comm,
                                   const HarnessOptions &options);

/**
 * Run @p app to completion (or stop/halt/interrupt) under
 * @p options: resume, attach the store, loop, then drain the region
 * and finish the store. Fills every HarnessResult field except
 * restarts. @p region may be null (bare run); @p comm may be null
 * (single rank) and is used collectively otherwise.
 */
void runHarness(HarnessApp &app, Region *region, Communicator *comm,
                const HarnessOptions &options, HarnessResult &result);

/**
 * The retry rule behind superviseRuns: @return true when @p result
 * (its restarts field set) was an injected crash to retry; @p attempt
 * then resumes from its newest valid checkpoint.
 */
bool retryAttempt(HarnessOptions &attempt, const HarnessResult &result);

/**
 * Auto-resume supervisor: call @p run(attempt) until an attempt is
 * not an injected crash (requires options.ckpt.path). @p Options
 * derives from HarnessOptions and @p run returns a
 * HarnessResult-derived result. Under a communicator every rank
 * supervises its own attempts; they crash and resume together.
 */
template <class Options, class Run>
auto
superviseRuns(const Options &options, Run run)
{
    TDFE_ASSERT(!options.ckpt.path.empty(),
                "resilient runs need a checkpoint path");
    Options attempt = options;
    for (int restarts = 0;; ++restarts) {
        auto result = run(attempt);
        result.restarts = restarts;
        if (!retryAttempt(attempt, result))
            return result;
    }
}

} // namespace tdfe

#endif // TDFE_HARNESS_RUN_HARNESS_HH
