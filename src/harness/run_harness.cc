#include "harness/run_harness.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "base/logging.hh"
#include "base/serial.hh"
#include "base/timer.hh"
#include "core/region.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "par/store_merge.hh"
#include "store/file.hh"

namespace tdfe
{

namespace
{

/** Restart attempts superviseRuns may consume. */
constexpr int maxRestarts = 8;

/** The TDRESUME payload (layout in the header's file comment). */
std::string
buildResumePayload(const HarnessApp &app, const Region *region)
{
    std::ostringstream os(std::ios::binary);
    BinaryWriter w(os);
    w.writeTag("TDRESUME");
    w.writeU64(1); // payload format version
    w.writeBool(region != nullptr);
    app.save(w);
    if (region)
        region->saveCheckpoint(os);
    return os.str();
}

bool
restoreResumePayload(const std::string &payload, HarnessApp &app,
                     Region *region, std::string *error)
{
    BinaryReader r(payload);
    r.expectTag("TDRESUME");
    const std::uint64_t version = r.readU64();
    if (r.ok() && version != 1) {
        r.fail("unsupported resume payload version " +
               std::to_string(version));
    }
    const bool has_region = r.readBool();
    if (!r.ok()) {
        *error = r.error();
        return false;
    }
    if (has_region != (region != nullptr)) {
        *error = "checkpoint instrumentation mismatch (saved "
                 "with/without a region)";
        return false;
    }
    app.load(r);
    if (!r.ok()) {
        *error = r.error();
        return false;
    }
    if (region && !region->loadCheckpoint(r)) {
        *error = region->checkpointError();
        return false;
    }
    return true;
}

/** Latch the set's first failure into the result (sticky). */
void
latchCkptDegrade(const ckpt::CheckpointSet &set, HarnessResult &result)
{
    if (set.degraded() && !result.ckptDegraded) {
        result.ckptDegraded = true;
        result.ckptError = set.status().message;
    }
}

/** Write one generation; CheckpointSet::save warns (once) on the
 *  first failure, here we only keep the result bookkeeping. */
void
writeCheckpoint(ckpt::CheckpointSet &set, const HarnessApp &app,
                const Region *region, HarnessResult &result)
{
    if (set.save(static_cast<std::uint64_t>(app.cycle()),
                 buildResumePayload(app, region))) {
        ++result.checkpointsWritten;
    }
    latchCkptDegrade(set, result);
}

/** Restore the newest valid generation, if any. A CRC-valid but
 *  unusable one (e.g. written by a differently-instrumented run)
 *  starts the run fresh rather than killing it — the checkpoint
 *  stays on disk for triage. */
void
resume(ckpt::CheckpointSet &set, HarnessApp &app, Region *region,
       HarnessResult &result)
{
    std::string payload, from_path;
    std::uint64_t at_iter = 0;
    if (!set.openNewestValid(&payload, &at_iter, &from_path))
        return;
    // A payload can fail after the app's part loaded: keep the
    // fresh state to put back, so "from scratch" holds for both.
    const std::string fresh = buildResumePayload(app, region);
    std::string error;
    if (restoreResumePayload(payload, app, region, &error)) {
        result.resumed = true;
        result.resumedFromIteration = static_cast<long>(at_iter);
        TDFE_INFORM("run harness: resumed from '", from_path,
                    "' (iteration ", at_iter, ")");
        return;
    }
    TDFE_WARN("run harness: checkpoint '", from_path, "' not usable (",
              error, "); starting from scratch");
    const bool reset = restoreResumePayload(fresh, app, region, &error);
    TDFE_ASSERT(reset, "reloading the fresh state failed: ", error);
}

} // namespace

StoreOptions
storeOptionsFrom(const StoreCliOptions &store)
{
    StoreOptions options;
    options.durability = store::parseDurabilityPolicy(store.durability);
    return options;
}

std::unique_ptr<Region>
makeRegion(const std::string &name, void *domain, Communicator *comm,
           const HarnessOptions &options)
{
    if (!options.instrument)
        return nullptr;
    auto region = std::make_unique<Region>(name, domain, comm);
    region->setSyncInterval(options.syncInterval);
    region->setAsyncAnalyses(options.asyncAnalyses);
    region->setRelaxedStopQuery(options.relaxedStop);
    region->setCommDeadline(options.commDeadlineSeconds);
    return region;
}

void
runHarness(HarnessApp &app, Region *region, Communicator *comm,
           const HarnessOptions &options, HarnessResult &result)
{
    // Checkpointing, per rank: the rank's local state is its own
    // restart data, exactly like its store part.
    std::unique_ptr<ckpt::CheckpointSet> ckpt_set;
    if (!options.ckpt.path.empty()) {
        ckpt_set = std::make_unique<ckpt::CheckpointSet>(
            rankStorePath(options.ckpt.path, comm ? comm->rank() : 0,
                          comm ? comm->size() : 1),
            static_cast<int>(options.ckpt.keep),
            store::parseDurabilityPolicy(options.ckpt.durability));
        if (options.ckptWriteHook)
            ckpt_set->setWriteHook(options.ckptWriteHook);
        if (options.ckpt.resumeAuto)
            resume(*ckpt_set, app, region, result);
    }

    std::unique_ptr<FeatureStoreWriter> store;
    if (region && !options.store.path.empty()) {
        // Columns for the widest model, as Region::setFeatureStore
        // requires.
        std::size_t coeffs = 0;
        for (std::size_t i = 0; i < region->analysisCount(); ++i) {
            coeffs = std::max(coeffs,
                              region->analysis(i).config().ar.order + 1);
        }
        store = attachRankStore(*region, options.store.path, coeffs,
                                storeOptionsFrom(options.store), comm);
    }

    long attempt_iters = 0;
    obs::Heartbeat heartbeat(
        static_cast<std::uint64_t>(std::max(options.metricsEvery, 0L)));
    Timer timer;
    while (!app.finished()) {
        if (region)
            region->begin();
        {
            static obs::Counter steps("solver.steps_total");
            obs::SpanTimer step("solver.step", "solver");
            app.step();
            steps.add();
        }
        app.afterStep();
        if (region) {
            region->end();
            if (options.honorStop && region->shouldStop()) {
                result.stoppedEarly = true;
                break;
            }
        }

        ++attempt_iters;
        heartbeat.tick(static_cast<std::uint64_t>(app.cycle()));
        if (ckpt_set && options.ckpt.every > 0 &&
            app.cycle() % options.ckpt.every == 0) {
            writeCheckpoint(*ckpt_set, app, region, result);
        }
        if (options.haltAfterIterations > 0 &&
            attempt_iters >= options.haltAfterIterations) {
            // Injected crash: leave without a final checkpoint,
            // exactly what a kill -9 at this iteration leaves behind.
            result.halted = true;
            break;
        }
        if (ckpt::interruptRequested()) {
            // Orderly shutdown: one final checkpoint so the resumed
            // run restarts from this exact iteration, then fall
            // through to the store seal below.
            if (ckpt_set)
                writeCheckpoint(*ckpt_set, app, region, result);
            result.interrupted = true;
            break;
        }
    }
    result.seconds = timer.elapsed();

    if (region) {
        // overheadSeconds() drains any in-flight epoch, so no store
        // appends are pending past this point.
        result.overheadSeconds = region->overheadSeconds();
        result.commDegraded = region->commDegraded();
    }
    if (ckpt_set)
        latchCkptDegrade(*ckpt_set, result);
    if (store) {
        result.storeDegraded =
            region->featureStoreDegraded() || !store->ok();
        RankMergeOptions merge;
        merge.keepParts = options.store.keepParts;
        merge.storeOptions = storeOptionsFrom(options.store);
        result.storeBytes = finishRankStore(
            *region, std::move(store), options.store.path, comm, merge);
    }
    result.report = obs::captureRunReport();
}

Supervisor::Supervisor(const HarnessOptions &options,
                       Communicator *comm)
    : options(options)
{
    TDFE_ASSERT(!options.ckpt.path.empty(),
                "resilient runs need a checkpoint path");
    TDFE_ASSERT(options.store.path.empty() || !comm || comm->size() <= 1,
                "segmented store stitching supports single-rank runs "
                "only");
}

void
Supervisor::prepare(HarnessOptions &attempt)
{
    if (options.store.path.empty())
        return;
    attempt.store.path =
        options.store.path + ".seg" + std::to_string(segments.size());
    segments.push_back(attempt.store.path);
}

bool
Supervisor::retry(HarnessOptions &attempt, HarnessResult &result)
{
    result.restarts = restarts;
    if (result.halted && !ckpt::interruptRequested() &&
        restarts < maxRestarts) {
        ++restarts;
        // The injected crash fires once; every retry resumes from
        // the newest valid generation it left behind.
        attempt.haltAfterIterations = 0;
        attempt.ckpt.resumeAuto = true;
        TDFE_INFORM("run supervisor: attempt crashed; restarting "
                    "(attempt ", restarts + 1, ")");
        return true;
    }
    if (!segments.empty()) {
        // stitchSegmentStores counts records and fatals when it
        // cannot write the store, so the file is there to measure.
        stitchSegmentStores(segments, options.store.path,
                            storeOptionsFrom(options.store));
        result.storeBytes = static_cast<std::size_t>(
            std::filesystem::file_size(options.store.path));
        if (!options.store.keepParts) {
            for (const std::string &seg : segments)
                std::remove(seg.c_str());
        }
    }
    return false;
}

} // namespace tdfe
