#include "harness/run_harness.hh"

#include <algorithm>
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

/** This rank's store file, columns and knobs (empty path: none). */
struct StoreTarget
{
    std::string path;
    StoreSchema schema;
    StoreOptions options;
};

/** The TDRESUME payload (layout in the header's file comment). */
std::string
buildResumePayload(const HarnessApp &app, const Region *region,
                   FeatureStoreWriter *store)
{
    std::ostringstream os(std::ios::binary);
    BinaryWriter w(os);
    w.writeTag("TDRESUME");
    w.writeU64(2); // payload format version
    w.writeBool(region != nullptr);
    app.save(w);
    if (region)
        region->saveCheckpoint(os);
    // The region's save drained the epoch, so every record of the
    // saved iterations has reached the store.
    w.writeBool(store != nullptr);
    if (store)
        store->saveCommit(w);
    return os.str();
}

/** Restore @p payload into @p app and @p region and, when
 *  @p target names a store, reopen it at the payload's commit into
 *  @p store. */
bool
restoreResumePayload(const std::string &payload, HarnessApp &app,
                     Region *region, const StoreTarget &target,
                     std::unique_ptr<FeatureStoreWriter> &store,
                     std::string *error)
{
    BinaryReader r(payload);
    auto failed = [&](const std::string &why) {
        *error = why;
        return false;
    };
    r.expectTag("TDRESUME");
    const std::uint64_t version = r.readU64();
    if (r.ok() && version != 2) {
        r.fail("unsupported resume payload version " +
               std::to_string(version));
    }
    const bool has_region = r.readBool();
    if (!r.ok())
        return failed(r.error());
    if (has_region != (region != nullptr))
        return failed("checkpoint instrumentation mismatch (saved "
                      "with/without a region)");
    app.load(r);
    if (!r.ok())
        return failed(r.error());
    if (region && !region->loadCheckpoint(r))
        return failed(region->checkpointError());
    const bool has_store = r.readBool();
    if (!r.ok())
        return failed(r.error());
    if (has_store != !target.path.empty())
        return failed("checkpoint feature store mismatch (saved "
                      "with/without a store)");
    if (has_store)
        store = FeatureStoreWriter::resume(target.path, target.schema,
                                           target.options, r, error);
    return !has_store || store;
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
                const Region *region, FeatureStoreWriter *store,
                HarnessResult &result)
{
    if (set.save(static_cast<std::uint64_t>(app.cycle()),
                 buildResumePayload(app, region, store))) {
        ++result.checkpointsWritten;
    }
    latchCkptDegrade(set, result);
}

/** Restore the newest valid generation, if any, and reopen the
 *  store at its commit. A CRC-valid but unusable one (see the file
 *  comment) starts the run fresh rather than killing it — the
 *  checkpoint stays on disk for triage. */
void
resume(ckpt::CheckpointSet &set, HarnessApp &app, Region *region,
       const StoreTarget &target,
       std::unique_ptr<FeatureStoreWriter> &store,
       HarnessResult &result)
{
    std::string payload, from_path;
    std::uint64_t at_iter = 0;
    if (!set.openNewestValid(&payload, &at_iter, &from_path))
        return;
    // A payload can fail after the app's part loaded: keep the
    // fresh state to put back, so "from scratch" holds for both.
    const std::string fresh = buildResumePayload(app, region, nullptr);
    std::string error;
    if (restoreResumePayload(payload, app, region, target, store,
                             &error)) {
        result.resumed = true;
        result.resumedFromIteration = static_cast<long>(at_iter);
        TDFE_INFORM("run harness: resumed from '", from_path,
                    "' (iteration ", at_iter, ")");
        return;
    }
    TDFE_WARN("run harness: checkpoint '", from_path, "' not usable (",
              error, "); starting from scratch");
    const bool reset = restoreResumePayload(fresh, app, region,
                                            StoreTarget(), store, &error);
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
    const int rank = comm ? comm->rank() : 0;
    const int ranks = comm ? comm->size() : 1;
    StoreTarget target;
    if (region && !options.store.path.empty()) {
        target.path = rankStorePath(options.store.path, rank, ranks);
        // Columns for the widest model, as Region::setFeatureStore
        // requires.
        for (std::size_t i = 0; i < region->analysisCount(); ++i) {
            target.schema.coeffCount =
                std::max(target.schema.coeffCount,
                         region->analysis(i).config().ar.order + 1);
        }
        target.options = storeOptionsFrom(options.store);
    }

    // Checkpointing, per rank: the rank's local state is its own
    // restart data, exactly like its store part.
    std::unique_ptr<ckpt::CheckpointSet> ckpt_set;
    std::unique_ptr<FeatureStoreWriter> store;
    if (!options.ckpt.path.empty()) {
        ckpt_set = std::make_unique<ckpt::CheckpointSet>(
            rankStorePath(options.ckpt.path, rank, ranks),
            static_cast<int>(options.ckpt.keep),
            store::parseDurabilityPolicy(options.ckpt.durability));
        if (options.ckptWriteHook)
            ckpt_set->setWriteHook(options.ckptWriteHook);
        if (options.ckpt.resumeAuto)
            resume(*ckpt_set, app, region, target, store, result);
    }
    if (!target.path.empty()) {
        if (!store)
            store = std::make_unique<FeatureStoreWriter>(
                target.path, target.schema, target.options);
        region->setFeatureStore(store.get());
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
            writeCheckpoint(*ckpt_set, app, region, store.get(),
                            result);
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
                writeCheckpoint(*ckpt_set, app, region, store.get(),
                                result);
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
        merge.storeOptions = target.options;
        // A halted or interrupted attempt resumes later, so it only
        // seals its part: the attempt that finishes the run merges.
        const bool resumes = result.halted || result.interrupted;
        result.storeBytes =
            finishRankStore(*region, std::move(store), options.store.path,
                            resumes ? nullptr : comm, merge);
    }
    result.report = obs::captureRunReport();
}

bool
retryAttempt(HarnessOptions &attempt, const HarnessResult &result)
{
    if (!result.halted || ckpt::interruptRequested() ||
        result.restarts >= maxRestarts)
        return false;
    // The injected crash fires once; every retry resumes from the
    // newest valid generation it left behind.
    attempt.haltAfterIterations = 0;
    attempt.ckpt.resumeAuto = true;
    TDFE_INFORM("run supervisor: attempt crashed; restarting "
                "(attempt ", result.restarts + 2, ")");
    return true;
}

} // namespace tdfe
