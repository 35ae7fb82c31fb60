#include "core/region.hh"

#include "base/serial.hh"

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "par/comm.hh"
#include "store/writer.hh"

namespace tdfe
{

Region::Region(std::string name, void *domain, Communicator *comm)
    : name(std::move(name)), domain(domain), comm(comm)
{
}

Region::~Region()
{
    // Never let digest tasks outlive the analyses they mutate. The
    // deferred stop protocol is skipped: nobody can query a region
    // that is going away. Posted collectives are simply dropped —
    // the contribution made at post time still completes them for
    // the other ranks, and results only ever land in our buffers
    // from our own test()/wait() calls, so no dangling writes.
    if (epochOpen)
        ThreadPool::global().wait(epochJob);
}

std::size_t
Region::addAnalysis(AnalysisConfig config)
{
    TDFE_ASSERT(iter == 0,
                "analyses must be registered before the first "
                "iteration");
    analyses.push_back(
        std::make_unique<CurveFitAnalysis>(std::move(config)));
    return analyses.size() - 1;
}

void
Region::begin()
{
    TDFE_ASSERT(!inBlock, "td_region_begin without matching end");
    inBlock = true;
    blockTimer.reset();
}

void
Region::end()
{
    TDFE_ASSERT(inBlock, "td_region_end without matching begin");
    inBlock = false;
    stepTime += blockTimer.elapsed();

    // The exposed-overhead accumulators double as trace spans: every
    // `overhead +=` in this file folds in a SpanTimer::stop() whose
    // span name carries the "region.exposed." prefix, so summing
    // those spans in an exported trace reconstructs overheadSeconds
    // exactly (same doubles, same order — gated by bench/obs_overhead
    // to 1e-9 after the JSON round trip).
    obs::SpanTimer work("region.exposed.end", "region");

    // Opportunistic harvest: fold any collective that completed
    // while the solver ran (a test under the lock, no stall). Keeps
    // the published stop decision fresh for relaxed-mode queries.
    completeSync(Harvest::Poll);
    completeBcast(Harvest::Poll);

    // Pipeline discipline: the previous epoch's digest must finish
    // (and its stop protocol run, for *its* iteration) before this
    // iteration snapshots into the same staging rows.
    drainNow();

    // Snapshot phase, on the caller's thread and one analysis at a
    // time in every mode: the providers only ever run here, so they
    // need not be thread-safe.
    {
        static obs::Counter snapshots("region.snapshots_total");
        obs::SpanTimer snap("region.snapshot", "region");
        for (auto &a : analyses)
            a->snapshotIteration(iter, domain);
        snapshots.add(analyses.size());
    }

    // Digest phase: each analysis owns its collector/model/trainer,
    // so the digests (normalize, append, training rounds, early-stop
    // checks) are independent of one another. In sync mode they run
    // inline on the caller's thread, one analysis after another: a
    // digest is a few microseconds, less than a pool dispatch and
    // its wake-ups, so sync mode never touches the pool. In async
    // mode they are posted to the pool as the region's epoch job
    // and deferred: the caller returns to the solver and the
    // protocol for this iteration runs at drain time, so the
    // "region.digest" spans on pool-worker tids are the work
    // *hidden* under the next solver step. A
    // single-thread pool has no worker to overlap onto, so async
    // degenerates to the synchronous path (the phase order —
    // snapshot, digest, protocol, all for iteration k — and thus
    // every result stays identical; only the execution moment
    // moves).
    if (asyncAnalyses_ && !analyses.empty() &&
        ThreadPool::global().threadCount() > 1) {
        epochIter = iter;
        ThreadPool::global().post(epochJob, analyses.size(), digest);
        epochOpen = true;
    } else {
        for (std::size_t a = 0; a < analyses.size(); ++a)
            digest(a);
        finishIteration(iter);
    }

    ++iter;
    overhead += work.stop();
}

void
Region::Digest::operator()(std::size_t a) const
{
    static obs::Counter digests("region.digests_total");
    obs::SpanTimer span("region.digest", "region");
    region->analyses[a]->digestIteration();
    digests.add();
}

void
Region::finishIteration(long it)
{
    bool all_done = !analyses.empty();
    bool want_stop = false;
    bool any_stopper = false;
    bool all_stoppers_converged = true;
    for (auto &a : analyses) {
        const bool done = a->trainingFinished(it);
        all_done = all_done && done;
        if (a->config().stopWhenConverged) {
            any_stopper = true;
            all_stoppers_converged =
                all_stoppers_converged && a->converged();
        }
    }
    // Termination requires every stop-requesting analysis to have
    // converged (the wdmerger case trains four models at once).
    want_stop = any_stopper && all_stoppers_converged;

    // Convergence broadcast (paper Sec. III-C): once every analysis
    // finished training, rank 0 publishes the current prediction,
    // the wave-front rank, and the termination flag. Collectives
    // always run on the application thread — under the async
    // pipeline this method executes at drain time, never on a pool
    // worker — and fire on the same iterations as synchronous mode.
    // The broadcast is only *posted* here and completed lazily at
    // the first query that needs it (wavefrontRank / lastBroadcast /
    // checkpoint), so no rank stalls inside end().
    if (all_done && !broadcastDone) {
        broadcastDone = true;
        const CurveFitAnalysis &lead = *analyses.front();
        const long front_loc = lead.wavefrontLocation();
        wavefrontRank_ =
            rankOfLocation ? rankOfLocation(front_loc) : 0;
        broadcastBuf[0] = lead.currentPrediction();
        broadcastBuf[1] = static_cast<double>(wavefrontRank_);
        broadcastBuf[2] = want_stop ? 1.0 : 0.0;
        if (comm && !commDegraded_) {
            static obs::Counter posts("comm.posts_total");
            posts.add();
            bcastReq = comm->ibcast(broadcastBuf, 3, 0);
            bcastPending = true;
        }
    }

    if (comm && !commDegraded_ &&
        (it % syncInterval) == syncInterval - 1) {
        // Keep all ranks agreed on the stop decision. Analyses are
        // replicated, so this is belt-and-braces, but it is the MPI
        // traffic whose cost the paper's overhead tables include.
        // Harvest the reduction posted one sync window ago (usually
        // long complete — that is the rank pipelining), then post
        // this window's. The result folds into the stop flag at the
        // next harvest point; a strict shouldStop() forces it with a
        // wait.
        static obs::Counter posts("comm.posts_total");
        posts.add();
        completeSync(Harvest::Wait);
        syncResult = 0.0;
        syncIter = it;
        syncReq = comm->iallreduce(want_stop ? 1.0 : 0.0,
                                   ReduceOp::Max, &syncResult);
        syncPending = true;
    }
    publishStop(want_stop, it);

    if (store_)
        recordFeatures(it);
}

void
Region::recordFeatures(long it)
{
    // Always on the application thread (finishIteration runs at
    // drain time under the async pipeline), so the single-producer
    // store sees appends in iteration order. The published stop
    // flag is whatever the protocol knows *now* — a remote stop
    // folds in at the harvest one sync window after its post, which
    // is the same staleness the relaxed stop query exposes.
    storeRec.iteration = it;
    storeRec.stop = stopFlag;
    storeRec.wallTime = runTimer.elapsed();
    for (std::size_t i = 0; i < analyses.size(); ++i) {
        storeRec.analysis = static_cast<long>(i);
        analyses[i]->fillFeatureRecord(storeRec);
        if (!store_->append(storeRec)) {
            // The store hit an unrecoverable I/O error (it already
            // logged the detail and truncated itself back to its
            // salvageable prefix). Detach the sink so the remaining
            // iterations do not even pay the latch check — the
            // simulation's physics, stop protocol, and checkpoints
            // are untouched; only the trace is incomplete.
            warnDegraded(
                "store_sink",
                detail::concatMessage(
                    "region '", name, "': feature store sink '",
                    store_->path(), "' degraded at iteration ", it,
                    ", detaching; the simulation continues"));
            storeDegraded_ = true;
            store_ = nullptr;
            return;
        }
    }
}

void
Region::setFeatureStore(FeatureStoreWriter *store)
{
    // Settle any in-flight async epoch first: its deferred
    // finishIteration must append to the sink that was attached
    // when the iteration ran, not to the new one (and a detach
    // must not silently drop the pending iteration's records).
    drainQuery();
    if (store) {
        TDFE_ASSERT(!analyses.empty(),
                    "register analyses before attaching a feature "
                    "store (the schema depends on them)");
        std::size_t need = 0;
        for (const auto &a : analyses)
            need = std::max(need, a->config().ar.order + 1);
        if (store->schema().coeffCount < need) {
            TDFE_FATAL("feature store schema has ",
                       store->schema().coeffCount,
                       " coefficient columns, region '", name,
                       "' needs ", need);
        }
        storeRec.coeffs.assign(store->schema().coeffCount, 0.0);
    }
    store_ = store;
}

void
Region::publishStop(bool stop_now, long it)
{
    if (stop_now && !stopFlag)
        stopIter_ = it;
    stopFlag = stopFlag || stop_now;
}

bool
Region::harvest(CommRequest &req, bool &pending, Harvest how,
                const char *stall_span)
{
    if (!pending)
        return false;
    if (how == Harvest::Wait) {
        if (commDeadline_ <= 0.0) {
            req.wait();
        } else if (!req.waitFor(commDeadline_)) {
            degradeComm();
            return false;
        }
    } else if (!req.test()) {
        if (how == Harvest::Poll)
            return false;
        // A query that actually stalls charges the wait to the
        // exposed overhead (one that already completed costs
        // nothing).
        static obs::Counter stalls("comm.stalls_total");
        stalls.add();
        obs::SpanTimer stall(stall_span, "region");
        const bool done = harvest(req, pending, Harvest::Wait, nullptr);
        overhead += stall.stop();
        return done;
    }
    req.reset();
    pending = false;
    static obs::Counter completions("comm.completions_total");
    completions.add();
    return true;
}

void
Region::completeSync(Harvest how)
{
    // Attribute a remote-triggered stop to the iteration the
    // reduction was evaluated for — where a blocking collective
    // would have published it, however late the harvest runs.
    if (harvest(syncReq, syncPending, how, "region.exposed.sync_stall"))
        publishStop(syncResult > 0.5, syncIter);
}

void
Region::completeBcast(Harvest how)
{
    if (harvest(bcastReq, bcastPending, how,
                "region.exposed.bcast_stall"))
        wavefrontRank_ = static_cast<int>(broadcastBuf[1]);
}

void
Region::degradeComm()
{
    if (commDegraded_)
        return;
    commDegraded_ = true;
    warnDegraded(
        "comm",
        detail::concatMessage(
            "region '", name, "': stop-protocol collective did not "
            "complete within ", commDeadline_, "s (silent rank?); "
            "adopting the last published stop decision and "
            "disabling further stop collectives"));
    // Dropping the requests is safe by the CommRequest contract:
    // results only ever land from our own test()/wait() calls, and
    // our post-time contributions still complete the collectives
    // for any rank that is alive.
    syncReq.reset();
    syncPending = false;
    bcastReq.reset();
    bcastPending = false;
    // Broadcast values fall back to this rank's local computation
    // (already staged in broadcastBuf) — the analyses are
    // replicated, so these match what the collective would publish.
}

void
Region::drainNow()
{
    if (!epochOpen)
        return;
    ThreadPool::global().wait(epochJob);
    epochOpen = false;
    finishIteration(epochIter);
}

void
Region::drainQuery()
{
    if (!epochOpen)
        return;
    // The stall (wait + deferred protocol) blocks the caller, so it
    // counts as exposed overhead; work already hidden under the
    // solver does not.
    static obs::Counter drains("region.drains_total");
    drains.add();
    obs::SpanTimer stall("region.exposed.drain", "region");
    drainNow();
    overhead += stall.stop();
}

void
Region::setAsyncAnalyses(bool async)
{
    if (!async)
        drainQuery();
    asyncAnalyses_ = async;
}

bool
Region::shouldStop() const
{
    auto *self = const_cast<Region *>(this);
    if (relaxedStop_) {
        // Relaxed stop query: report the last published decision.
        // No epoch drain, no collective wait — only a lock-free-ish
        // poll that folds in a reduction that already completed.
        // The answer trails strict mode by at most one iteration
        // (the in-flight epoch); all other results are untouched.
        self->completeSync(Harvest::Poll);
        return stopFlag;
    }
    drainPending();
    self->completeSync(Harvest::Query);
    return stopFlag;
}

double
Region::overheadSeconds() const
{
    drainPending();
    return overhead;
}

int
Region::wavefrontRank() const
{
    drainPending();
    const_cast<Region *>(this)->completeBcast(Harvest::Query);
    return wavefrontRank_;
}

const double *
Region::lastBroadcast() const
{
    drainPending();
    const_cast<Region *>(this)->completeBcast(Harvest::Query);
    return broadcastBuf;
}

CurveFitAnalysis &
Region::analysis(std::size_t id)
{
    TDFE_ASSERT(id < analyses.size(), "analysis id out of range");
    drainQuery();
    return *analyses[id];
}

const CurveFitAnalysis &
Region::analysis(std::size_t id) const
{
    TDFE_ASSERT(id < analyses.size(), "analysis id out of range");
    drainPending();
    return *analyses[id];
}

void
Region::setSyncInterval(long interval)
{
    TDFE_ASSERT(interval > 0, "sync interval must be positive");
    syncInterval = interval;
}

void
Region::setCommunicator(Communicator *c)
{
    TDFE_ASSERT(iter == 0,
                "communicator must be attached before iterating");
    comm = c;
}

void
Region::saveCheckpoint(BinaryWriter &w) const
{
    // Settle everything in flight: the epoch drain runs the
    // deferred protocol, and completing the posted collectives
    // makes the saved stop/broadcast state independent of how far
    // the overlap had progressed.
    drainPending();
    auto *self = const_cast<Region *>(this);
    self->completeSync(Harvest::Query);
    self->completeBcast(Harvest::Query);
    w.writeTag("TDFECKPT");
    w.writeU64(2); // format version
    w.writeU64(analyses.size());
    w.writeI64(iter);
    w.writeBool(stopFlag);
    w.writeI64(stopIter_);
    w.writeBool(broadcastDone);
    w.writeI64(wavefrontRank_);
    for (const double v : broadcastBuf)
        w.writeF64(v);
    w.writeF64(overhead);
    w.writeF64(stepTime);
    for (const auto &a : analyses)
        a->save(w);
}

void
Region::saveCheckpoint(std::ostream &out) const
{
    BinaryWriter w(out);
    saveCheckpoint(w);
}

bool
Region::loadCheckpoint(BinaryReader &r)
{
    drainQuery();
    // A pending collective harvested after the restore would fold a
    // pre-restore stop decision into the restored state: settle it
    // now instead.
    completeSync(Harvest::Query);
    completeBcast(Harvest::Query);
    r.expectTag("TDFECKPT");
    const std::uint64_t version = r.readU64();
    if (r.ok() && version != 2) {
        r.fail("unsupported checkpoint version " +
               std::to_string(version));
    }
    const std::uint64_t count = r.readU64();
    if (r.ok() && count != analyses.size()) {
        r.fail("checkpoint has " + std::to_string(count) +
               " analyses, region has " +
               std::to_string(analyses.size()) +
               " (reconstruct the region identically first)");
    }
    if (!r.ok()) {
        ckptError_ = r.error();
        return false;
    }
    iter = static_cast<long>(r.readI64());
    stopFlag = r.readBool();
    stopIter_ = static_cast<long>(r.readI64());
    broadcastDone = r.readBool();
    wavefrontRank_ = static_cast<int>(r.readI64());
    for (double &v : broadcastBuf)
        v = r.readF64();
    overhead = r.readF64();
    stepTime = r.readF64();
    for (auto &a : analyses)
        a->load(r);
    if (!r.ok()) {
        ckptError_ = r.error();
        return false;
    }
    ckptError_.clear();
    return true;
}

} // namespace tdfe
