/**
 * @file
 * The td_region: the user-facing orchestration object of the library
 * framework (paper Sec. III-C). A Region brackets the simulation's
 * main computation with begin()/end(); end() drives every registered
 * analysis, handles convergence broadcasts (prediction, wave-front
 * rank, stop flag) and exposes the aggregate stop decision.
 */

#ifndef TDFE_CORE_REGION_HH
#define TDFE_CORE_REGION_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "base/thread_pool.hh"
#include "base/timer.hh"
#include "core/analysis.hh"
#include "par/comm.hh"
#include "store/feature_record.hh"

namespace tdfe
{

class BinaryReader;
class FeatureStoreWriter;

/**
 * Container of analyses attached to one instrumented code block.
 *
 * Ranks running a decomposed simulation must construct identical
 * Regions and feed them identical probe data (the applications
 * gather probe lines across ranks first); the analyses are then
 * replicated deterministically and collective calls stay aligned.
 */
class Region
{
  public:
    /**
     * @param name Region label.
     * @param domain Opaque pointer handed to variable providers.
     * @param comm Optional communicator for the broadcast/stop
     *        protocol; nullptr runs fully local.
     */
    Region(std::string name, void *domain,
           Communicator *comm = nullptr);

    ~Region();

    Region(const Region &) = delete;
    Region &operator=(const Region &) = delete;

    /** Register an analysis; @return its id for queries. */
    std::size_t addAnalysis(AnalysisConfig config);

    /** Mark the start of the instrumented block (one iteration). */
    void begin();

    /**
     * Mark the end of the instrumented block and advance the
     * iteration counter. Every analysis first snapshots its probe
     * values through its variable provider, on the calling thread
     * and one analysis at a time; then the digests (normalize,
     * append, training, early-stop checks) run. By default they run
     * inline on the calling thread, one analysis after another, and
     * end() evaluates the stop protocol before returning; in async
     * mode (see setAsyncAnalyses) the digests are posted to the
     * thread pool, deferred, and drained at the next end() or the
     * first query, whichever comes first.
     */
    void end();

    /**
     * @return true when the simulation should terminate early.
     *
     * Strict mode (default): drains any in-flight async epoch and
     * completes any posted stop collective first, so the answer on
     * iteration k is bitwise identical to a synchronous run with a
     * collective-free (replicated) stop decision.
     *
     * Relaxed mode (setRelaxedStopQuery): returns the last
     * *published* decision — the stop protocol state as of the most
     * recently digested iteration — without draining the epoch or
     * waiting on a posted collective. The answer is at most one
     * iteration stale; every other result (features, predictions,
     * checkpoints) stays bitwise identical.
     */
    bool shouldStop() const;

    /** @return iterations completed (end() calls). */
    long iteration() const { return iter; }

    /** @return the iteration whose protocol first published a stop
     *  decision (-1: none yet). Does not drain; in relaxed mode this
     *  is exactly what shouldStop() reports. */
    long stopIteration() const { return stopIter_; }

    /** @return analysis by id (drains any in-flight epoch, so every
     *  query on the returned analysis sees fully-digested state). @{ */
    CurveFitAnalysis &analysis(std::size_t id);
    const CurveFitAnalysis &analysis(std::size_t id) const;
    /** @} */

    /** @return number of registered analyses. */
    std::size_t analysisCount() const { return analyses.size(); }

    /**
     * @return cumulative seconds of analysis work *exposed* to the
     * caller: time inside end() plus any stalls draining an
     * in-flight epoch at a query. Digest work hidden under the
     * solver in async mode is deliberately not counted — this is
     * the per-step cost the paper's overhead tables (Table III/VII)
     * report.
     */
    double overheadSeconds() const;

    /** @return cumulative seconds between begin() and end(). */
    double stepSeconds() const { return stepTime; }

    /** @return rank owning the wave front (0 without a comm). */
    int wavefrontRank() const;

    /**
     * Install the location->rank map used to report the wave-front
     * rank under domain decomposition.
     */
    void
    setRankOfLocation(std::function<int(long)> fn)
    {
        rankOfLocation = std::move(fn);
    }

    /** Iterations between collective stop-flag syncs (default 10). */
    void setSyncInterval(long interval);

    /** Attach a communicator (before the first begin()). */
    void setCommunicator(Communicator *c);

    /**
     * Relax shouldStop(): instead of draining the in-flight async
     * epoch and completing the posted stop collective, return the
     * last published decision (at most one iteration stale,
     * everything else bitwise identical). Composes with
     * setAsyncAnalyses() for full solver/analysis/communication
     * overlap in apps that poll shouldStop() every step.
     */
    void setRelaxedStopQuery(bool relaxed) { relaxedStop_ = relaxed; }

    /** @return true when shouldStop() runs in relaxed mode. */
    bool relaxedStopQuery() const { return relaxedStop_; }

    /**
     * Pipeline the per-iteration ingest: end() still snapshots the
     * probe values on the calling thread, but returns without
     * waiting for the digests, so they overlap the next solver
     * step. The digests run as one pool job that the region owns
     * and posts each iteration (no allocation per epoch). The
     * in-flight epoch is drained, and its stop protocol evaluated
     * for the iteration it belongs to, at the next end() or at the
     * first query (shouldStop(), analysis(), lastBroadcast(),
     * wavefrontRank(), overheadSeconds(), checkpoints), so
     * extracted features, stop decisions, and checkpoints are
     * bitwise identical to synchronous mode; the destructor waits
     * for it without running the protocol. A single-thread pool
     * degenerates to the synchronous path (no worker to overlap
     * onto, so deferring would only add queue bookkeeping).
     */
    void setAsyncAnalyses(bool async);

    /** @return true while a deferred digest epoch awaits drain
     *  (diagnostics/tests; does not drain). */
    bool epochInFlight() const { return epochOpen; }

    /**
     * Attach a feature-store sink: every digested iteration appends
     * one FeatureRecord per analysis (iteration, wall time,
     * wave-front position, one-step prediction, fit coefficients,
     * validation MSE, stop flag) to @p store. Appends always happen
     * on the application thread in iteration order — under the
     * async pipeline they run at drain time, exactly where the stop
     * protocol does — and each full block is encoded and written
     * inline by the append that fills it. Register every analysis first (the store
     * schema must carry max(order)+1 coefficient columns; fatal
     * otherwise); pass nullptr to detach. Attaching or detaching
     * drains any in-flight async epoch, so records always land in
     * the sink that was attached when their iteration ran — a
     * detach right after the last end() loses nothing. The store
     * is borrowed, must outlive the region or be detached before
     * destruction, and must not be finished while attached.
     *
     * A store that degrades mid-run (unrecoverable I/O error) is
     * detached automatically with a single warning and the
     * simulation continues unchanged — see featureStoreDegraded().
     */
    void setFeatureStore(FeatureStoreWriter *store);

    /** @return the attached feature-store sink (nullptr: none). */
    FeatureStoreWriter *featureStore() const { return store_; }

    /**
     * @return true when an attached sink hit an unrecoverable I/O
     * error mid-run and was detached (the append that failed logged
     * once, the store truncated itself back to its salvageable
     * sealed prefix, and the simulation continued untouched). The
     * flag is sticky across detach/attach so a harness can report
     * the degraded trace after the run.
     */
    bool featureStoreDegraded() const { return storeDegraded_; }

    /** Values of the last completed broadcast:
     *  [prediction, wavefront rank, stop flag]. */
    const double *lastBroadcast() const;

    /**
     * Write a checkpoint of the region and all its analyses to
     * @p out. Restore by constructing an identically-configured
     * Region (same analyses in the same order) and calling
     * loadCheckpoint() with a reader over the written bytes; the
     * checkpoint carries only mutable state. The load consumes the
     * region's bytes from @p r and leaves the reader just past them,
     * so a container payload (the run harness's TDRESUME) can embed
     * the region after its own fields and read both with one reader.
     *
     * Neither direction fatals on I/O or byte damage: both return
     * false with the reason in checkpointError() (a failed load
     * leaves the region's mutable state unspecified — reconstruct
     * it, reload a known-good checkpoint, or fall back to another
     * generation). A *shape* mismatch through a healthy reader — a
     * checkpoint for a differently-configured analysis — still
     * fatals in the analysis loaders: that is caller
     * misconfiguration, not file damage.
     * @{ */
    bool saveCheckpoint(std::ostream &out) const;
    bool loadCheckpoint(BinaryReader &r);
    /** @} */

    /** Reason of the last failed save/loadCheckpoint ("" if none). */
    const std::string &checkpointError() const { return ckptError_; }

    /**
     * Arm the comm watchdog: a posted stop-protocol collective that
     * a blocking harvest cannot complete within @p seconds marks the
     * comm degraded — the region adopts its last published stop
     * decision, drops the posted requests, and stops posting
     * further collectives instead of hanging on a silent rank.
     * Analyses are replicated across ranks, so local decisions
     * match the collective ones and results stay identical.
     * 0 disables (default): harvests wait indefinitely.
     */
    void setCommDeadline(double seconds) { commDeadline_ = seconds; }

    /** @return true once the watchdog has fired (sticky). */
    bool commDegraded() const { return commDegraded_; }

  private:
    /** Stop protocol + broadcast for completed iteration @p it. */
    void finishIteration(long it);

    /** Append one record per analysis for iteration @p it to the
     *  attached feature store. */
    void recordFeatures(long it);

    /** Publish @p stop_now into the stop flag for iteration @p it. */
    void publishStop(bool stop_now, long it);

    /** How a harvest treats a posted collective. */
    enum class Harvest
    {
        /** test() only: a pending request stays posted. */
        Poll,
        /** Wait for completion (up to the watchdog deadline). */
        Wait,
        /** Query path: wait, charging any actual stall to the
         *  exposed overhead as a stall span. */
        Query,
    };

    /** Complete @p req if posted (@p pending) per @p how; a Query
     *  stall is recorded as @p stall_span. @return true when it
     *  completed now; the caller folds the result. */
    bool harvest(CommRequest &req, bool &pending, Harvest how,
                 const char *stall_span);

    /** Harvest the posted stop reduction and fold its result into
     *  the stop flag. */
    void completeSync(Harvest how);

    /** Harvest the posted convergence broadcast (the wave-front rank
     *  lands on completion). */
    void completeBcast(Harvest how);

    /** Watchdog fired: keep the last published decision, drop the
     *  posted requests, never post again (sticky). */
    void degradeComm();

    /** Complete the in-flight epoch: wait for the digest tasks,
     *  then run its deferred stop protocol on this thread. */
    void drainNow();

    /** Query-path drain: like drainNow() but charges the stall to
     *  the exposed overhead (end() already times its own drain). */
    void drainQuery();

    /** Const-query bridge: drains via const_cast — queries are
     *  logically const, the epoch is bookkeeping. */
    void drainPending() const
    {
        const_cast<Region *>(this)->drainQuery();
    }

    std::string name;
    void *domain;
    Communicator *comm;
    std::vector<std::unique_ptr<CurveFitAnalysis>> analyses;

    long iter = 0;
    bool stopFlag = false;
    long stopIter_ = -1;
    bool broadcastDone = false;
    bool asyncAnalyses_ = false;
    bool relaxedStop_ = false;
    long syncInterval = 10;
    int wavefrontRank_ = 0;
    std::function<int(long)> rankOfLocation;
    double broadcastBuf[3] = {0.0, 0.0, 0.0};

    /** Posted-but-not-yet-harvested collectives.
     *  At most one of each kind is in flight: the stop reduction is
     *  harvested before the next one is posted, the convergence
     *  broadcast fires once per run. @{ */
    CommRequest syncReq;
    bool syncPending = false;
    double syncResult = 0.0;
    /** Iteration the posted reduction was evaluated for, so a late
     *  harvest publishes the stop where a blocking collective would
     *  have. */
    long syncIter = -1;
    CommRequest bcastReq;
    bool bcastPending = false;
    /** @} */

    /** The digest of analysis `a`: one chunk of the epoch job. */
    struct Digest
    {
        Region *region;
        void operator()(std::size_t a) const;
    };

    /** Digest epoch (async mode): the pool job, posted and waited
     *  once per iteration, its body, and the iteration in flight. @{ */
    ThreadPool::Job epochJob;
    Digest digest{this};
    long epochIter = -1;
    bool epochOpen = false;
    /** @} */

    /** Feature-store sink (borrowed) and its reused record. @{ */
    FeatureStoreWriter *store_ = nullptr;
    FeatureRecord storeRec;
    bool storeDegraded_ = false;
    /** @} */

    /** Comm watchdog state (see setCommDeadline). @{ */
    double commDeadline_ = 0.0;
    bool commDegraded_ = false;
    /** @} */

    /** Reason of the last failed checkpoint save/load. */
    std::string ckptError_;

    Timer blockTimer;
    /** Wall clock since construction (store wall-time column). */
    Timer runTimer;
    bool inBlock = false;
    double overhead = 0.0;
    double stepTime = 0.0;
};

} // namespace tdfe

#endif // TDFE_CORE_REGION_HH
