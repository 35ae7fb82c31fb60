/**
 * @file
 * Real-time data collection (paper Sec. III-B.1): "a helper function
 * continuously monitors each iteration for the specified temporal
 * and spatial characteristics ... when the defined conditions are
 * met, the helper function efficiently aggregates the relevant data
 * into mini-batches".
 *
 * The collector samples the user's probes every iteration while the
 * analysis is live, records them into an ObservedSeries, and emits
 * (lags, target) training pairs into a MiniBatch whenever the lag
 * sources for a window-aligned target are available.
 */

#ifndef TDFE_CORE_COLLECTOR_HH
#define TDFE_CORE_COLLECTOR_HH

#include <functional>
#include <vector>

#include "core/ar_model.hh"
#include "core/iter_param.hh"
#include "core/observed_series.hh"
#include "stats/minibatch.hh"

namespace tdfe
{

/** Callback sampling the diagnostic variable at one location. */
using SampleFn = std::function<double(long loc)>;

/**
 * Streams simulation iterations into an ObservedSeries and a
 * MiniBatch of AR training samples.
 */
class DataCollector
{
  public:
    /**
     * @param space Spatial window (locations to sample).
     * @param time Temporal window (iterations that yield targets).
     * @param config AR shape; order/lag/axis decide which lag
     *        sources each target needs.
     * @param min_location Lowest legal location in the domain; the
     *        sampled lattice is extended below space.begin by
     *        order*space.step in Space mode (clamped here) so
     *        targets at the window edge have their regressors.
     */
    DataCollector(const IterParam &space, const IterParam &time,
                  const ArConfig &config, long min_location = 0);

    /**
     * Ingest one simulation iteration. Samples all lattice
     * locations via @p sample and emits any training pairs that
     * became constructible. Equivalent to snapshot() immediately
     * followed by digest() — the async pipeline runs the same two
     * phases with the digest deferred, which is why the two modes
     * produce bitwise-identical state.
     *
     * @param iter Current iteration number (must arrive in order,
     *        gaps before the first sampled iteration are fine).
     * @param sample Value accessor for this iteration.
     */
    void collect(long iter, const SampleFn &sample);

    /**
     * Phase 1 of collect(): copy the raw sample of every lattice
     * location for @p iter into the reusable staging row. This is
     * the only phase that invokes @p sample, so it is the only one
     * that may touch the simulation domain; it allocates nothing
     * after construction.
     *
     * @return true when @p iter is inside the sampling window and a
     *         digest() must follow; false when the iteration was
     *         skipped (before the first lag source).
     */
    bool snapshot(long iter, const SampleFn &sample);

    /**
     * Phase 2 of collect(): validate the staged row (non-finite
     * hold-previous repair), append it to the ObservedSeries, and
     * emit any training pairs that became constructible (running
     * the batch sink — i.e. training — for every batch that fills).
     * Must be called exactly once after each snapshot() that
     * returned true, in iteration order; safe to run on a worker
     * thread as it never touches the simulation domain.
     */
    void digest(long iter);

    /**
     * Install the consumer invoked the moment the mini-batch fills
     * ("the model's parameters are immediately updated ... after the
     * update, the mini-batch is reset"). The sink must leave the
     * batch empty; collection panics otherwise.
     */
    void
    setBatchSink(std::function<void(MiniBatch &)> sink)
    {
        batchSink = std::move(sink);
    }

    /** @return the mini-batch (trainer consumes then clears). */
    MiniBatch &batch() { return batch_; }

    /** @return everything sampled so far. */
    const ObservedSeries &observed() const { return series; }

    /** @return true once iter passed the temporal window end. */
    bool
    windowFinished(long iter) const
    {
        return iter > time.end;
    }

    /** @return first iteration the collector samples. */
    long sampleBegin() const { return storeBegin; }

    /** @return total training pairs emitted. */
    std::size_t samplesEmitted() const { return emitted; }

    /** @return provider samples rejected as non-finite. */
    std::size_t nonFiniteSamples() const { return nonFinite; }

    /** Spatial lattice actually sampled (extended window). @{ */
    long sampledLocBegin() const { return series.locBegin(); }
    long sampledLocEnd() const { return series.locEnd(); }
    /** @} */

    /** Checkpoint the collected data and pending batch. @{ */
    void save(BinaryWriter &w) const;
    void load(BinaryReader &r);
    /** @} */

  private:
    /** Emit all training pairs whose target iteration is @p iter. */
    void emitPairs(long iter);

    IterParam space;
    IterParam time;
    ArConfig cfg;

    /** Iteration from which sampling starts (covers lag sources). */
    long storeBegin;

    ObservedSeries series;
    MiniBatch batch_;
    std::function<void(MiniBatch &)> batchSink;
    std::vector<double> rowScratch;
    std::vector<double> lagScratch;
    std::size_t emitted = 0;
    std::size_t nonFinite = 0;
};

} // namespace tdfe

#endif // TDFE_CORE_COLLECTOR_HH
