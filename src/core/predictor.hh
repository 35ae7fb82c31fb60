/**
 * @file
 * Inference over a trained AR model plus the collected data:
 * one-step-ahead fitted curves (accuracy evaluation), free-run
 * temporal forecasts ("replace V(l,t) by V(l,t+1)"), and the
 * peak profile whose recursive spatial rollout ("replace V(l,t) by
 * V(l+1,t)") extends the blast wave beyond the sampled probes.
 */

#ifndef TDFE_CORE_PREDICTOR_HH
#define TDFE_CORE_PREDICTOR_HH

#include <vector>

#include "core/ar_model.hh"
#include "core/observed_series.hh"

namespace tdfe
{

/** A fitted curve with its aligned ground-truth values. */
struct FittedSeries
{
    /** Iteration number of each element. */
    std::vector<long> iters;
    /** Model one-step-ahead predictions. */
    std::vector<double> predicted;
    /** Observed values at the same iterations. */
    std::vector<double> actual;
};

/**
 * Stateless inference helper bound to a model and the observation
 * store. All methods are const; heavy rollouts allocate their own
 * scratch.
 */
class Predictor
{
  public:
    /** Both referents must outlive the predictor. */
    Predictor(const ArModel &model, const ObservedSeries &series);

    /**
     * One-step-ahead fitted curve at @p loc over every observed
     * iteration whose lag sources are recorded. This is the curve
     * the paper plots against the simulation data (Fig. 7) and
     * scores in the error tables.
     */
    FittedSeries oneStepSeries(long loc) const;

    /**
     * One-step-ahead prediction at a single (loc, t): the body of
     * one oneStepSeries() element without building the whole curve
     * — O(order), no allocation. The feature-store sink records
     * this every iteration.
     *
     * @param lags Caller scratch, resized to the model order.
     * @param predicted Receives the prediction when available.
     * @return false when any lag source precedes the recorded
     *         window (prediction not possible at this point).
     */
    bool oneStepAt(long loc, long t, std::vector<double> &lags,
                   double &predicted) const;

    /**
     * Free-run forecast at @p loc (Time axis only): observed values
     * seed the lags; beyond the recorded window the model consumes
     * its own predictions. Returns one value per iteration in
     * [series.iterBegin(), t_end].
     */
    std::vector<double> forecastSeries(long loc, long t_end) const;

    /**
     * Peak-over-time profile for the break-point search: the
     * observed peak of every sampled location, then the peak of each
     * location past locEnd() that the spatial rollout (Space axis
     * only; raw-space slopes without the intercept, so a decaying
     * signal forwards toward quiescence) predicts.
     *
     * @param loc_end Outermost location (inclusive).
     * @return locCount() observed peaks, then one rolled peak per
     *         location past locEnd() up to @p loc_end.
     */
    std::vector<double> peakProfile(long loc_end) const;

  private:
    const ArModel &model;
    const ObservedSeries &series;
};

} // namespace tdfe

#endif // TDFE_CORE_PREDICTOR_HH
