/**
 * @file
 * Streaming change-point detectors used as baselines for the
 * paper's inflection-point delay-time extraction: a two-sided CUSUM
 * and a two-sided Page-Hinkley test. Both are classical sequential
 * tests that flag a shift in the mean of a monitored statistic; the
 * delay-time comparison applies them to the per-step gradient of a
 * diagnostic series, where a detonation shows up as a mean shift.
 *
 * They give the repository an answerable "why not something
 * simpler?" ablation: the detectors are cheaper than curve fitting
 * but fire with a tuned-threshold detection delay and give no
 * predictive curve (no forwarding, no early ROI search).
 */

#ifndef TDFE_CORE_CHANGEPOINT_HH
#define TDFE_CORE_CHANGEPOINT_HH

#include <cstddef>

#include "stats/running_stats.hh"

namespace tdfe
{

/** Tunables shared by the sequential detectors. */
struct ChangePointConfig
{
    /**
     * Samples used to calibrate the in-control mean and deviation
     * before the test arms itself.
     */
    std::size_t calibration = 20;
    /**
     * CUSUM slack (drift allowance) in calibrated standard
     * deviations: shifts smaller than this are ignored.
     */
    double drift = 0.5;
    /** Alarm threshold in calibrated standard deviations. */
    double threshold = 8.0;
    /** Floor for the calibrated deviation (flat series guard). */
    double minSigma = 1e-12;
};

/**
 * Two-sided CUSUM: S+ accumulates positive deviations beyond the
 * drift allowance, S- the negative ones; either crossing the
 * threshold raises the alarm.
 */
class CusumDetector
{
  public:
    /** @param config Detector tunables (copied). */
    explicit CusumDetector(const ChangePointConfig &config);

    /**
     * Feed the next sample.
     *
     * @return true exactly once, on the sample that raises the
     * alarm; the detector latches afterwards.
     */
    bool push(double value);

    /** @return true once the alarm has fired. */
    bool alarmed() const { return alarmIndex_ >= 0; }

    /** @return sample index of the alarm (-1 before it fires). */
    long alarmIndex() const { return alarmIndex_; }

    /** @return samples consumed. */
    std::size_t count() const { return pushed; }

    /** Restart: drops calibration, statistics, and the alarm. */
    void reset();

  private:
    ChangePointConfig cfg;
    RunningStats calib;
    double mu = 0.0;
    double sigma = 1.0;
    bool armed = false;
    double sHigh = 0.0;
    double sLow = 0.0;
    std::size_t pushed = 0;
    long alarmIndex_ = -1;
};

/**
 * Two-sided Page-Hinkley test: monitors the cumulative deviation of
 * the samples from their running mean; an alarm fires when the
 * cumulative sum escapes its historical extremum by more than the
 * threshold.
 */
class PageHinkleyDetector
{
  public:
    /** @param config Detector tunables (copied); `drift` plays the
     *  role of Page-Hinkley's delta in calibrated deviations. */
    explicit PageHinkleyDetector(const ChangePointConfig &config);

    /** As CusumDetector::push. */
    bool push(double value);

    /** @return true once the alarm has fired. */
    bool alarmed() const { return alarmIndex_ >= 0; }

    /** @return sample index of the alarm (-1 before it fires). */
    long alarmIndex() const { return alarmIndex_; }

    /** @return samples consumed. */
    std::size_t count() const { return pushed; }

    /** Restart: drops calibration, statistics, and the alarm. */
    void reset();

  private:
    ChangePointConfig cfg;
    RunningStats calib;
    double mu = 0.0;
    double sigma = 1.0;
    bool armed = false;
    /** Cumulative sums and their extrema for both directions. */
    double mHigh = 0.0;
    double mHighMin = 0.0;
    double mLow = 0.0;
    double mLowMax = 0.0;
    std::size_t pushed = 0;
    long alarmIndex_ = -1;
};

} // namespace tdfe

#endif // TDFE_CORE_CHANGEPOINT_HH
