/**
 * @file
 * Online per-dimension standardization for gradient-descent training.
 *
 * Hydrodynamic variables span many orders of magnitude; plain GD on
 * raw values either diverges or needs a per-problem learning rate.
 * The Standardizer tracks running mean/std of each feature dimension
 * and of the target, so the trainer can learn in normalized space and
 * report coefficients in raw space.
 */

#ifndef TDFE_STATS_STANDARDIZER_HH
#define TDFE_STATS_STANDARDIZER_HH

#include <cstddef>
#include <vector>

#include "stats/running_stats.hh"

namespace tdfe
{

/**
 * Tracks running statistics of feature vectors plus a scalar target,
 * and maps between raw and normalized space.
 */
class Standardizer
{
  public:
    /** @param dims Number of feature dimensions (target is extra). */
    explicit Standardizer(std::size_t dims);

    /** Fold one (features, target) observation into the statistics. */
    void observe(const std::vector<double> &x, double y);

    /** Fold a raw feature row of dims entries (packed hot path). */
    void observeRow(const double *x, double y);

    /** @return number of observations folded in. */
    std::size_t count() const { return samples; }

    /** Normalize a feature vector in place. */
    void normalize(std::vector<double> &x) const;

    /** @return normalized target value. */
    double normalizeTarget(double y) const;

    /** @return raw-space target from a normalized prediction. */
    double denormalizeTarget(double y_norm) const;

    /**
     * Convert coefficients learned in normalized space
     * (b0', b1'..bn') into raw-space coefficients (b0, b1..bn) such
     * that b0 + sum_i bi*x_i == denormalizeTarget(b0' + sum bi'*x_i').
     *
     * @param coeffs_norm intercept-first normalized coefficients.
     * @return intercept-first raw-space coefficients.
     */
    std::vector<double>
    denormalizeCoefficients(const std::vector<double> &coeffs_norm)
        const;

    /**
     * As denormalizeCoefficients, writing the dims+1 raw
     * coefficients into caller-owned @p out (no allocation; the
     * per-iteration feature-store sink runs through here).
     */
    void denormalizeCoefficientsInto(
        const std::vector<double> &coeffs_norm, double *out) const;

    /** Feature standard deviation (floored away from zero). */
    double featureStd(std::size_t dim) const;

    /** Feature running mean. */
    double featureMean(std::size_t dim) const;

    /** Target standard deviation (floored away from zero). */
    double targetStd() const;

    /** Target running mean. */
    double targetMean() const;

    /** Checkpoint the running statistics. @{ */
    void save(BinaryWriter &w) const;
    void load(BinaryReader &r);
    /** @} */

  private:
    static constexpr double stdFloor = 1e-12;

    std::vector<RunningStats> featureStats;
    RunningStats targetStats;
    std::size_t samples = 0;
};

} // namespace tdfe

#endif // TDFE_STATS_STANDARDIZER_HH
