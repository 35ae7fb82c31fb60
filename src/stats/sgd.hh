/**
 * @file
 * Gradient-descent optimizer for the linear AR model (paper Sec.
 * III-A: "optimization methods such as gradient descent are utilized
 * during training to minimize prediction error").
 */

#ifndef TDFE_STATS_SGD_HH
#define TDFE_STATS_SGD_HH

#include <cstddef>
#include <vector>

namespace tdfe
{

class BinaryReader;
class BinaryWriter;
class PackedBatch;

/** Tunables for the gradient-descent training rounds. */
struct SgdConfig
{
    /** Step size in normalized feature space. */
    double learningRate = 0.05;
    /** Classical momentum factor (0 disables momentum). */
    double momentum = 0.9;
    /** L2 penalty on the slope coefficients (not the intercept). */
    double l2 = 1e-6;
    /** Full passes over each mini-batch per training round. */
    std::size_t epochsPerBatch = 8;
    /**
     * Gradient L2-norm clip (0 disables). In-situ training sees
     * regime changes (a shock or detonation arriving): the first
     * batch after one is normalized with the stale running scale
     * and produces an enormous gradient; clipping keeps one such
     * batch from destroying the coefficients.
     */
    double gradClip = 10.0;
};

/**
 * Plain batch gradient descent with momentum over mean-squared error
 * of a linear model. Operates on intercept-first coefficient vectors.
 */
class SgdOptimizer
{
  public:
    /**
     * @param dims Feature dimensions (coefficients = dims + 1).
     * @param config Optimizer tunables.
     */
    SgdOptimizer(std::size_t dims, const SgdConfig &config);

    /**
     * Run config.epochsPerBatch gradient steps over @p batch,
     * updating @p coeffs in place.
     *
     * @return mean-squared error over the batch *before* the first
     * update (used as the convergence signal: it measures how well
     * the model trained on past batches predicts fresh data).
     */
    double trainRound(std::vector<double> &coeffs,
                      const PackedBatch &batch);

    /** @return total gradient steps taken. */
    std::size_t steps() const { return stepCount; }

    /** Checkpoint the momentum state. @{ */
    void save(BinaryWriter &w) const;
    void load(BinaryReader &r);
    /** @} */

  private:
    SgdConfig cfg;
    std::vector<double> velocity;
    /** Gradient scratch reused across rounds: the training hot path
     *  must not allocate per mini-batch. */
    std::vector<double> gradScratch;
    /** The round kernel for this dimension count, chosen at
     *  construction (see sgd.cc). */
    double (*trainPassFn)(const SgdConfig &cfg, const PackedBatch &batch,
                          double *coeffs, double *velocity,
                          double *grad);
    std::size_t stepCount = 0;
};

} // namespace tdfe

#endif // TDFE_STATS_SGD_HH
