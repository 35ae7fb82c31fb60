/**
 * @file
 * Mini-batch trainer: consumes full mini-batches from the collector,
 * updates the ArModel by gradient descent in standardized space, and
 * feeds the validation signal to the EarlyStop controller.
 */

#ifndef TDFE_CORE_TRAINER_HH
#define TDFE_CORE_TRAINER_HH

#include <cstddef>
#include <vector>

#include "core/ar_model.hh"
#include "stats/minibatch.hh"
#include "stats/rls.hh"
#include "stats/sgd.hh"

namespace tdfe
{

class BinaryReader;
class BinaryWriter;

/**
 * Owns the optimizer state for one ArModel. Each trainRound() is the
 * paper's "GD within the current iteration" step: the batch is
 * standardized, one GD round runs, and the pre-update error on the
 * fresh batch serves as a rolling validation measure.
 */
class ArTrainer
{
  public:
    /** @param model Model to train (not owned, must outlive). */
    explicit ArTrainer(ArModel &model);

    /**
     * Consume one full mini-batch: update the standardizer with the
     * new samples, normalize, and run the configured GD epochs.
     * Clears @p batch afterwards.
     *
     * @return normalized pre-update MSE of the batch (validation
     *         signal: error of the so-far model on unseen data).
     */
    double trainRound(MiniBatch &batch);

    /** @return number of batches consumed. */
    std::size_t rounds() const { return roundCount; }

    /** @return last validation (pre-update, normalized) MSE. */
    double lastValidationMse() const { return lastValMse; }

    /** Checkpoint the optimizer state. @{ */
    void save(BinaryWriter &w) const;
    void load(BinaryReader &r);
    /** @} */

  private:
    ArModel &model;
    SgdOptimizer optimizer;
    RlsEstimator rls;
    /** Packed normalized design matrix, rebuilt in place per round. */
    MiniBatch normBatch;
    /** Per-round feature means and floored stds (model order). @{ */
    std::vector<double> featMean;
    std::vector<double> featStd;
    /** @} */
    std::size_t roundCount = 0;
    double lastValMse = 0.0;
};

} // namespace tdfe

#endif // TDFE_CORE_TRAINER_HH
