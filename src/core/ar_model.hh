/**
 * @file
 * The linear spatio-temporal auto-regressive model of paper Sec.
 * III-A:
 *
 *   V(l,t) = b0 + b1*V(l-1, t-lag) + ... + bn*V(l-n, t-lag) + eps
 *
 * Two lag axes are supported. In Space mode the n regressors are the
 * n spatially-preceding locations at the lagged time (the LULESH
 * case: forwarding the wave across space). In Time mode the
 * regressors are the n temporally-preceding values at the same
 * location (the wdmerger case: classic AR(n) over the diagnostic
 * series). Both reduce to the paper's formula with the appropriate
 * index substitution, and forwarding "replaces V(l,t) by V(l+1,t)
 * and V(l,t+1) respectively".
 *
 * Coefficients are learned in standardized space (see Standardizer)
 * for gradient-descent stability; predictions and reported
 * coefficients are in raw space.
 */

#ifndef TDFE_CORE_AR_MODEL_HH
#define TDFE_CORE_AR_MODEL_HH

#include <cstddef>
#include <vector>

#include "stats/rls.hh"
#include "stats/sgd.hh"
#include "stats/standardizer.hh"

namespace tdfe
{

class BinaryReader;
class BinaryWriter;

/** Which axis the regressors step along. */
enum class LagAxis
{
    /** Regressors are spatially-preceding locations at time t-lag. */
    Space,
    /** Regressors are the same location at times t-lag..t-n*lag. */
    Time,
};

/** Which online optimizer consumes the mini-batches. */
enum class OptimizerKind
{
    /** The paper's mini-batch gradient descent. */
    MiniBatchGd,
    /** Recursive least squares with forgetting (extension: exact
     *  online solution, no learning-rate tuning). */
    Rls,
};

/** Model-plus-training configuration for one analysis. */
struct ArConfig
{
    /** Model size n: number of autoregressive terms. */
    std::size_t order = 4;
    /** Time-step lag, measured in iterations (paper Sec. III-A). */
    long lag = 1;
    /** Regressor axis (see LagAxis). */
    LagAxis axis = LagAxis::Time;
    /** Samples per mini-batch training round. */
    std::size_t batchSize = 32;
    /** Optimizer selection (GD is the paper's method). */
    OptimizerKind optimizer = OptimizerKind::MiniBatchGd;
    /** Gradient-descent settings (OptimizerKind::MiniBatchGd). */
    SgdConfig sgd;
    /** Recursive-least-squares settings (OptimizerKind::Rls). */
    RlsConfig rls;
    /** Relative validation-error threshold for convergence: the
     *  raw-space RMS error of fresh mini-batch predictions divided
     *  by the diagnostic's magnitude scale. */
    double convergeTol = 0.02;
    /** Consecutive below-tolerance rounds required to converge. */
    std::size_t convergePatience = 3;
    /** Rounds that must elapse before convergence may trigger. */
    std::size_t minBatches = 4;
};

/**
 * Linear AR model: standardizer + normalized coefficient vector.
 * The trainer mutates normCoeffs() and standardizer(); users call
 * predict().
 */
class ArModel
{
  public:
    /** @param config Model shape (order, lag, axis). */
    explicit ArModel(const ArConfig &config);

    /** @return configured model shape. */
    const ArConfig &config() const { return cfg; }

    /**
     * Predict the next value from raw-space lag values.
     *
     * @param raw_lags exactly order() values; raw_lags[0] is the
     *        nearest lag (l-1 or t-lag), raw_lags[i] the (i+1)-th.
     * @return raw-space prediction of V(l,t).
     */
    double predict(const std::vector<double> &raw_lags) const;

    /** @return model order n. */
    std::size_t order() const { return cfg.order; }

    /** @return intercept-first coefficients in raw space. */
    std::vector<double> rawCoefficients() const;

    /**
     * Write the order()+1 intercept-first raw-space coefficients
     * into caller-owned @p out without allocating; zeros before the
     * first training round. The feature-store sink calls this every
     * iteration.
     */
    void rawCoefficientsInto(double *out) const;

    /** @return true once at least one training round has run. */
    bool trained() const { return trainedFlag; }

    /** Trainer hooks. @{ */
    std::vector<double> &normCoeffs() { return coeffsNorm; }
    const std::vector<double> &normCoeffs() const { return coeffsNorm; }
    Standardizer &standardizer() { return stdzr; }
    const Standardizer &standardizer() const { return stdzr; }
    void markTrained() { trainedFlag = true; }
    /** @} */

    /** Checkpoint the learned state (not the configuration). @{ */
    void save(BinaryWriter &w) const;
    void load(BinaryReader &r);
    /** @} */

  private:
    ArConfig cfg;
    Standardizer stdzr;
    /** Intercept-first coefficients in standardized space. */
    std::vector<double> coeffsNorm;
    bool trainedFlag = false;
};

} // namespace tdfe

#endif // TDFE_CORE_AR_MODEL_HH
