#include "stats/sgd.hh"

#include "base/serial.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/math_util.hh"
#include "stats/minibatch.hh"

namespace tdfe
{

SgdOptimizer::SgdOptimizer(std::size_t dims, const SgdConfig &config)
    : cfg(config), velocity(dims + 1, 0.0), gradScratch(dims + 1, 0.0)
{
    TDFE_ASSERT(cfg.learningRate > 0.0, "learning rate must be > 0");
    TDFE_ASSERT(cfg.momentum >= 0.0 && cfg.momentum < 1.0,
                "momentum must lie in [0, 1)");
    TDFE_ASSERT(cfg.epochsPerBatch > 0, "need at least one epoch");
}

double
SgdOptimizer::gradient(const std::vector<double> &coeffs,
                       const PackedBatch &batch,
                       std::vector<double> &grad) const
{
    const std::size_t n = batch.size();
    const std::size_t dims = batch.dims();
    const double inv_n = 1.0 / static_cast<double>(n);

    std::fill(grad.begin(), grad.end(), 0.0);
    // Fused single pass over the packed design matrix: each row is
    // walked once while hot — the stride-1 dot product feeding the
    // prediction and the gradient axpy share the same row pointer,
    // where the AoS layout re-chased a per-sample heap vector for
    // each of the two inner loops. Arithmetic order (ascending d,
    // the literal 2.0*err*x*inv_n grouping) is identical to the
    // legacy kernel, so coefficients stay bitwise-equal.
    const double *__restrict x = batch.xData();
    const double *__restrict y = batch.yData();
    const double *__restrict c = coeffs.data();
    double *__restrict g = grad.data();
    double mse = 0.0;
    for (std::size_t i = 0; i < n; ++i, x += dims) {
        double pred = c[0];
        for (std::size_t d = 0; d < dims; ++d)
            pred += c[d + 1] * x[d];
        const double err = pred - y[i];
        mse += sqr(err);
        g[0] += 2.0 * err * inv_n;
        for (std::size_t d = 0; d < dims; ++d)
            g[d + 1] += 2.0 * err * x[d] * inv_n;
    }
    // L2 penalty on slopes only; the intercept is never shrunk.
    for (std::size_t d = 1; d < coeffs.size(); ++d)
        g[d] += 2.0 * cfg.l2 * c[d];
    return mse * inv_n;
}

double
SgdOptimizer::trainRound(std::vector<double> &coeffs,
                         const PackedBatch &batch)
{
    TDFE_ASSERT(coeffs.size() == velocity.size(),
                "coefficient vector has wrong size");
    TDFE_ASSERT(!batch.empty(), "cannot train on an empty batch");

    std::vector<double> &grad = gradScratch;
    double pre_update_mse = 0.0;
    for (std::size_t epoch = 0; epoch < cfg.epochsPerBatch; ++epoch) {
        const double mse = gradient(coeffs, batch, grad);
        if (epoch == 0)
            pre_update_mse = mse;

        if (cfg.gradClip > 0.0) {
            double norm2 = 0.0;
            for (const double g : grad)
                norm2 += sqr(g);
            const double norm = std::sqrt(norm2);
            if (norm > cfg.gradClip) {
                const double scale = cfg.gradClip / norm;
                for (double &g : grad)
                    g *= scale;
            }
        }

        for (std::size_t d = 0; d < coeffs.size(); ++d) {
            velocity[d] =
                cfg.momentum * velocity[d] - cfg.learningRate * grad[d];
            coeffs[d] += velocity[d];
        }
        ++stepCount;
    }
    return pre_update_mse;
}


void
SgdOptimizer::save(BinaryWriter &w) const
{
    w.writeVec(velocity);
    w.writeU64(stepCount);
}

void
SgdOptimizer::load(BinaryReader &r)
{
    r.readVecInto(velocity, "SGD velocity");
    stepCount = static_cast<std::size_t>(r.readU64());
}

} // namespace tdfe
