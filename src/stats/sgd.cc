#include "stats/sgd.hh"

#include "base/serial.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/math_util.hh"
#include "stats/minibatch.hh"

namespace tdfe
{

namespace
{

/**
 * One training round: @p cfg.epochsPerBatch gradient steps over
 * @p batch, updating the dims+1 @p coeffs and @p velocity in place.
 * Each epoch is one fused stride-1 pass over the packed design
 * matrix (each row's error computed once, then folded into the
 * intercept and per-dimension gradient sums in row order), the
 * gradient clip, and the momentum step.
 *
 * Order > 0 pins the dimension count, so coefficients, velocity and
 * gradient sums live in registers for the whole round and the inner
 * loops unroll; Order == 0 is the same body at a runtime dimension
 * count, working in place with @p grad as the gradient scratch.
 * Either way every value sees the same IEEE operations in the same
 * order as the legacy kernel (ascending d, the literal
 * 2.0*err*x*inv_n grouping), so coefficients stay bitwise-equal.
 *
 * @return the MSE before the first update.
 */
template <std::size_t Order>
double
trainPass(const SgdConfig &cfg, const PackedBatch &batch,
          double *__restrict coeffs, double *__restrict velocity,
          double *__restrict grad)
{
    constexpr bool pinned = Order > 0;
    const std::size_t dims = pinned ? Order : batch.dims();
    const std::size_t n = batch.size();
    const double inv_n = 1.0 / static_cast<double>(n);

    // GCC at -O2 leaves these short loops rolled, which keeps the
    // arrays in memory; the unroll pragmas below, sized for the
    // pinned order 3, let it hold every element of that round in a
    // register.
    double local_c[Order + 1], local_v[Order + 1], local_g[Order + 1];
    if (pinned) {
#pragma GCC unroll 4
        for (std::size_t d = 0; d <= dims; ++d) {
            local_c[d] = coeffs[d];
            local_v[d] = velocity[d];
        }
    }
    double *__restrict c = pinned ? local_c : coeffs;
    double *__restrict v = pinned ? local_v : velocity;
    double *__restrict g = pinned ? local_g : grad;

    double pre_update_mse = 0.0;
    for (std::size_t epoch = 0; epoch < cfg.epochsPerBatch; ++epoch) {
#pragma GCC unroll 4
        for (std::size_t d = 0; d <= dims; ++d)
            g[d] = 0.0;
        const double *__restrict x = batch.xData();
        const double *__restrict y = batch.yData();
        double mse = 0.0;
        for (std::size_t i = 0; i < n; ++i, x += dims) {
            double pred = c[0];
#pragma GCC unroll 3
            for (std::size_t d = 0; d < dims; ++d)
                pred += c[d + 1] * x[d];
            const double err = pred - y[i];
            const double two_err = 2.0 * err;
            mse += sqr(err);
            g[0] += two_err * inv_n;
#pragma GCC unroll 3
            for (std::size_t d = 0; d < dims; ++d)
                g[d + 1] += two_err * x[d] * inv_n;
        }
        // L2 penalty on slopes only; the intercept is never shrunk.
#pragma GCC unroll 3
        for (std::size_t d = 1; d <= dims; ++d)
            g[d] += 2.0 * cfg.l2 * c[d];
        if (epoch == 0)
            pre_update_mse = mse * inv_n;

        if (cfg.gradClip > 0.0) {
            double norm2 = 0.0;
#pragma GCC unroll 4
            for (std::size_t d = 0; d <= dims; ++d)
                norm2 += sqr(g[d]);
            const double norm = std::sqrt(norm2);
            if (norm > cfg.gradClip) {
                const double scale = cfg.gradClip / norm;
#pragma GCC unroll 4
                for (std::size_t d = 0; d <= dims; ++d)
                    g[d] *= scale;
            }
        }

#pragma GCC unroll 4
        for (std::size_t d = 0; d <= dims; ++d) {
            v[d] = cfg.momentum * v[d] - cfg.learningRate * g[d];
            c[d] += v[d];
        }
    }

    if (pinned) {
#pragma GCC unroll 4
        for (std::size_t d = 0; d <= dims; ++d) {
            coeffs[d] = c[d];
            velocity[d] = v[d];
        }
    }
    return pre_update_mse;
}

using TrainPassFn = double (*)(const SgdConfig &, const PackedBatch &,
                               double *, double *, double *);

/**
 * @return the round pinned to @p dims, or the runtime one. Only
 * order 3, the order every perfbench workload trains, is pinned;
 * every other order runs the same body at a runtime dimension count.
 */
TrainPassFn
trainPassFor(std::size_t dims)
{
    return dims == 3 ? trainPass<3> : trainPass<0>;
}

} // namespace

SgdOptimizer::SgdOptimizer(std::size_t dims, const SgdConfig &config)
    : cfg(config), velocity(dims + 1, 0.0), gradScratch(dims + 1, 0.0),
      trainPassFn(trainPassFor(dims))
{
    TDFE_ASSERT(cfg.learningRate > 0.0, "learning rate must be > 0");
    TDFE_ASSERT(cfg.momentum >= 0.0 && cfg.momentum < 1.0,
                "momentum must lie in [0, 1)");
    TDFE_ASSERT(cfg.epochsPerBatch > 0, "need at least one epoch");
}

double
SgdOptimizer::trainRound(std::vector<double> &coeffs,
                         const PackedBatch &batch)
{
    TDFE_ASSERT(coeffs.size() == velocity.size(),
                "coefficient vector has wrong size");
    TDFE_ASSERT(!batch.empty(), "cannot train on an empty batch");
    TDFE_ASSERT(batch.dims() + 1 == coeffs.size(),
                "batch has ", batch.dims(), " dims for ", coeffs.size(),
                " coefficients");

    stepCount += cfg.epochsPerBatch;
    return trainPassFn(cfg, batch, coeffs.data(), velocity.data(),
                       gradScratch.data());
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
