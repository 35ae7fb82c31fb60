#include "stats/rls.hh"

#include "base/serial.hh"

#include <cmath>

#include "base/logging.hh"
#include "stats/minibatch.hh"
#include "stats/ols.hh"

namespace tdfe
{

RlsEstimator::RlsEstimator(std::size_t dims, const RlsConfig &config)
    : cfg(config), nDims(dims)
{
    TDFE_ASSERT(cfg.forgetting > 0.0 && cfg.forgetting <= 1.0,
                "RLS forgetting factor must be in (0, 1]");
    TDFE_ASSERT(cfg.delta > 0.0, "RLS prior scale must be positive");
    const std::size_t n = nDims + 1;
    phi.assign(n, 0.0);
    gain.assign(n, 0.0);
    pPhi.assign(n, 0.0);
    reset();
}

void
RlsEstimator::reset()
{
    const std::size_t n = nDims + 1;
    p.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        p[i * n + i] = cfg.delta;
}

double
RlsEstimator::update(std::vector<double> &coeffs,
                     const std::vector<double> &x, double y)
{
    TDFE_ASSERT(x.size() == nDims, "feature size mismatch");
    return updateRow(coeffs, x.data(), y);
}

double
RlsEstimator::updateRow(std::vector<double> &coeffs, const double *x,
                        double y)
{
    const std::size_t n = nDims + 1;
    TDFE_ASSERT(coeffs.size() == n, "coefficient size mismatch");

    double *__restrict ph = phi.data();
    double *__restrict pp = pPhi.data();
    double *__restrict k = gain.data();
    double *__restrict c = coeffs.data();

    ph[0] = 1.0;
    for (std::size_t i = 0; i < nDims; ++i)
        ph[i + 1] = x[i];

    // pPhi = P * phi  (P is symmetric).
    double denom = cfg.forgetting;
    for (std::size_t r = 0; r < n; ++r) {
        double acc = 0.0;
        const double *__restrict row = p.data() + r * n;
        for (std::size_t col = 0; col < n; ++col)
            acc += row[col] * ph[col];
        pp[r] = acc;
        denom += ph[r] * acc;
    }

    // Gain k = P phi / (lambda + phi' P phi).
    const double inv_denom = 1.0 / denom;
    for (std::size_t r = 0; r < n; ++r)
        k[r] = pp[r] * inv_denom;

    // A-priori error and coefficient update.
    double pred = 0.0;
    for (std::size_t r = 0; r < n; ++r)
        pred += c[r] * ph[r];
    const double err = y - pred;
    if (std::isfinite(err)) {
        for (std::size_t r = 0; r < n; ++r)
            c[r] += k[r] * err;

        // P = (P - k (P phi)') / lambda, kept symmetric.
        const double inv_lambda = 1.0 / cfg.forgetting;
        for (std::size_t r = 0; r < n; ++r) {
            double *__restrict row = p.data() + r * n;
            const double kr = k[r];
            for (std::size_t col = 0; col < n; ++col)
                row[col] = (row[col] - kr * pp[col]) * inv_lambda;
        }
    }

    ++stepCount;
    return err;
}

double
RlsEstimator::trainRound(std::vector<double> &coeffs,
                         const PackedBatch &batch)
{
    TDFE_ASSERT(!batch.empty(), "RLS round on an empty batch");

    const std::size_t n = batch.size();
    const std::size_t dims = batch.dims();
    const double *__restrict xrow = batch.xData();
    const double *__restrict y = batch.yData();

    // Validation signal: error of the entering coefficients on the
    // whole (unseen) batch, matching SgdOptimizer::trainRound.
    double mse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double r =
            y[i] - evalLinear(coeffs.data(), dims, xrow + i * dims);
        mse += r * r;
    }
    mse /= static_cast<double>(n);

    for (std::size_t i = 0; i < n; ++i)
        updateRow(coeffs, xrow + i * dims, y[i]);
    return mse;
}


void
RlsEstimator::save(BinaryWriter &w) const
{
    w.writeVec(p);
    w.writeU64(stepCount);
}

void
RlsEstimator::load(BinaryReader &r)
{
    r.readVecInto(p, "RLS covariance");
    stepCount = static_cast<std::size_t>(r.readU64());
}

} // namespace tdfe
