#include "stats/standardizer.hh"

#include "base/serial.hh"

#include <algorithm>

#include "base/logging.hh"

namespace tdfe
{

Standardizer::Standardizer(std::size_t dims) : featureStats(dims)
{
    TDFE_ASSERT(dims > 0, "standardizer needs at least one dimension");
}

void
Standardizer::observe(const std::vector<double> &x, double y)
{
    TDFE_ASSERT(x.size() == featureStats.size(),
                "feature size mismatch: ", x.size(), " vs ",
                featureStats.size());
    observeRow(x.data(), y);
}

void
Standardizer::observeRow(const double *x, double y)
{
    const std::size_t dims = featureStats.size();
    for (std::size_t d = 0; d < dims; ++d)
        featureStats[d].push(x[d]);
    targetStats.push(y);
    ++samples;
}

double
Standardizer::featureStd(std::size_t dim) const
{
    return std::max(featureStats[dim].stddev(), stdFloor);
}

double
Standardizer::featureMean(std::size_t dim) const
{
    return featureStats[dim].mean();
}

double
Standardizer::targetStd() const
{
    return std::max(targetStats.stddev(), stdFloor);
}

double
Standardizer::targetMean() const
{
    return targetStats.mean();
}

void
Standardizer::normalize(std::vector<double> &x) const
{
    TDFE_ASSERT(x.size() == featureStats.size(),
                "feature size mismatch in normalize");
    for (std::size_t d = 0; d < x.size(); ++d)
        x[d] = (x[d] - featureMean(d)) / featureStd(d);
}

double
Standardizer::normalizeTarget(double y) const
{
    return (y - targetMean()) / targetStd();
}

double
Standardizer::denormalizeTarget(double y_norm) const
{
    return y_norm * targetStd() + targetMean();
}

std::vector<double>
Standardizer::denormalizeCoefficients(
    const std::vector<double> &coeffs_norm) const
{
    TDFE_ASSERT(coeffs_norm.size() == featureStats.size() + 1,
                "expected intercept + ", featureStats.size(),
                " coefficients");
    std::vector<double> raw(coeffs_norm.size(), 0.0);
    denormalizeCoefficientsInto(coeffs_norm, raw.data());
    return raw;
}

void
Standardizer::denormalizeCoefficientsInto(
    const std::vector<double> &coeffs_norm, double *out) const
{
    TDFE_ASSERT(coeffs_norm.size() == featureStats.size() + 1,
                "expected intercept + ", featureStats.size(),
                " coefficients");
    // y = mu_y + sigma_y * (b0' + sum_i bi' * (x_i - mu_i) / s_i)
    const double y_std = targetStd();
    double intercept = targetMean() + y_std * coeffs_norm[0];
    for (std::size_t d = 0; d < featureStats.size(); ++d) {
        const double slope = y_std * coeffs_norm[d + 1] / featureStd(d);
        out[d + 1] = slope;
        intercept -= slope * featureMean(d);
    }
    out[0] = intercept;
}


void
Standardizer::save(BinaryWriter &w) const
{
    w.writeU64(featureStats.size());
    for (const RunningStats &fs : featureStats)
        fs.save(w);
    targetStats.save(w);
    w.writeU64(samples);
}

void
Standardizer::load(BinaryReader &r)
{
    const std::uint64_t dims = r.readU64();
    if (!r.ok())
        return; // damaged stream: values are zeros, caller checks ok()
    if (dims != featureStats.size()) {
        TDFE_FATAL("standardizer checkpoint dims ", dims,
                   " != configured ", featureStats.size());
    }
    for (RunningStats &fs : featureStats)
        fs.load(r);
    targetStats.load(r);
    samples = static_cast<std::size_t>(r.readU64());
}

} // namespace tdfe
