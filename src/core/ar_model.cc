#include "core/ar_model.hh"

#include "base/serial.hh"

#include "base/logging.hh"

namespace tdfe
{

ArModel::ArModel(const ArConfig &config)
    : cfg(config), stdzr(config.order),
      coeffsNorm(config.order + 1, 0.0)
{
    TDFE_ASSERT(cfg.order > 0, "AR order must be >= 1");
    TDFE_ASSERT(cfg.lag > 0, "AR lag must be >= 1 iteration");
    TDFE_ASSERT(cfg.batchSize > 0, "mini-batch size must be >= 1");
}

double
ArModel::predict(const std::vector<double> &raw_lags) const
{
    TDFE_ASSERT(raw_lags.size() == cfg.order,
                "predict expects ", cfg.order, " lag values, got ",
                raw_lags.size());

    // Before any training round the best estimate is the nearest
    // lag value (persistence), which keeps early queries sane.
    if (!trainedFlag || stdzr.count() == 0)
        return raw_lags[0];

    double acc = coeffsNorm[0];
    for (std::size_t d = 0; d < cfg.order; ++d) {
        const double xn =
            (raw_lags[d] - stdzr.featureMean(d)) / stdzr.featureStd(d);
        acc += coeffsNorm[d + 1] * xn;
    }
    return stdzr.denormalizeTarget(acc);
}

std::vector<double>
ArModel::rawCoefficients() const
{
    return stdzr.denormalizeCoefficients(coeffsNorm);
}

void
ArModel::rawCoefficientsInto(double *out) const
{
    if (!trainedFlag || stdzr.count() == 0) {
        for (std::size_t d = 0; d <= cfg.order; ++d)
            out[d] = 0.0;
        return;
    }
    stdzr.denormalizeCoefficientsInto(coeffsNorm, out);
}


void
ArModel::save(BinaryWriter &w) const
{
    stdzr.save(w);
    w.writeVec(coeffsNorm);
    w.writeBool(trainedFlag);
}

void
ArModel::load(BinaryReader &r)
{
    stdzr.load(r);
    std::vector<double> c = r.readVec();
    if (!r.ok())
        return; // damaged stream: values are zeros, caller checks ok()
    if (c.size() != coeffsNorm.size()) {
        TDFE_FATAL("AR-model checkpoint order mismatch: ", c.size(),
                   " vs ", coeffsNorm.size());
    }
    coeffsNorm = std::move(c);
    trainedFlag = r.readBool();
}

} // namespace tdfe
