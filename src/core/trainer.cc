#include "core/trainer.hh"

#include "base/logging.hh"
#include "base/serial.hh"

namespace tdfe
{

ArTrainer::ArTrainer(ArModel &model)
    : model(model), optimizer(model.order(), model.config().sgd),
      rls(model.order(), model.config().rls),
      normBatch(model.config().batchSize, model.order()),
      featMean(model.order()), featStd(model.order())
{
}

double
ArTrainer::trainRound(MiniBatch &batch)
{
    TDFE_ASSERT(!batch.empty(), "training round on an empty batch");

    Standardizer &stdzr = model.standardizer();
    const std::size_t n = batch.size();
    const std::size_t dims = batch.dims();
    const double *xs = batch.xData();
    const double *ys = batch.yData();

    // Fold the fresh samples into the running statistics first so
    // normalization reflects everything seen so far.
    for (std::size_t i = 0; i < n; ++i)
        stdzr.observeRow(xs + i * dims, ys[i]);

    // The statistics are fixed for the rest of the round, so read
    // each mean and floored std once instead of once per element.
    // Every element still goes through the same (x - mean) / std as
    // Standardizer::normalize / normalizeTarget, on the same
    // doubles, so the normalized batch is bitwise identical.
    TDFE_ASSERT(dims == featMean.size(), "batch dims ", dims,
                " != model order ", featMean.size());
    for (std::size_t d = 0; d < dims; ++d) {
        featMean[d] = stdzr.featureMean(d);
        featStd[d] = stdzr.featureStd(d);
    }
    const double y_mean = stdzr.targetMean();
    const double y_std = stdzr.targetStd();

    // Zero-allocation invariant: normBatch's packed block and the
    // mean/std scratch are sized at construction, and each
    // normalized row is built in place straight into the design
    // matrix, so a training round performs no heap allocation no
    // matter how many rounds run.
    normBatch.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const double *src = xs + i * dims;
        double *dst = normBatch.appendRow((ys[i] - y_mean) / y_std);
        for (std::size_t d = 0; d < dims; ++d)
            dst[d] = (src[d] - featMean[d]) / featStd[d];
    }

    if (model.config().optimizer == OptimizerKind::Rls)
        lastValMse = rls.trainRound(model.normCoeffs(), normBatch);
    else
        lastValMse = optimizer.trainRound(model.normCoeffs(),
                                          normBatch);
    model.markTrained();
    ++roundCount;

    batch.clear();
    return lastValMse;
}


void
ArTrainer::save(BinaryWriter &w) const
{
    optimizer.save(w);
    rls.save(w);
    w.writeU64(roundCount);
    w.writeF64(lastValMse);
}

void
ArTrainer::load(BinaryReader &r)
{
    optimizer.load(r);
    rls.load(r);
    roundCount = static_cast<std::size_t>(r.readU64());
    lastValMse = r.readF64();
}

} // namespace tdfe
