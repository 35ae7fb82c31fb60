#include "core/predictor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace tdfe
{

Predictor::Predictor(const ArModel &model, const ObservedSeries &series)
    : model(model), series(series)
{
}

FittedSeries
Predictor::oneStepSeries(long loc) const
{
    FittedSeries out;
    std::vector<double> lags;
    const long t0 = series.iterBegin();
    const long t1 = series.iterEnd();
    if (t1 <= t0)
        return out;
    // Zero-copy view of the queried location's series (one strided
    // column) for the actual values.
    const SeriesView col = series.seriesView(loc);
    double predicted = 0.0;
    for (long t = t0; t < t1; ++t) {
        if (!oneStepAt(loc, t, lags, predicted))
            continue;
        out.iters.push_back(t);
        out.predicted.push_back(predicted);
        out.actual.push_back(col[static_cast<std::size_t>(t - t0)]);
    }
    return out;
}

bool
Predictor::oneStepAt(long loc, long t, std::vector<double> &lags,
                     double &predicted) const
{
    const ArConfig &cfg = model.config();
    lags.resize(cfg.order);
    const long t0 = series.iterBegin();
    const long t1 = series.iterEnd();
    if (t < t0 || t >= t1)
        return false;
    if (cfg.axis == LagAxis::Time) {
        const SeriesView col = series.seriesView(loc);
        for (std::size_t i = 0; i < cfg.order; ++i) {
            const long src = t - static_cast<long>(i + 1) * cfg.lag;
            if (src < t0)
                return false;
            lags[i] = col[static_cast<std::size_t>(src - t0)];
        }
    } else {
        const long src_t = t - cfg.lag;
        if (src_t < t0)
            return false;
        const SeriesView row = series.profileView(src_t);
        const long li = (loc - series.locBegin()) / series.locStep();
        for (std::size_t i = 0; i < cfg.order; ++i) {
            const long src_li = li - static_cast<long>(i + 1);
            if (src_li < 0)
                return false;
            lags[i] = row[static_cast<std::size_t>(src_li)];
        }
    }
    predicted = model.predict(lags);
    return true;
}

std::vector<double>
Predictor::forecastSeries(long loc, long t_end) const
{
    const ArConfig &cfg = model.config();
    TDFE_ASSERT(cfg.axis == LagAxis::Time,
                "temporal forecast requires a Time-axis model");

    std::vector<double> out = series.seriesAt(loc);
    const long t0 = series.iterBegin();
    TDFE_ASSERT(static_cast<long>(out.size()) >=
                    static_cast<long>(cfg.order) * cfg.lag,
                "not enough observed history to seed the forecast");

    std::vector<double> lags(cfg.order, 0.0);
    for (long t = series.iterEnd(); t <= t_end; ++t) {
        for (std::size_t i = 0; i < cfg.order; ++i) {
            const long src = t - static_cast<long>(i + 1) * cfg.lag;
            TDFE_ASSERT(src >= t0, "forecast lag ran before history");
            lags[i] = out[static_cast<std::size_t>(src - t0)];
        }
        out.push_back(model.predict(lags));
    }
    return out;
}

std::vector<std::vector<double>>
Predictor::spatialRollout(long loc_end, double quiescent,
                          bool homogeneous) const
{
    const ArConfig &cfg = model.config();
    TDFE_ASSERT(cfg.axis == LagAxis::Space,
                "spatial rollout requires a Space-axis model");

    const long step = series.locStep();
    const long first = series.locEnd() + step;
    if (loc_end < first)
        return {};

    const std::size_t n_new = static_cast<std::size_t>(
        (loc_end - first) / step) + 1;
    const std::size_t n_iters = series.iterCount();
    const long t0 = series.iterBegin();

    std::vector<std::vector<double>> rolled(
        n_new, std::vector<double>(n_iters, quiescent));

    // Value lookup that transparently switches from observed
    // (on-lattice) locations to already-rolled ones.
    auto value_at = [&](long loc, long t) -> double {
        if (loc <= series.locEnd())
            return series.at(loc, t);
        const std::size_t k =
            static_cast<std::size_t>((loc - first) / step);
        return rolled[k][static_cast<std::size_t>(t - t0)];
    };

    // Homogeneous prediction applies the raw-space slopes without
    // the intercept, so a decaying signal forwards toward its
    // quiescent zero instead of the affine fixed point
    // b0 / (1 - sum b_i); an untrained model forwards the nearest
    // lag. The model is fixed for the whole rollout, so its raw
    // slopes are derived once here, not once per prediction.
    const bool fitted =
        model.trained() && model.standardizer().count() > 0;
    std::vector<double> raw(cfg.order + 1, 0.0);
    model.rawCoefficientsInto(raw.data());
    auto forward = [&](const std::vector<double> &lags) {
        if (!homogeneous)
            return model.predict(lags);
        if (!fitted)
            return lags[0];
        double acc = 0.0;
        for (std::size_t d = 0; d < cfg.order; ++d)
            acc += raw[d + 1] * lags[d];
        return acc;
    };

    std::vector<double> lags(cfg.order, 0.0);
    for (std::size_t k = 0; k < n_new; ++k) {
        const long loc = first + static_cast<long>(k) * step;
        for (long t = t0 + cfg.lag; t < series.iterEnd(); ++t) {
            for (std::size_t i = 0; i < cfg.order; ++i) {
                const long src_l =
                    loc - static_cast<long>(i + 1) * step;
                lags[i] = value_at(src_l, t - cfg.lag);
            }
            rolled[k][static_cast<std::size_t>(t - t0)] = forward(lags);
        }
    }
    return rolled;
}

std::vector<double>
Predictor::peakProfile(long loc_end) const
{
    const long step = series.locStep();
    const long t0 = series.iterBegin();
    const long t1 = series.iterEnd();

    // Per-location peaks over the observed window: independent
    // strided-column walks, computed in place without materialising
    // each series (each column is one view, no per-element asserts
    // or index arithmetic beyond the stride add).
    std::vector<double> peaks(series.locCount(), 0.0);
    parallelFor(series.locCount(), std::size_t{16},
                [&](std::size_t k) {
                    if (t1 <= t0)
                        return;
                    const long loc = series.locBegin() +
                                     static_cast<long>(k) * step;
                    const SeriesView col = series.seriesView(loc);
                    const double *p = col.data();
                    const std::size_t stride = col.stride();
                    double best = *p;
                    for (std::size_t r = 1; r < col.size(); ++r)
                        best = std::max(best, p[r * stride]);
                    peaks[k] = best;
                });

    if (loc_end > series.locEnd()) {
        const auto rolled = spatialRollout(loc_end);
        for (const auto &column : rolled) {
            peaks.push_back(column.empty()
                            ? 0.0
                            : *std::max_element(column.begin(),
                                                column.end()));
        }
    }
    return peaks;
}

} // namespace tdfe
