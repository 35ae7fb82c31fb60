#include "core/predictor.hh"

#include <algorithm>

#include "base/logging.hh"

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

template <typename Emit>
void
Predictor::rollColumns(long loc_end, double quiescent, bool homogeneous,
                       Emit &&emit) const
{
    const ArConfig &cfg = model.config();
    TDFE_ASSERT(cfg.axis == LagAxis::Space,
                "spatial rollout requires a Space-axis model");

    const long step = series.locStep();
    const long first = series.locEnd() + step;
    if (loc_end < first)
        return;
    const std::size_t n_new =
        static_cast<std::size_t>((loc_end - first) / step) + 1;
    const std::size_t n_iters = series.iterCount();
    const std::size_t n_locs = series.locCount();
    const std::size_t order = cfg.order;
    const std::size_t lag = static_cast<std::size_t>(cfg.lag);

    // Column k reads only columns k-1..k-order, so order+1 column
    // slots hold every column still needed. Rows before the first
    // lag-reachable one are never written and keep the seed.
    const std::size_t slots = std::min(order + 1, n_new);
    std::vector<double> ring(slots * n_iters, quiescent);
    auto column = [&](std::size_t k) {
        return ring.data() + (k % slots) * n_iters;
    };
    if (n_iters <= lag) {
        for (std::size_t k = 0; k < n_new; ++k)
            emit(column(k));
        return;
    }
    TDFE_ASSERT(order <= n_locs, "an order-", order,
                " rollout needs as many sampled locations, have ",
                n_locs);

    // Homogeneous prediction applies the raw-space slopes without
    // the intercept, so a decaying signal forwards toward its
    // quiescent zero instead of the affine fixed point
    // b0 / (1 - sum b_i); an untrained model forwards the nearest
    // lag. The model is fixed for the whole rollout, so its raw
    // slopes are derived once here, not once per prediction.
    const bool fitted =
        model.trained() && model.standardizer().count() > 0;
    std::vector<double> raw(order + 1, 0.0);
    model.rawCoefficientsInto(raw.data());
    const std::vector<double> slopes(raw.begin() + 1, raw.end());

    // New location k is lattice index n_locs + k, counting the rolled
    // locations after the observed ones; its lag i is index
    // n_locs + k - i - 1 at the iteration lag rows earlier. An
    // observed source column is read down its stride, a rolled one
    // is contiguous.
    const double *observed =
        series.profileView(series.iterBegin()).data();
    std::vector<const double *> src(order);
    std::vector<std::size_t> stride(order);
    std::vector<double> lags(order, 0.0);
    for (std::size_t k = 0; k < n_new; ++k) {
        for (std::size_t i = 0; i < order; ++i) {
            const std::size_t li = n_locs + k - i - 1;
            const bool on_lattice = li < n_locs;
            src[i] = on_lattice ? observed + li : column(li - n_locs);
            stride[i] = on_lattice ? n_locs : 1;
        }
        double *out = column(k);
        auto fill = [&](auto predict) {
            for (std::size_t r = lag; r < n_iters; ++r)
                out[r] = predict(r - lag);
        };
        if (homogeneous && fitted) {
            fill([&](std::size_t row) {
                double acc = 0.0;
                for (std::size_t d = 0; d < order; ++d)
                    acc += slopes[d] * src[d][row * stride[d]];
                return acc;
            });
        } else if (homogeneous) {
            fill([&](std::size_t row) {
                return src[0][row * stride[0]];
            });
        } else {
            fill([&](std::size_t row) {
                for (std::size_t i = 0; i < order; ++i)
                    lags[i] = src[i][row * stride[i]];
                return model.predict(lags);
            });
        }
        emit(out);
    }
}

std::vector<std::vector<double>>
Predictor::spatialRollout(long loc_end, double quiescent,
                          bool homogeneous) const
{
    const std::size_t n_iters = series.iterCount();
    std::vector<std::vector<double>> rolled;
    rollColumns(loc_end, quiescent, homogeneous,
                [&](const double *column) {
                    rolled.emplace_back(column, column + n_iters);
                });
    return rolled;
}

std::vector<double>
Predictor::peakProfile(long loc_end) const
{
    // Observed peaks: one pass over the history in row order, so each
    // location folds std::max over its values oldest first, as a walk
    // down its strided column would, while memory is read
    // sequentially.
    const std::size_t n_iters = series.iterCount();
    const std::size_t n_locs = series.locCount();
    std::vector<double> peaks(n_locs, 0.0);
    if (n_iters > 0) {
        const double *row =
            series.profileView(series.iterBegin()).data();
        std::copy(row, row + n_locs, peaks.begin());
        for (std::size_t r = 1; r < n_iters; ++r) {
            row += n_locs;
            for (std::size_t k = 0; k < n_locs; ++k)
                peaks[k] = std::max(peaks[k], row[k]);
        }
    }

    if (loc_end > series.locEnd()) {
        rollColumns(loc_end, 0.0, true, [&](const double *column) {
            peaks.push_back(n_iters == 0
                                ? 0.0
                                : *std::max_element(column,
                                                    column + n_iters));
        });
    }
    return peaks;
}

} // namespace tdfe
