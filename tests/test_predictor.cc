/**
 * @file
 * Unit tests for inference: one-step fitted curves, free-run
 * temporal forecasts, and recursive spatial rollout.
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "core/analysis.hh"
#include "core/ar_model.hh"
#include "core/collector.hh"
#include "core/predictor.hh"
#include "core/trainer.hh"

namespace
{

using namespace tdfe;

/** Train a model on synthetic data satisfying an exact recurrence. */
ArModel
trainedModel(const ArConfig &cfg,
             const std::function<double(const std::vector<double> &)>
                 &target,
             double lo = 0.0, double hi = 10.0)
{
    ArModel model(cfg);
    ArTrainer trainer(model);
    MiniBatch batch(cfg.batchSize, cfg.order);
    double seed = lo;
    for (int round = 0; round < 150; ++round) {
        batch.clear();
        while (!batch.full()) {
            std::vector<double> x(cfg.order);
            for (std::size_t d = 0; d < cfg.order; ++d) {
                seed = std::fmod(seed * 1.61803 + 0.7, hi - lo) + lo;
                x[d] = seed;
            }
            batch.push(x, target(x));
        }
        trainer.trainRound(batch);
    }
    return model;
}

TEST(Predictor, OneStepSeriesMatchesExactRecurrence)
{
    ArConfig cfg;
    cfg.order = 2;
    cfg.lag = 1;
    cfg.axis = LagAxis::Time;
    cfg.batchSize = 32;
    cfg.sgd.epochsPerBatch = 30;
    const ArModel model = trainedModel(
        cfg, [](const std::vector<double> &x) {
            return 0.6 * x[0] + 0.2 * x[1] + 1.0;
        });

    // Observed series follows the same recurrence.
    ObservedSeries series(0, 1, 1, 0);
    std::vector<double> v{2.0, 3.0};
    series.appendRow({v[0]});
    series.appendRow({v[1]});
    for (int i = 2; i < 30; ++i) {
        const double next = 0.6 * v[i - 1] + 0.2 * v[i - 2] + 1.0;
        v.push_back(next);
        series.appendRow({next});
    }

    const Predictor pred(model, series);
    const FittedSeries fit = pred.oneStepSeries(0);
    ASSERT_EQ(fit.predicted.size(), 28u); // first 2 lack lags
    for (std::size_t i = 0; i < fit.predicted.size(); ++i)
        EXPECT_NEAR(fit.predicted[i], fit.actual[i],
                    0.02 * std::abs(fit.actual[i]) + 0.05);
}

TEST(Predictor, ForecastContinuesTheRecurrence)
{
    ArConfig cfg;
    cfg.order = 1;
    cfg.lag = 1;
    cfg.axis = LagAxis::Time;
    cfg.batchSize = 16;
    cfg.sgd.epochsPerBatch = 30;
    // V(t) = 0.8 V(t-1): geometric decay.
    const ArModel model =
        trainedModel(cfg, [](const std::vector<double> &x) {
            return 0.8 * x[0];
        });

    ObservedSeries series(0, 1, 1, 0);
    double v = 8.0;
    for (int i = 0; i < 10; ++i) {
        series.appendRow({v});
        v *= 0.8;
    }

    const Predictor pred(model, series);
    const auto forecast = pred.forecastSeries(0, 19);
    ASSERT_EQ(forecast.size(), 20u);
    // Free-run continuation should track the analytic decay.
    for (int t = 10; t < 20; ++t)
        EXPECT_NEAR(forecast[t], 8.0 * std::pow(0.8, t),
                    0.1 * 8.0 * std::pow(0.8, t) + 0.02);
}

TEST(Predictor, SpatialRolloutExtendsProfile)
{
    ArConfig cfg;
    cfg.order = 1;
    cfg.lag = 1;
    cfg.axis = LagAxis::Space;
    cfg.batchSize = 16;
    cfg.sgd.epochsPerBatch = 30;
    // V(l, t) = 0.5 V(l-1, t-1): each location halves the inner one.
    const ArModel model =
        trainedModel(cfg, [](const std::vector<double> &x) {
            return 0.5 * x[0];
        });

    // Observed: locations 1..4, V(l, t) = 16 * 0.5^(l-1) constant in
    // time (so the lagged source equals the current value).
    ObservedSeries series(1, 1, 4, 0);
    for (int t = 0; t < 12; ++t)
        series.appendRow({16.0, 8.0, 4.0, 2.0});

    const Predictor pred(model, series);
    const auto rolled = pred.spatialRollout(7);
    ASSERT_EQ(rolled.size(), 3u); // locations 5, 6, 7
    // After the lag warm-up row, values follow the halving rule.
    EXPECT_NEAR(rolled[0][6], 1.0, 0.05);
    EXPECT_NEAR(rolled[1][6], 0.5, 0.05);
    EXPECT_NEAR(rolled[2][6], 0.25, 0.05);

    const auto peaks = pred.peakProfile(7);
    ASSERT_EQ(peaks.size(), 7u);
    EXPECT_DOUBLE_EQ(peaks[0], 16.0); // observed peak
    EXPECT_NEAR(peaks[4], 1.0, 0.05); // rolled peak
}

TEST(Predictor, OneStepAtIsTheSeriesElementBitwise)
{
    // Five locations, 40 iterations of an irregular field, so the
    // lag gathering (not just the model) decides every value.
    ObservedSeries series(2, 3, 5, 7);
    for (int t = 0; t < 40; ++t) {
        std::vector<double> row(5);
        for (int k = 0; k < 5; ++k)
            row[static_cast<std::size_t>(k)] =
                std::sin(0.37 * t + 1.3 * k) * (k + 1) + 0.01 * t;
        series.appendRow(row);
    }

    for (const LagAxis axis : {LagAxis::Time, LagAxis::Space}) {
        ArConfig cfg;
        cfg.order = 3;
        cfg.lag = 2;
        cfg.axis = axis;
        cfg.batchSize = 16;
        const ArModel model =
            trainedModel(cfg, [](const std::vector<double> &x) {
                return 0.5 * x[0] - 0.25 * x[1] + 0.125 * x[2] + 0.3;
            });
        const Predictor pred(model, series);
        std::vector<double> lags;
        std::size_t matched = 0;
        // Space-axis locations 2..8 lack lag sources: both sides
        // must agree there is nothing to predict.
        for (long loc = 2; loc <= 14; loc += 3) {
            const FittedSeries fit = pred.oneStepSeries(loc);
            std::size_t k = 0;
            for (long t = series.iterBegin() - 1;
                 t <= series.iterEnd(); ++t) {
                double predicted = 0.0;
                const bool ok = pred.oneStepAt(loc, t, lags, predicted);
                const bool in_fit =
                    k < fit.iters.size() && fit.iters[k] == t;
                EXPECT_EQ(ok, in_fit) << "loc " << loc << " t " << t;
                if (ok && in_fit) {
                    EXPECT_EQ(predicted, fit.predicted[k])
                        << "loc " << loc << " t " << t;
                    ++k;
                }
            }
            EXPECT_EQ(k, fit.iters.size()) << "loc " << loc;
            matched += k;
        }
        EXPECT_GT(matched, 0u);
    }
}

TEST(Predictor, SpatialRolloutIsThePerPredictionFormulaBitwise)
{
    // Irregular field over locations 2, 5, 8; rollout to 17 (three
    // rolled locations, each lagging on the previous ones).
    ObservedSeries series(2, 3, 3, 0);
    for (int t = 0; t < 30; ++t)
        series.appendRow({std::sin(0.3 * t) + 2.0,
                          std::cos(0.2 * t) + 1.5,
                          0.5 * std::sin(0.7 * t) + 1.0});
    ArConfig cfg;
    cfg.order = 2;
    cfg.lag = 2;
    cfg.axis = LagAxis::Space;
    cfg.batchSize = 16;
    const ArModel trained =
        trainedModel(cfg, [](const std::vector<double> &x) {
            return 0.6 * x[0] - 0.2 * x[1] + 0.4;
        });
    const ArModel untrained(cfg);

    for (const ArModel *model : {&trained, &untrained}) {
        const std::vector<double> raw = model->rawCoefficients();
        for (const bool homogeneous : {true, false}) {
            const auto rolled = Predictor(*model, series)
                                    .spatialRollout(17, 0.0, homogeneous);
            ASSERT_EQ(rolled.size(), 3u);
            auto value_at = [&](long loc, long t) {
                return loc <= series.locEnd()
                    ? series.at(loc, t)
                    : rolled[static_cast<std::size_t>((loc - 11) / 3)]
                            [static_cast<std::size_t>(t)];
            };
            for (std::size_t k = 0; k < rolled.size(); ++k) {
                const long loc = 11 + 3 * static_cast<long>(k);
                for (long t = cfg.lag; t < 30; ++t) {
                    const std::vector<double> lags{
                        value_at(loc - 3, t - cfg.lag),
                        value_at(loc - 6, t - cfg.lag)};
                    double want = model->predict(lags);
                    if (homogeneous && !model->trained())
                        want = lags[0];
                    else if (homogeneous)
                        want = 0.0 + raw[1] * lags[0] + raw[2] * lags[1];
                    EXPECT_EQ(rolled[k][static_cast<std::size_t>(t)], want)
                        << "loc " << loc << " t " << t;
                }
            }
        }
    }
}

/**
 * Reference peak profile: each sampled location's strided column
 * folded with std::max oldest first, then one homogeneous rollout
 * prediction at a time (gathered through ObservedSeries::at and the
 * already-rolled columns), each rolled column's std::max_element.
 */
std::vector<double>
referencePeakProfile(const ArModel &model, const ObservedSeries &series,
                     long loc_end)
{
    std::vector<double> peaks;
    const long step = series.locStep();
    for (long loc = series.locBegin(); loc <= series.locEnd();
         loc += step) {
        const SeriesView col = series.seriesView(loc);
        double best = col.empty() ? 0.0 : col[0];
        for (std::size_t r = 1; r < col.size(); ++r)
            best = std::max(best, col[r]);
        peaks.push_back(best);
    }
    if (loc_end <= series.locEnd())
        return peaks;

    const ArConfig &cfg = model.config();
    const long first = series.locEnd() + step;
    const long t0 = series.iterBegin();
    const bool fitted =
        model.trained() && model.standardizer().count() > 0;
    const std::vector<double> raw = model.rawCoefficients();
    std::vector<std::vector<double>> rolled;
    for (long loc = first; loc <= loc_end; loc += step) {
        std::vector<double> col(series.iterCount(), 0.0);
        for (long t = t0 + cfg.lag; t < series.iterEnd(); ++t) {
            std::vector<double> lags;
            for (long i = 1; i <= static_cast<long>(cfg.order); ++i) {
                const long src = loc - i * step;
                lags.push_back(
                    src <= series.locEnd()
                        ? series.at(src, t - cfg.lag)
                        : rolled[static_cast<std::size_t>(
                              (src - first) / step)]
                                [static_cast<std::size_t>(t - cfg.lag -
                                                          t0)]);
            }
            double acc = 0.0;
            for (std::size_t d = 0; d < cfg.order; ++d)
                acc += raw[d + 1] * lags[d];
            col[static_cast<std::size_t>(t - t0)] =
                fitted ? acc : lags[0];
        }
        rolled.push_back(col);
        peaks.push_back(col.empty()
                        ? 0.0
                        : *std::max_element(col.begin(), col.end()));
    }
    return peaks;
}

TEST(Predictor, PeakProfileMatchesReference)
{
    ArConfig cfg;
    cfg.order = 3;
    cfg.lag = 2;
    cfg.axis = LagAxis::Space;
    cfg.batchSize = 16;
    const ArModel trained =
        trainedModel(cfg, [](const std::vector<double> &x) {
            return 0.7 * x[0] - 0.2 * x[1] + 0.1 * x[2] + 0.3;
        });
    const ArModel untrained(cfg);

    for (const long step : {1L, 3L}) {
        for (const std::size_t rows : {0, 1, 2, 3, 57}) {
            // Irregular field with ties, signed zeros and a moving
            // crest, so the fold order and the lag gathering decide
            // the peaks.
            ObservedSeries series(2, step, 6, 5);
            for (std::size_t t = 0; t < rows; ++t) {
                std::vector<double> row(6);
                for (std::size_t k = 0; k < 6; ++k) {
                    const double x = static_cast<double>(k) -
                                     0.1 * static_cast<double>(t);
                    row[k] = std::sin(0.9 * x) * (1.0 + 0.05 * t);
                }
                row[t % 5] = (t % 2) ? 0.0 : -0.0;
                // The last location peaks at a tie of -0.0 (first
                // half) and +0.0 (second half): the sign kept shows
                // which operand each std::max returned.
                row[5] = (t % 3) ? -std::abs(row[5])
                                 : (2 * t < rows ? -0.0 : 0.0);
                series.appendRow(row);
            }
            const long end = series.locEnd();
            for (const ArModel *model : {&trained, &untrained}) {
                const Predictor pred(*model, series);
                for (const long loc_end :
                     {end - step, end, end + step - 1, end + step,
                      end + 7 * step + 1}) {
                    const auto got = pred.peakProfile(loc_end);
                    const auto want =
                        referencePeakProfile(*model, series, loc_end);
                    ASSERT_EQ(got.size(), want.size())
                        << "step " << step << " rows " << rows
                        << " loc_end " << loc_end;
                    for (std::size_t k = 0; k < got.size(); ++k) {
                        EXPECT_EQ(got[k], want[k])
                            << "step " << step << " rows " << rows
                            << " loc_end " << loc_end << " k " << k;
                        EXPECT_EQ(std::signbit(got[k]),
                                  std::signbit(want[k]));
                    }
                }
            }
        }
    }
}

TEST(Predictor, LatestPredictionIsTheLastFittedPoint)
{
    // V(l, t) = 10 * 0.7^(l-1) * ramp(t): a trained Space-axis
    // analysis whose feature location has lag sources, so the
    // per-iteration store value is a real model prediction.
    struct Wave
    {
        long iter = 0;
    } wave;
    AnalysisConfig ac;
    ac.provider = [](void *domain, long loc) {
        const long t = static_cast<Wave *>(domain)->iter;
        return 10.0 * std::pow(0.7, static_cast<double>(loc - 1)) *
               (1.0 - std::exp(-static_cast<double>(t) / 20.0));
    };
    ac.space = IterParam(1, 6, 1);
    ac.time = IterParam(10, 120, 1);
    ac.featureLocation = 4;
    ac.ar.order = 2;
    ac.ar.lag = 1;
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 24;
    CurveFitAnalysis analysis(ac);
    for (wave.iter = 0; wave.iter <= 80; ++wave.iter)
        analysis.onIteration(wave.iter, &wave);

    ASSERT_TRUE(analysis.model().trained());
    const FittedSeries fit =
        Predictor(analysis.model(), analysis.observed())
            .oneStepSeries(4);
    ASSERT_FALSE(fit.predicted.empty());
    ASSERT_EQ(fit.iters.back(), analysis.observed().iterEnd() - 1);
    EXPECT_EQ(analysis.latestPrediction(), fit.predicted.back());
    EXPECT_EQ(analysis.currentPrediction(), fit.predicted.back());
}

TEST(PredictorDeathTest, AxisMisuseIsRejected)
{
    ArConfig time_cfg;
    time_cfg.axis = LagAxis::Time;
    const ArModel time_model(time_cfg);
    ObservedSeries series(0, 1, 1, 0);
    for (int i = 0; i < 10; ++i)
        series.appendRow({1.0});
    const Predictor p(time_model, series);
    EXPECT_DEATH(p.spatialRollout(5), "Space-axis");

    ArConfig space_cfg;
    space_cfg.axis = LagAxis::Space;
    const ArModel space_model(space_cfg);
    const Predictor q(space_model, series);
    EXPECT_DEATH(q.forecastSeries(0, 20), "Time-axis");
}

} // namespace
