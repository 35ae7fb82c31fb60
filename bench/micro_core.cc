/**
 * @file
 * Microbenchmarks (google-benchmark) for the in-situ hot path: the
 * per-iteration collector cost, one GD training round, one model
 * prediction, and the break-point peak profile. These are the
 * numbers behind the "minimal performance impact" claim. Also the
 * solver side: one clover cycle and the thread pool's fork-join
 * dispatch latency; and the feature store's byte codecs: CRC-32
 * throughput and Gorilla decode cost.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "base/cli.hh"
#include "base/thread_pool.hh"
#include "clover2d/solver.hh"
#include "core/ar_model.hh"
#include "core/changepoint.hh"
#include "core/collector.hh"
#include "core/observed_series.hh"
#include "core/predictor.hh"
#include "core/trainer.hh"
#include "stats/rls.hh"
#include "store/codec.hh"

namespace
{

using namespace tdfe;

void
BM_CollectorIteration(benchmark::State &state)
{
    ArConfig cfg;
    cfg.order = 4;
    cfg.lag = 10;
    cfg.axis = LagAxis::Space;
    cfg.batchSize = 1 << 12;
    DataCollector collector(IterParam(1, state.range(0), 1),
                            IterParam(0, 1 << 28, 1), cfg, 1);
    // Discard filled batches: the benchmark isolates collection
    // cost; BM_TrainRound prices the training rounds.
    collector.setBatchSink([](MiniBatch &b) { b.clear(); });
    long iter = 0;
    for (auto _ : state) {
        collector.collect(iter++, [](long loc) {
            return static_cast<double>(loc) * 0.5;
        });
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_CollectorIteration)->Arg(10)->Arg(30)->Arg(90);

/**
 * One training round at AR order range(0) and batch size range(1).
 * The rows come from a ring of 64 rounds' worth drawn once, so each
 * round trains on fresh data as in a run; pushing them is a few ns
 * per row, the collector's own cost. Order 3, batch 16 is a
 * lagrangian analysis.
 */
void
BM_TrainRound(benchmark::State &state)
{
    ArConfig cfg;
    cfg.order = static_cast<std::size_t>(state.range(0));
    cfg.batchSize = static_cast<std::size_t>(state.range(1));
    ArModel model(cfg);
    ArTrainer trainer(model);
    MiniBatch batch(cfg.batchSize, cfg.order);

    const std::size_t ring_rows = 64 * cfg.batchSize;
    std::vector<double> xs(ring_rows * cfg.order), ys(ring_rows);
    double v = 0.37;
    for (std::size_t i = 0; i < ring_rows; ++i) {
        for (std::size_t d = 0; d < cfg.order; ++d) {
            v = v * 1.7 - static_cast<long>(v * 1.7) + 0.1;
            xs[i * cfg.order + d] = v;
        }
        ys[i] = 2.0 * xs[i * cfg.order] + 0.1 * v;
    }
    std::size_t next = 0;
    for (auto _ : state) {
        while (!batch.full()) {
            batch.push(xs.data() + next * cfg.order, ys[next]);
            next = (next + 1) % ring_rows;
        }
        benchmark::DoNotOptimize(trainer.trainRound(batch));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrainRound)
    ->Args({3, 16})
    ->Args({4, 8})
    ->Args({4, 32})
    ->Args({4, 128});

/**
 * Break-point extraction's peak profile on a lagrangian-sized
 * history: range(0) sampled locations x 18,000 rows of a travelling
 * pulse (Lorentzian, so no value decays into denormals), plus 16
 * locations rolled out past the lattice by a trained order-3 Space
 * model.
 */
void
BM_PeakProfile(benchmark::State &state)
{
    const std::size_t n_locs = static_cast<std::size_t>(state.range(0));
    const std::size_t n_rows = 18000;
    ObservedSeries series(1, 1, n_locs, 0,
                          static_cast<long>(n_rows) - 1);
    std::vector<double> row(n_locs);
    for (std::size_t t = 0; t < n_rows; ++t) {
        const double front = 0.005 * static_cast<double>(t);
        for (std::size_t k = 0; k < n_locs; ++k) {
            const double dx = static_cast<double>(k) - front;
            row[k] = 1.0 / (1.0 + dx * dx);
        }
        series.appendRow(row);
    }

    ArConfig cfg;
    cfg.order = 3;
    cfg.axis = LagAxis::Space;
    cfg.batchSize = 16;
    ArModel model(cfg);
    ArTrainer trainer(model);
    MiniBatch batch(cfg.batchSize, cfg.order);
    std::vector<double> lags(cfg.order);
    for (std::size_t t = 1; t < n_rows; t += 97) {
        const SeriesView prev =
            series.profileView(static_cast<long>(t - 1));
        const SeriesView cur = series.profileView(static_cast<long>(t));
        for (std::size_t k = cfg.order; k < n_locs; ++k) {
            for (std::size_t i = 0; i < cfg.order; ++i)
                lags[i] = prev[k - i - 1];
            batch.push(lags, cur[k]);
            if (batch.full())
                trainer.trainRound(batch);
        }
    }

    const Predictor pred(model, series);
    const long loc_end = series.locEnd() + 16;
    for (auto _ : state)
        benchmark::DoNotOptimize(pred.peakProfile(loc_end).data());
}
BENCHMARK(BM_PeakProfile)->Arg(100)->Unit(benchmark::kMillisecond);

void
BM_Predict(benchmark::State &state)
{
    ArConfig cfg;
    cfg.order = 4;
    ArModel model(cfg);
    ArTrainer trainer(model);
    MiniBatch batch(cfg.batchSize, cfg.order);
    double v = 0.5;
    while (!batch.full()) {
        v = v * 1.7 - static_cast<long>(v * 1.7) + 0.1;
        batch.push({v, v * 0.9, v * 0.8, v * 0.7}, v * 2.0);
    }
    trainer.trainRound(batch);

    const std::vector<double> lags{0.4, 0.3, 0.2, 0.1};
    for (auto _ : state)
        benchmark::DoNotOptimize(model.predict(lags));
}
BENCHMARK(BM_Predict);

} // namespace

void
BM_RlsUpdate(benchmark::State &state)
{
    const std::size_t order = static_cast<std::size_t>(state.range(0));
    RlsEstimator rls(order, RlsConfig{});
    std::vector<double> coeffs(order + 1, 0.0);
    std::vector<double> x(order, 0.5);
    double y = 1.0;
    for (auto _ : state) {
        rls.update(coeffs, x, y);
        y = 1.0 - y; // keep the estimator moving
        benchmark::DoNotOptimize(coeffs.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RlsUpdate)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void
BM_CusumPush(benchmark::State &state)
{
    ChangePointConfig cfg;
    cfg.threshold = 1e18; // never alarms: measures the steady path
    CusumDetector det(cfg);
    double v = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(det.push(v));
        v = v < 1.0 ? v + 0.1 : 0.0;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CusumPush);

void
BM_CloverCycle(benchmark::State &state)
{
    clover::CloverConfig cfg;
    cfg.nx = cfg.ny = static_cast<int>(state.range(0));
    clover::CloverSolver2D solver(cfg);
    solver.depositCornerEnergy(2.0);
    for (auto _ : state)
        solver.advance();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0) * state.range(0));
}
BENCHMARK(BM_CloverCycle)->Arg(32)->Arg(64);

/**
 * Fork-join dispatch latency: one parallelFor over range(0) chunks
 * (grain 1) whose body is a dependent multiply-add chain of range(1)
 * steps — 0 for an empty body, 130 for about 0.3 us per chunk on a
 * ~3 GHz core. The pool is sized by --threads.
 */
void
BM_ParallelForDispatch(benchmark::State &state)
{
    const std::size_t chunks = static_cast<std::size_t>(state.range(0));
    const long steps = static_cast<long>(state.range(1));
    std::vector<double> out(chunks, 0.0);
    for (auto _ : state) {
        parallelFor(chunks, std::size_t{1}, [&](std::size_t c) {
            double x = static_cast<double>(c) + 1.0;
            for (long k = 0; k < steps; ++k)
                x = x * 0.999999 + 1e-9;
            out[c] = x;
        });
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_ParallelForDispatch)
    ->Args({2, 0})
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({2, 130})
    ->Args({16, 130})
    ->Args({64, 130});

/**
 * store::crc32 throughput over range(0) bytes: 10 KB is about one
 * sealed store block, 846 KB a blast_stop rank-0 checkpoint payload.
 */
void
BM_Crc32(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
    for (auto _ : state)
        benchmark::DoNotOptimize(store::crc32(buf.data(), buf.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(10 << 10)->Arg(846 << 10);

/**
 * Gorilla decode of one block's double column (range(0) values of a
 * smooth decaying oscillation, like a feature's predicted value);
 * ns_per_value is the per-value cost.
 */
void
BM_DecodeDoubleColumn(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<double> vals(n), out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i);
        vals[i] = 10.0 * std::exp(-0.01 * t) + std::sin(0.3 * t);
    }
    std::vector<std::uint8_t> bytes;
    store::encodeDoubleColumn(vals.data(), n, bytes);
    for (auto _ : state) {
        if (!store::decodeDoubleColumn(bytes.data(), bytes.size(), n,
                                       out.data()))
            state.SkipWithError("decode failed");
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["ns_per_value"] = benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_DecodeDoubleColumn)->Arg(256);

// Hand-rolled BENCHMARK_MAIN so the shared --threads flag can size
// the global pool before google-benchmark sees (and would reject)
// the unknown option.
int
main(int argc, char **argv)
{
    tdfe::applyThreadsFlag(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
