/**
 * @file
 * Equivalence battery for the packed-design-matrix training layout:
 * the stride-1 kernels (PackedBatch + SgdOptimizer / RlsEstimator /
 * ArTrainer) must produce *bitwise*-identical coefficients,
 * predictions, and checkpoint bytes to the legacy array-of-structs
 * sample layout they replaced. The legacy path is replicated here
 * verbatim (ragged per-sample vectors, the historical loop nests and
 * literal arithmetic groupings) so any reordering slipped into the
 * packed kernels trips an exact comparison.
 *
 * ArTrainer's round, which reads each statistic once per round, is
 * compared the same way against a replica that normalizes every
 * element through the Standardizer's own accessors.
 *
 * Also covers the zero-copy ObservedSeries views (seriesView /
 * profileView) against the copying accessors, and thread-count
 * invariance of a full packed analysis pipeline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "base/rng.hh"
#include "base/serial.hh"
#include "base/thread_pool.hh"
#include "core/analysis.hh"
#include "core/ar_model.hh"
#include "core/trainer.hh"
#include "stats/minibatch.hh"
#include "stats/rls.hh"
#include "stats/sgd.hh"
#include "stats/standardizer.hh"

namespace
{

using namespace tdfe;

/** Legacy AoS sample, as stored before the packed refactor. */
struct LegacySample
{
    std::vector<double> x;
    double y = 0.0;
};

/** Exact replica of the pre-refactor SgdOptimizer::gradient. */
double
legacyGradient(const SgdConfig &cfg,
               const std::vector<double> &coeffs,
               const std::vector<LegacySample> &batch,
               std::vector<double> &grad)
{
    const std::size_t n = batch.size();
    const double inv_n = 1.0 / static_cast<double>(n);

    std::fill(grad.begin(), grad.end(), 0.0);
    double mse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const LegacySample &s = batch[i];
        double pred = coeffs[0];
        for (std::size_t d = 0; d < s.x.size(); ++d)
            pred += coeffs[d + 1] * s.x[d];
        const double err = pred - s.y;
        mse += err * err;
        grad[0] += 2.0 * err * inv_n;
        for (std::size_t d = 0; d < s.x.size(); ++d)
            grad[d + 1] += 2.0 * err * s.x[d] * inv_n;
    }
    for (std::size_t d = 1; d < coeffs.size(); ++d)
        grad[d] += 2.0 * cfg.l2 * coeffs[d];
    return mse * inv_n;
}

/** Exact replica of the pre-refactor SgdOptimizer::trainRound. */
double
legacyTrainRound(const SgdConfig &cfg, std::vector<double> &coeffs,
                 std::vector<double> &velocity,
                 const std::vector<LegacySample> &batch)
{
    std::vector<double> grad(coeffs.size(), 0.0);
    double pre_update_mse = 0.0;
    for (std::size_t epoch = 0; epoch < cfg.epochsPerBatch; ++epoch) {
        const double mse = legacyGradient(cfg, coeffs, batch, grad);
        if (epoch == 0)
            pre_update_mse = mse;

        if (cfg.gradClip > 0.0) {
            double norm2 = 0.0;
            for (const double g : grad)
                norm2 += g * g;
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
    }
    return pre_update_mse;
}

/** Exact replica of the pre-refactor RLS batch round (validation
 *  pass + sample-by-sample Sherman-Morrison updates). */
double
legacyRlsRound(const RlsConfig &cfg, std::size_t dims,
               std::vector<double> &coeffs, std::vector<double> &p,
               const std::vector<LegacySample> &batch)
{
    const std::size_t n = dims + 1;
    std::vector<double> phi(n, 0.0), gain(n, 0.0), p_phi(n, 0.0);

    double mse = 0.0;
    for (const LegacySample &s : batch) {
        double pred = coeffs[0];
        for (std::size_t i = 0; i < dims; ++i)
            pred += coeffs[i + 1] * s.x[i];
        const double r = s.y - pred;
        mse += r * r;
    }
    mse /= static_cast<double>(batch.size());

    for (const LegacySample &s : batch) {
        phi[0] = 1.0;
        for (std::size_t i = 0; i < dims; ++i)
            phi[i + 1] = s.x[i];

        double denom = cfg.forgetting;
        for (std::size_t r = 0; r < n; ++r) {
            double acc = 0.0;
            const double *row = p.data() + r * n;
            for (std::size_t c = 0; c < n; ++c)
                acc += row[c] * phi[c];
            p_phi[r] = acc;
            denom += phi[r] * acc;
        }
        const double inv_denom = 1.0 / denom;
        for (std::size_t r = 0; r < n; ++r)
            gain[r] = p_phi[r] * inv_denom;

        double pred = 0.0;
        for (std::size_t r = 0; r < n; ++r)
            pred += coeffs[r] * phi[r];
        const double err = s.y - pred;
        if (std::isfinite(err)) {
            for (std::size_t r = 0; r < n; ++r)
                coeffs[r] += gain[r] * err;
            const double inv_lambda = 1.0 / cfg.forgetting;
            for (std::size_t r = 0; r < n; ++r) {
                double *row = p.data() + r * n;
                for (std::size_t c = 0; c < n; ++c)
                    row[c] = (row[c] - gain[r] * p_phi[c]) *
                             inv_lambda;
            }
        }
    }
    return mse;
}

/** Random batches shared by both layouts. */
std::vector<std::vector<LegacySample>>
makeBatches(std::size_t order, std::size_t batch_size,
            std::size_t rounds, unsigned seed)
{
    Rng rng(seed);
    std::vector<std::vector<LegacySample>> out(rounds);
    for (auto &batch : out) {
        batch.resize(batch_size);
        for (LegacySample &s : batch) {
            s.x.resize(order);
            double acc = 0.3;
            for (std::size_t d = 0; d < order; ++d) {
                s.x[d] = rng.normal(0.0, 1.0 + 0.1 * d);
                acc += (d % 2 ? -0.4 : 0.7) * s.x[d];
            }
            s.y = acc + rng.normal(0.0, 0.05);
        }
    }
    return out;
}

/**
 * Packed-vs-legacy comparisons are bitwise on the reproducible
 * default build. Under TDFE_NATIVE (which defines TDFE_FAST_MATH;
 * GCC drops __FAST_MATH__ once -fno-finite-math-only follows
 * -ffast-math) the compiler is licensed to contract/reassociate
 * the production kernels and the textually different legacy replicas
 * here *differently*, so exact equality is no longer a valid oracle;
 * the battery then checks tight relative agreement instead (the
 * thread-invariance and checkpoint-format tests below stay exact —
 * they compare a binary with itself / pure copies).
 */
#if defined(__FAST_MATH__) || defined(TDFE_FAST_MATH)
constexpr bool exactGates = false;
#else
constexpr bool exactGates = true;
#endif

bool
nearlyEqual(double a, double b)
{
    if (exactGates)
        return a == b || (std::isnan(a) && std::isnan(b));
    const double scale =
        std::max({std::abs(a), std::abs(b), 1e-300});
    return std::abs(a - b) <= 1e-9 * scale;
}

bool
coeffsAgree(const std::vector<double> &a,
            const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    if (exactGates) {
        return a.empty() ||
               std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(double)) == 0;
    }
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!nearlyEqual(a[i], b[i]))
            return false;
    return true;
}

class PackedVsLegacy
    : public ::testing::TestWithParam<std::tuple<std::size_t,
                                                 std::size_t>>
{
};

TEST_P(PackedVsLegacy, SgdCoefficientsBitwiseIdentical)
{
    const std::size_t order = std::get<0>(GetParam());
    const std::size_t batch_size = std::get<1>(GetParam());
    const auto batches = makeBatches(order, batch_size, 6, 17);

    SgdConfig cfg;
    cfg.learningRate = 0.05;
    cfg.momentum = 0.9;
    cfg.epochsPerBatch = 8;

    SgdOptimizer packed_opt(order, cfg);
    std::vector<double> packed_coeffs(order + 1, 0.0);
    std::vector<double> legacy_coeffs(order + 1, 0.0);
    std::vector<double> legacy_velocity(order + 1, 0.0);

    PackedBatch pb(batch_size, order);
    for (const auto &batch : batches) {
        pb.clear();
        for (const LegacySample &s : batch)
            pb.push(s.x, s.y);
        const double packed_mse =
            packed_opt.trainRound(packed_coeffs, pb);
        const double legacy_mse = legacyTrainRound(
            cfg, legacy_coeffs, legacy_velocity, batch);
        // Bitwise on the default build (see exactGates).
        EXPECT_TRUE(nearlyEqual(packed_mse, legacy_mse));
        ASSERT_TRUE(coeffsAgree(packed_coeffs, legacy_coeffs));
    }

    // Optimizer checkpoint = velocity + step count; velocity bytes
    // must match the legacy momentum state exactly.
    std::string packed_ck;
    BinaryWriter w(packed_ck);
    packed_opt.save(w);
    std::string legacy_ck;
    BinaryWriter lw(legacy_ck);
    lw.writeVec(legacy_velocity);
    lw.writeU64(batches.size() * cfg.epochsPerBatch);
    if (exactGates)
        EXPECT_EQ(packed_ck, legacy_ck);
}

TEST_P(PackedVsLegacy, RlsStateBitwiseIdentical)
{
    const std::size_t order = std::get<0>(GetParam());
    const std::size_t batch_size = std::get<1>(GetParam());
    const auto batches = makeBatches(order, batch_size, 4, 29);

    RlsConfig cfg;
    RlsEstimator packed_rls(order, cfg);
    std::vector<double> packed_coeffs(order + 1, 0.0);

    std::vector<double> legacy_coeffs(order + 1, 0.0);
    std::vector<double> legacy_p((order + 1) * (order + 1), 0.0);
    for (std::size_t i = 0; i <= order; ++i)
        legacy_p[i * (order + 1) + i] = cfg.delta;

    PackedBatch pb(batch_size, order);
    for (const auto &batch : batches) {
        pb.clear();
        for (const LegacySample &s : batch)
            pb.push(s.x, s.y);
        const double packed_mse =
            packed_rls.trainRound(packed_coeffs, pb);
        const double legacy_mse = legacyRlsRound(
            cfg, order, legacy_coeffs, legacy_p, batch);
        EXPECT_TRUE(nearlyEqual(packed_mse, legacy_mse));
        ASSERT_TRUE(coeffsAgree(packed_coeffs, legacy_coeffs));
    }

    // RLS checkpoint = inverse covariance + step count.
    std::string packed_ck;
    BinaryWriter w(packed_ck);
    packed_rls.save(w);
    std::string legacy_ck;
    BinaryWriter lw(legacy_ck);
    lw.writeVec(legacy_p);
    lw.writeU64(batches.size() * batch_size);
    if (exactGates)
        EXPECT_EQ(packed_ck, legacy_ck);
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndBatches, PackedVsLegacy,
    ::testing::Combine(::testing::Values<std::size_t>(1, 4, 8, 32),
                       ::testing::Values<std::size_t>(1, 7, 32)));

/**
 * Replica of ArTrainer::trainRound that observes every row and then
 * normalizes each row and target through Standardizer::normalize /
 * normalizeTarget, i.e. with the statistics re-read per element.
 * Gradient descent runs through legacyTrainRound, so the comparison
 * also gates SgdOptimizer's order-pinned round kernel (order 3) and
 * its runtime-order one (every other order) against the legacy loop
 * nest.
 */
struct ReplicaTrainer
{
    explicit ReplicaTrainer(const ArConfig &cfg)
        : model(cfg), velocity(cfg.order + 1, 0.0),
          rls(cfg.order, cfg.rls), norm(cfg.batchSize, cfg.order)
    {
    }

    void
    trainRound(const std::vector<LegacySample> &batch)
    {
        Standardizer &stdzr = model.standardizer();
        for (const LegacySample &s : batch)
            stdzr.observe(s.x, s.y);
        norm.clear();
        std::vector<LegacySample> normalized;
        for (const LegacySample &s : batch) {
            LegacySample n{s.x, stdzr.normalizeTarget(s.y)};
            stdzr.normalize(n.x);
            norm.push(n.x, n.y);
            normalized.push_back(n);
        }
        const SgdConfig &sgd = model.config().sgd;
        if (model.config().optimizer == OptimizerKind::Rls) {
            lastMse = rls.trainRound(model.normCoeffs(), norm);
        } else {
            lastMse = legacyTrainRound(sgd, model.normCoeffs(), velocity,
                                       normalized);
            sgdSteps += sgd.epochsPerBatch;
        }
        model.markTrained();
        ++rounds;
    }

    /** The bytes ArTrainer::save writes for the same state. */
    std::string
    trainerBytes() const
    {
        std::string bytes;
        BinaryWriter w(bytes);
        w.writeVec(velocity); // SgdOptimizer::save
        w.writeU64(sgdSteps);
        rls.save(w);
        w.writeU64(rounds);
        w.writeF64(lastMse);
        return bytes;
    }

    ArModel model;
    std::vector<double> velocity;
    std::size_t sgdSteps = 0;
    RlsEstimator rls;
    PackedBatch norm;
    std::size_t rounds = 0;
    double lastMse = 0.0;
};

template <typename T>
std::string
saveBytes(const T &obj)
{
    std::string bytes;
    BinaryWriter w(bytes);
    obj.save(w);
    return bytes;
}

class TrainerVsReplica
    : public ::testing::TestWithParam<
          std::tuple<OptimizerKind, std::size_t, std::size_t>>
{
};

TEST_P(TrainerVsReplica, RoundIsBitwiseIdentical)
{
    ArConfig cfg;
    cfg.optimizer = std::get<0>(GetParam());
    cfg.order = std::get<1>(GetParam());
    cfg.batchSize = std::get<2>(GetParam());

    for (const bool constant_column : {false, true}) {
        auto batches = makeBatches(cfg.order, cfg.batchSize, 6, 41);
        // Floor cases: the first round carries one sample, so every
        // variance is 0; a constant column keeps its variance 0 in
        // every round. Both clamp the std to the Standardizer floor.
        batches.front().resize(1);
        if (constant_column)
            for (auto &batch : batches)
                for (LegacySample &s : batch)
                    s.x.back() = 2.5;

        ArModel model(cfg);
        ArTrainer trainer(model);
        ReplicaTrainer replica(cfg);
        PackedBatch pb(cfg.batchSize, cfg.order);
        for (const auto &batch : batches) {
            for (const LegacySample &s : batch)
                pb.push(s.x, s.y);
            const double mse = trainer.trainRound(pb);
            replica.trainRound(batch);
            EXPECT_TRUE(nearlyEqual(mse, replica.lastMse));
            ASSERT_TRUE(coeffsAgree(model.normCoeffs(),
                                    replica.model.normCoeffs()))
                << "constant column " << constant_column;
        }
        if (exactGates) {
            EXPECT_EQ(saveBytes(model), saveBytes(replica.model));
            EXPECT_EQ(saveBytes(trainer), replica.trainerBytes());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    OptimizersOrdersAndBatches, TrainerVsReplica,
    ::testing::Combine(::testing::Values(OptimizerKind::MiniBatchGd,
                                         OptimizerKind::Rls),
                       ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 8,
                                                      9),
                       ::testing::Values<std::size_t>(1, 7, 16, 32)));

TEST(PackedBatch, CheckpointBytesMatchLegacyAosFormat)
{
    // The packed layout must serialize in the historical per-sample
    // format (cap, dims, used, {writeVec(x), y}..., pushes) so
    // region checkpoints written before the refactor still load.
    const auto batch = makeBatches(3, 5, 1, 7).front();
    PackedBatch pb(8, 3);
    for (const LegacySample &s : batch)
        pb.push(s.x, s.y);

    std::string packed_ck;
    BinaryWriter w(packed_ck);
    pb.save(w);

    std::string legacy_ck;
    BinaryWriter lw(legacy_ck);
    lw.writeU64(8);
    lw.writeU64(3);
    lw.writeU64(batch.size());
    for (const LegacySample &s : batch) {
        lw.writeVec(s.x);
        lw.writeF64(s.y);
    }
    lw.writeU64(batch.size());
    ASSERT_EQ(packed_ck, legacy_ck);

    // And the bytes round-trip into an identical packed batch.
    PackedBatch restored(8, 3);
    BinaryReader r(packed_ck);
    restored.load(r);
    ASSERT_EQ(restored.size(), pb.size());
    for (std::size_t i = 0; i < pb.size(); ++i) {
        EXPECT_EQ(restored.target(i), pb.target(i));
        for (std::size_t d = 0; d < pb.dims(); ++d)
            EXPECT_EQ(restored.row(i)[d], pb.row(i)[d]);
    }
    EXPECT_EQ(restored.lifetimePushes(), pb.lifetimePushes());
}

TEST(PackedBatch, AppendRowBuildsInPlace)
{
    PackedBatch pb(4, 2);
    double *r0 = pb.appendRow(10.0);
    r0[0] = 1.0;
    r0[1] = 2.0;
    double *r1 = pb.appendRow(20.0);
    r1[0] = 3.0;
    r1[1] = 4.0;
    ASSERT_EQ(pb.size(), 2u);
    // Rows are adjacent in one contiguous block.
    EXPECT_EQ(pb.row(1), pb.row(0) + pb.dims());
    EXPECT_EQ(pb.row(0)[1], 2.0);
    EXPECT_EQ(pb.row(1)[0], 3.0);
    EXPECT_EQ(pb.target(0), 10.0);
    EXPECT_EQ(pb.target(1), 20.0);
    EXPECT_EQ(pb.lifetimePushes(), 2u);
}

/**
 * Full packed pipeline (collector -> trainer -> model) must be
 * invariant in the pool thread count: coefficients, predictions,
 * features, and the complete analysis checkpoint stay bitwise
 * identical at 1, 2, and 4 threads, across model orders.
 */
TEST(PackedPipeline, ThreadCountInvariantAcrossOrders)
{
    struct Digest
    {
        std::string checkpoint;
        double feature = 0.0;
        double prediction = 0.0;
    };

    auto run = [](std::size_t order, int threads) {
        setGlobalThreadCount(threads);
        AnalysisConfig ac;
        ac.name = "packed-sweep";
        ac.provider = [](void *, long loc) {
            // Deterministic synthetic diagnostic; domain unused.
            return std::sin(0.05 * static_cast<double>(loc)) + 1.0;
        };
        ac.space = IterParam(2, 10, 1);
        ac.time = IterParam(40, 160, 1);
        ac.feature = FeatureKind::DelayTime;
        ac.featureLocation = 4;
        ac.minLocation = 0;
        ac.ar.order = order;
        ac.ar.lag = 1;
        ac.ar.axis = LagAxis::Time;
        ac.ar.batchSize = 16;

        CurveFitAnalysis analysis(ac);
        for (long it = 0; it <= 170; ++it)
            analysis.onIteration(it, nullptr);

        Digest d;
        d.feature = analysis.extractFeature();
        d.prediction = analysis.currentPrediction();
        BinaryWriter w(d.checkpoint);
        analysis.save(w);
        setGlobalThreadCount(1);
        return d;
    };

    for (const std::size_t order : {1u, 4u, 8u, 32u}) {
        const Digest ref = run(order, 1);
        EXPECT_GT(ref.checkpoint.size(), 0u);
        for (const int threads : {2, 4}) {
            const Digest got = run(order, threads);
            EXPECT_EQ(ref.checkpoint, got.checkpoint)
                << "order " << order << " threads " << threads;
            EXPECT_EQ(ref.feature, got.feature);
            EXPECT_EQ(ref.prediction, got.prediction);
        }
    }
}

TEST(ObservedSeriesViews, MatchCopyingAccessors)
{
    ObservedSeries s(4, 2, 5, 10);
    for (long it = 10; it < 22; ++it) {
        std::vector<double> row(5);
        for (std::size_t i = 0; i < 5; ++i)
            row[i] = 100.0 * static_cast<double>(it) +
                     static_cast<double>(i);
        s.appendRow(row);
    }

    // Column views: one per sampled location.
    for (long loc = 4; loc <= s.locEnd(); loc += 2) {
        const std::vector<double> copy = s.seriesAt(loc);
        const SeriesView view = s.seriesView(loc);
        ASSERT_EQ(view.size(), copy.size());
        EXPECT_EQ(view.stride(), s.locCount());
        for (std::size_t r = 0; r < copy.size(); ++r)
            EXPECT_EQ(view[r], copy[r]);
        EXPECT_EQ(view.back(), copy.back());
    }

    // Row views: one per recorded iteration, contiguous.
    for (long it = 10; it < 22; ++it) {
        const std::vector<double> copy = s.profileAt(it);
        const SeriesView view = s.profileView(it);
        ASSERT_EQ(view.size(), copy.size());
        EXPECT_EQ(view.stride(), 1u);
        for (std::size_t i = 0; i < copy.size(); ++i) {
            EXPECT_EQ(view[i], copy[i]);
            EXPECT_EQ(view.data()[i], copy[i]);
        }
    }

    // Element access agrees with at().
    EXPECT_EQ(s.seriesView(8)[3], s.at(8, 13));
    EXPECT_EQ(s.profileView(13)[2], s.at(8, 13));
}

TEST(ObservedSeriesViews, EmptySeriesViewIsEmpty)
{
    ObservedSeries s(0, 1, 3, 0);
    const SeriesView v = s.seriesView(1);
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.size(), 0u);
}

} // namespace
