/**
 * @file
 * Unit + property tests for the in-situ data collector: window
 * alignment, lag-source bookkeeping, and mini-batch emission for
 * both lag axes.
 */

#include <gtest/gtest.h>
#include <climits>
#include <vector>

#include "core/collector.hh"

namespace
{

using namespace tdfe;

/** Synthetic field encoding location and time: V = 1000 t + l. */
double
field(long loc, long iter)
{
    return 1000.0 * static_cast<double>(iter) +
           static_cast<double>(loc);
}

TEST(Collector, TimeAxisEmitsAlignedPairs)
{
    ArConfig cfg;
    cfg.order = 2;
    cfg.lag = 3;
    cfg.axis = LagAxis::Time;
    cfg.batchSize = 1000; // no sink needed

    const IterParam space(5, 5, 1);
    const IterParam time(10, 20, 5); // targets at 10, 15, 20
    DataCollector c(space, time, cfg);

    // Sampling must start early enough for the lag sources of the
    // first target: 10 - 2*3 = 4.
    EXPECT_EQ(c.sampleBegin(), 4);

    for (long i = 0; i <= 20; ++i)
        c.collect(i, [&](long l) { return field(l, i); });

    // Targets 10, 15, 20 all have sources at t-3 and t-6 >= 4.
    EXPECT_EQ(c.samplesEmitted(), 3u);
    const MiniBatch &b = c.batch();
    ASSERT_EQ(b.size(), 3u);
    // First pair: target (5, 10), lags (5, 7) and (5, 4).
    EXPECT_DOUBLE_EQ(b.target(0), field(5, 10));
    EXPECT_DOUBLE_EQ(b.row(0)[0], field(5, 7));
    EXPECT_DOUBLE_EQ(b.row(0)[1], field(5, 4));
}

TEST(Collector, SpaceAxisEmitsSpatialLags)
{
    ArConfig cfg;
    cfg.order = 2;
    cfg.lag = 1;
    cfg.axis = LagAxis::Space;
    cfg.batchSize = 1000;

    const IterParam space(6, 10, 1); // the paper's Fig. 2 window
    const IterParam time(3, 4, 1);
    DataCollector c(space, time, cfg, 1);

    // Lattice extends down to 6 - 2 = 4.
    EXPECT_EQ(c.sampledLocBegin(), 4);
    EXPECT_EQ(c.sampledLocEnd(), 10);

    for (long i = 0; i <= 4; ++i)
        c.collect(i, [&](long l) { return field(l, i); });

    // Targets: locations 6..10 at iters 3 and 4 -> 10 pairs.
    EXPECT_EQ(c.samplesEmitted(), 10u);
    const MiniBatch &b = c.batch();
    // Pair 0: target (6, 3); lags (5, 2), (4, 2).
    EXPECT_DOUBLE_EQ(b.target(0), field(6, 3));
    EXPECT_DOUBLE_EQ(b.row(0)[0], field(5, 2));
    EXPECT_DOUBLE_EQ(b.row(0)[1], field(4, 2));
}

TEST(Collector, SpaceAxisClampsAtDomainMinimum)
{
    ArConfig cfg;
    cfg.order = 4;
    cfg.axis = LagAxis::Space;
    cfg.batchSize = 1000;
    // Window starts at 2: cannot extend 4 below with min location 1.
    DataCollector c(IterParam(2, 5, 1), IterParam(1, 1, 1), cfg, 1);
    EXPECT_GE(c.sampledLocBegin(), 1);

    for (long i = 0; i <= 1; ++i)
        c.collect(i, [&](long l) { return field(l, i); });
    // Targets whose deepest lag would fall below location 1 are
    // skipped: only locations >= 1 + 4 = 5 emit.
    EXPECT_EQ(c.samplesEmitted(), 1u);
}

TEST(Collector, BatchSinkFiresOnFillAndBatchIsReset)
{
    ArConfig cfg;
    cfg.order = 1;
    cfg.lag = 1;
    cfg.axis = LagAxis::Time;
    cfg.batchSize = 4;

    DataCollector c(IterParam(0, 0, 1), IterParam(1, 100, 1), cfg);
    int fires = 0;
    c.setBatchSink([&](MiniBatch &b) {
        EXPECT_TRUE(b.full());
        ++fires;
        b.clear();
    });

    for (long i = 0; i <= 40; ++i)
        c.collect(i, [&](long l) { return field(l, i); });

    // 40 pairs emitted (targets at 1..40), batch of 4 -> 10 fires.
    EXPECT_EQ(c.samplesEmitted(), 40u);
    EXPECT_EQ(fires, 10);
}

TEST(Collector, KeepsCollectingAfterWindowEnds)
{
    ArConfig cfg;
    cfg.order = 1;
    cfg.batchSize = 1000;
    DataCollector c(IterParam(0, 0, 1), IterParam(0, 5, 1), cfg);
    for (long i = 0; i <= 20; ++i)
        c.collect(i, [&](long l) { return field(l, i); });

    EXPECT_TRUE(c.windowFinished(6));
    // Observations continue past the training window end...
    EXPECT_EQ(c.observed().iterEnd(), 21);
    // ...but no new training pairs are emitted.
    EXPECT_EQ(c.samplesEmitted(), 5u);
}

TEST(Collector, OpenEndedWindowReservesAtMostTheCeiling)
{
    // A C API window may run to LONG_MAX: the history reservation
    // must size itself without signed overflow (UBSan checks this in
    // the sanitizer build) and stop at the per-history ceiling.
    ArConfig cfg;
    cfg.order = 2;
    cfg.lag = 1;
    cfg.axis = LagAxis::Time;
    cfg.batchSize = 16;
    const IterParam space(2, 6, 1);
    constexpr long rows = 300;

    /** Every emitted pair, lags then target, in emission order. */
    auto recordPairs = [](DataCollector &c, std::vector<double> &out) {
        c.setBatchSink([&out](MiniBatch &b) {
            for (std::size_t i = 0; i < b.size(); ++i) {
                out.insert(out.end(), b.row(i), b.row(i) + 2);
                out.push_back(b.target(i));
            }
            b.clear();
        });
    };

    DataCollector open(space, IterParam(0, LONG_MAX, 1), cfg);
    EXPECT_FALSE(open.windowFinished(LONG_MAX - 1));
    const ObservedSeries &got = open.observed();

    // References: a history that reserves nothing (its last needed
    // iteration precedes its first), and a collector whose window
    // ends at the last collected iteration.
    ObservedSeries unreserved(got.locBegin(), got.locStep(),
                              got.locCount(), got.iterBegin(),
                              got.iterBegin() - 1);
    DataCollector bounded(space, IterParam(0, rows - 1, 1), cfg);

    std::vector<double> open_pairs, bounded_pairs;
    recordPairs(open, open_pairs);
    recordPairs(bounded, bounded_pairs);
    std::vector<double> row(got.locCount());
    std::size_t reserved = 0;
    for (long i = 0; i < rows; ++i) {
        auto sample = [&](long l) { return field(l, i); };
        open.collect(i, sample);
        bounded.collect(i, sample);
        for (std::size_t k = 0; k < row.size(); ++k)
            row[k] = sample(got.locBegin() +
                            static_cast<long>(k) * got.locStep());
        unreserved.appendRow(row);
        if (i == 0) {
            // The first append takes the reservation, capped.
            reserved = got.reservedBytes();
            EXPECT_LE(reserved, ObservedSeries::reserveCeilingBytes);
            EXPECT_GT(reserved, ObservedSeries::reserveCeilingBytes -
                                    row.size() * sizeof(double));
        }
    }

    ASSERT_EQ(got.iterCount(), static_cast<std::size_t>(rows));
    ASSERT_EQ(unreserved.iterCount(), got.iterCount());
    for (long l = got.locBegin(); l <= got.locEnd(); l += got.locStep())
        EXPECT_EQ(got.seriesAt(l), unreserved.seriesAt(l)) << l;
    EXPECT_EQ(got.memoryBytes(), unreserved.memoryBytes());
    // Rows within the reservation never regrew it.
    EXPECT_EQ(got.reservedBytes(), reserved);
    EXPECT_EQ(open.samplesEmitted(), bounded.samplesEmitted());
    EXPECT_GT(open.samplesEmitted(), 0u);
    EXPECT_EQ(open_pairs, bounded_pairs);
}

TEST(CollectorDeathTest, NonConsecutiveIterationsPanic)
{
    ArConfig cfg;
    DataCollector c(IterParam(0, 0, 1), IterParam(0, 9, 1), cfg);
    c.collect(0, [](long) { return 0.0; });
    EXPECT_DEATH(c.collect(2, [](long) { return 0.0; }),
                 "consecutively");
}

/** Property sweep over order x lag: every emitted pair encodes the
 *  exact (location, iteration) bookkeeping. */
struct OrderLag
{
    std::size_t order;
    long lag;
};

class CollectorPairProperty
    : public ::testing::TestWithParam<OrderLag>
{
};

TEST_P(CollectorPairProperty, TimeAxisPairsAreExact)
{
    const auto [order, lag] = GetParam();
    ArConfig cfg;
    cfg.order = order;
    cfg.lag = lag;
    cfg.axis = LagAxis::Time;
    cfg.batchSize = 100000;

    const IterParam time(20, 60, 1);
    DataCollector c(IterParam(3, 3, 1), time, cfg);
    for (long i = 0; i <= 60; ++i)
        c.collect(i, [&](long l) { return field(l, i); });

    const MiniBatch &b = c.batch();
    ASSERT_GT(b.size(), 0u);
    // Reconstruct each pair's target iteration from its value.
    for (std::size_t s = 0; s < b.size(); ++s) {
        const long t = static_cast<long>(b.target(s) / 1000.0);
        for (std::size_t i = 0; i < order; ++i) {
            EXPECT_DOUBLE_EQ(
                b.row(s)[i],
                field(3, t - static_cast<long>(i + 1) * lag));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CollectorPairProperty,
    ::testing::Values(OrderLag{1, 1}, OrderLag{2, 1}, OrderLag{4, 2},
                      OrderLag{3, 5}, OrderLag{6, 3}));

} // namespace
