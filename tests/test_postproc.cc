/**
 * @file
 * Tests of the post-analysis baseline: trace store + file I/O,
 * offline OLS AR fitting, and ground-truth extraction.
 */

#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>

#include "postproc/ground_truth.hh"
#include "postproc/offline_fit.hh"
#include "postproc/trace.hh"

namespace
{

using namespace tdfe;

FullTrace
syntheticTrace()
{
    // V(l, t) = (t + 1) * 0.8^(l-1) over 6 locations, 40 iters.
    FullTrace trace(6);
    for (int t = 0; t < 40; ++t) {
        std::vector<double> row(6);
        for (int l = 1; l <= 6; ++l)
            row[l - 1] = (t + 1.0) * std::pow(0.8, l - 1);
        trace.appendRow(row);
    }
    return trace;
}

TEST(Trace, AccessorsAndPeaks)
{
    const FullTrace trace = syntheticTrace();
    EXPECT_EQ(trace.locCount(), 6u);
    EXPECT_EQ(trace.iterCount(), 40u);
    EXPECT_DOUBLE_EQ(trace.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(trace.at(39, 0), 40.0);
    const auto series = trace.seriesAt(1);
    EXPECT_DOUBLE_EQ(series[9], 10.0 * 0.8);
    const auto peaks = trace.peakProfile();
    EXPECT_DOUBLE_EQ(peaks[0], 40.0);
    EXPECT_NEAR(peaks[5], 40.0 * std::pow(0.8, 5), 1e-12);
    EXPECT_EQ(trace.memoryBytes(), 240 * sizeof(double));
}

TEST(Trace, DumpLoadRoundTrip)
{
    const FullTrace trace = syntheticTrace();
    const std::string path = ::testing::TempDir() + "trace_rt.bin";
    const std::size_t bytes = trace.dump(path);
    // Serial-routed format: tag (8-byte length + "TDFETRACE") +
    // version/nLocs/iters u64s + length-prefixed payload vector.
    EXPECT_EQ(bytes,
              (8 + 9) + 3 * 8 + (8 + 240 * sizeof(double)));

    const FullTrace loaded = FullTrace::load(path);
    ASSERT_EQ(loaded.locCount(), trace.locCount());
    ASSERT_EQ(loaded.iterCount(), trace.iterCount());
    for (std::size_t t = 0; t < trace.iterCount(); ++t)
        for (std::size_t l = 0; l < trace.locCount(); ++l)
            EXPECT_DOUBLE_EQ(loaded.at(t, l), trace.at(t, l));
    std::remove(path.c_str());
}

TEST(TraceDeathTest, TruncatedOrOverlongDumpIsFatal)
{
    // 4 locations x 10 iterations, location 0 holds t + 1.
    FullTrace trace(4);
    for (int t = 0; t < 10; ++t)
        trace.appendRow({t + 1.0, 0.5, 0.25, 0.125});
    const std::string path = ::testing::TempDir() + "trace_cut.bin";
    const std::size_t size = trace.dump(path);
    std::string bytes(size, '\0');
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fread(bytes.data(), 1, size, f), size);
        std::fclose(f);
    }
    EXPECT_DOUBLE_EQ(FullTrace::load(path).at(9, 0), 10.0);

    // Layout: tag 8 + 9 bytes, header 3 x 8, payload 8 + 40 x 8.
    const std::string cuts[] = {
        bytes.substr(0, 4),          // inside the tag's length
        bytes.substr(0, 12),         // inside the tag's bytes
        bytes.substr(0, 17 + 12),    // inside the header
        bytes.substr(0, size - 100), // inside the payload
        bytes.substr(0, size - 1),   // one byte short
        bytes + '\0',                // one byte extra
    };
    for (const std::string &cut : cuts) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(cut.data(), 1, cut.size(), f);
        std::fclose(f);
        EXPECT_DEATH(FullTrace::load(path), "corrupt TDFETRACE dump")
            << cut.size() << " of " << size << " bytes";
    }
    std::remove(path.c_str());
}

// The dump fits the stream's buffer, so nothing reaches the device
// before the file is closed: only the close reports the full disk.
TEST(TraceDeathTest, DumpToFullDeviceIsFatal)
{
    std::FILE *probe = std::fopen("/dev/full", "wb");
    if (!probe)
        GTEST_SKIP() << "/dev/full is not available";
    std::fclose(probe);
    const FullTrace trace = syntheticTrace();
    EXPECT_DEATH(trace.dump("/dev/full"), "trace write failed");
}

TEST(GroundTruth, BreakpointRadiusFromPeaks)
{
    // Peaks: 40 * 0.8^(l-1); threshold 20 -> l <= 4.1 -> radius 4.
    const FullTrace trace = syntheticTrace();
    EXPECT_EQ(truthBreakpointRadius(trace, 20.0), 4);
    // Never below threshold inside the domain -> full radius.
    EXPECT_EQ(truthBreakpointRadius(trace, 1e-9), 6);
    // Everything below threshold -> innermost location.
    EXPECT_EQ(truthBreakpointRadius(trace, 1e9), 1);
}

TEST(GroundTruth, DelayTimeFindsKink)
{
    std::vector<double> series;
    for (int i = 0; i < 100; ++i)
        series.push_back(i < 42 ? 0.5 * i : 21.0);
    EXPECT_NEAR(truthDelayTime(series, 1.0, 1), 42.0, 1.5);
    // Scaled time axis.
    EXPECT_NEAR(truthDelayTime(series, 0.5, 1), 21.0, 0.8);
}

TEST(OfflineFit, RecoversExactSpatialAr)
{
    // V(l, t) = 0.8 V(l-1, t-1) * (t/(t-1))-ish: use the exact
    // relation V(l,t) = 0.8^(l-1) (t+1); then
    // V(l,t) = 0.8 * V(l-1, t-1) * (t+1)/t is not linear; instead
    // fit order 2 on (l-1, l-2) at lag 1 and check the residual is
    // small and one-step evaluation tracks the trace.
    const FullTrace trace = syntheticTrace();
    ArConfig cfg;
    cfg.order = 2;
    cfg.lag = 1;
    cfg.axis = LagAxis::Space;

    const OfflineArFit fit = fitOfflineAr(trace, cfg, 3, 6, 5, 39);
    EXPECT_GT(fit.rows, 50u);
    EXPECT_LT(fit.trainRmse, 0.2);

    std::vector<double> pred, actual;
    evalOfflineAr(trace, cfg, fit, 4, pred, actual);
    ASSERT_GT(pred.size(), 30u);
    for (std::size_t i = 5; i < pred.size(); ++i)
        EXPECT_NEAR(pred[i], actual[i], 0.05 * actual[i] + 0.2);
}

TEST(OfflineFit, TimeAxisExactRecurrence)
{
    // V(t) = 1.02 V(t-1) exactly (geometric growth).
    FullTrace trace(1);
    double v = 1.0;
    for (int t = 0; t < 60; ++t) {
        trace.appendRow({v});
        v *= 1.02;
    }
    ArConfig cfg;
    cfg.order = 1;
    cfg.lag = 1;
    cfg.axis = LagAxis::Time;
    const OfflineArFit fit = fitOfflineAr(trace, cfg, 1, 1, 1, 59);
    EXPECT_NEAR(fit.coeffs[1], 1.02, 1e-6);
    EXPECT_NEAR(fit.coeffs[0], 0.0, 1e-6);
}

TEST(TraceDeathTest, BadRowsPanic)
{
    FullTrace trace(3);
    EXPECT_DEATH(trace.appendRow({1.0}), "row size");
    trace.appendRow({1.0, 2.0, 3.0});
    EXPECT_DEATH(trace.at(1, 0), "out of range");
}

} // namespace
