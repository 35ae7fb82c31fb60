/**
 * @file
 * Tests of the SPH kernel (normalization, support, gradient) and
 * the cell-list neighbour search.
 */

#include <atomic>
#include <cmath>
#include <gtest/gtest.h>
#include <set>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "sph/cell_list.hh"
#include "sph/kernel.hh"

namespace
{

using namespace tdfe;

TEST(Kernel, NormalizationIntegratesToOne)
{
    // Midpoint cubature of W over its support.
    const double h = 0.7;
    const double cell = 0.05;
    double acc = 0.0;
    for (double x = -2 * h; x < 2 * h; x += cell)
        for (double y = -2 * h; y < 2 * h; y += cell)
            for (double z = -2 * h; z < 2 * h; z += cell) {
                const double r = std::sqrt(x * x + y * y + z * z);
                acc += CubicSplineKernel::w(r, h) * cell * cell * cell;
            }
    EXPECT_NEAR(acc, 1.0, 0.01);
}

TEST(Kernel, CompactSupportAndPositivity)
{
    const double h = 1.0;
    EXPECT_GT(CubicSplineKernel::w(0.0, h), 0.0);
    EXPECT_GT(CubicSplineKernel::w(0.99 * h, h), 0.0);
    EXPECT_GT(CubicSplineKernel::w(1.5 * h, h), 0.0);
    EXPECT_DOUBLE_EQ(CubicSplineKernel::w(2.0 * h, h), 0.0);
    EXPECT_DOUBLE_EQ(CubicSplineKernel::w(3.0 * h, h), 0.0);
    EXPECT_DOUBLE_EQ(CubicSplineKernel::support(h), 2.0);
}

TEST(Kernel, MonotoneDecreasing)
{
    const double h = 1.0;
    double prev = CubicSplineKernel::w(0.0, h);
    for (double r = 0.05; r < 2.0; r += 0.05) {
        const double w = CubicSplineKernel::w(r, h);
        EXPECT_LE(w, prev + 1e-12);
        prev = w;
    }
}

TEST(Kernel, GradFactorMatchesFiniteDifference)
{
    const double h = 0.8;
    for (double r : {0.2, 0.5, 0.9, 1.3, 1.8}) {
        const double eps = 1e-6;
        const double dw = (CubicSplineKernel::w(r + eps, h) -
                           CubicSplineKernel::w(r - eps, h)) /
                          (2 * eps);
        // gradFactor = (dW/dr)/r.
        EXPECT_NEAR(CubicSplineKernel::gradFactor(r, h), dw / r,
                    1e-4 * std::abs(dw / r) + 1e-9);
    }
}

TEST(Kernel, GradFactorFiniteAtOrigin)
{
    EXPECT_TRUE(std::isfinite(CubicSplineKernel::gradFactor(0.0,
                                                            1.0)));
    EXPECT_LT(CubicSplineKernel::gradFactor(0.0, 1.0), 0.0);
}

TEST(CellList, CandidatesContainAllTrueNeighbors)
{
    Rng rng(77);
    const std::size_t n = 300;
    std::vector<double> x(n), y(n), z(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = rng.uniform(-1.0, 1.0);
        y[i] = rng.uniform(-1.0, 1.0);
        z[i] = rng.uniform(-1.0, 1.0);
    }
    const double support = 0.3;
    CellList cells;
    cells.build(x.data(), y.data(), z.data(), n, support);
    EXPECT_GT(cells.occupiedCells(), 10u);

    for (std::size_t i = 0; i < n; i += 17) {
        std::set<std::size_t> candidates;
        cells.forEachCandidate(x[i], y[i], z[i],
                               [&](std::size_t j) {
                                   candidates.insert(j);
                               });
        for (std::size_t j = 0; j < n; ++j) {
            const double r2 = (x[i] - x[j]) * (x[i] - x[j]) +
                              (y[i] - y[j]) * (y[i] - y[j]) +
                              (z[i] - z[j]) * (z[i] - z[j]);
            if (r2 < support * support)
                EXPECT_TRUE(candidates.count(j))
                    << "missing neighbor " << j << " of " << i;
        }
    }
}

TEST(CellList, BlockPartitionCoversEveryParticleOnce)
{
    Rng rng(78);
    const std::size_t n = 200;
    std::vector<double> x(n), y(n), z(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = rng.uniform(-2.0, 2.0);
        y[i] = rng.uniform(-2.0, 2.0);
        z[i] = rng.uniform(-2.0, 2.0);
    }
    CellList cells;
    cells.build(x.data(), y.data(), z.data(), n, 0.5);

    for (const int threads : {1, 4}) {
        setGlobalThreadCount(threads);
        for (const int nranks : {1, 2, 3, 7}) {
            // Cells partition the particles, so each slot has one
            // writer even when tasks run concurrently.
            std::vector<int> seen(n, 0);
            for (int r = 0; r < nranks; ++r) {
                cells.forEachBlockParallel(
                    r, nranks, 1,
                    [&](const std::vector<std::size_t> &members,
                        const std::vector<std::size_t> &cand) {
                        EXPECT_GE(cand.size(), members.size());
                        for (std::size_t m : members)
                            ++seen[m];
                    });
            }
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(seen[i], 1)
                    << "threads=" << threads << " nranks=" << nranks;
        }
    }
    setGlobalThreadCount(1);
}

TEST(CellList, BlockCandidatesIncludeSelfCell)
{
    std::vector<double> x{0.0, 0.01}, y{0.0, 0.0}, z{0.0, 0.0};
    CellList cells;
    cells.build(x.data(), y.data(), z.data(), 2, 1.0);
    for (const int threads : {1, 4}) {
        setGlobalThreadCount(threads);
        std::atomic<bool> found_pair{false};
        cells.forEachBlockParallel(
            0, 1, 1,
            [&](const std::vector<std::size_t> &members,
                const std::vector<std::size_t> &cand) {
                if (members.size() == 2 && cand.size() == 2)
                    found_pair = true;
            });
        EXPECT_TRUE(found_pair) << "threads=" << threads;
    }
    setGlobalThreadCount(1);
}

} // namespace
