/**
 * @file
 * Tests of the CloverLeaf-style 2D staggered Lagrangian-remap
 * solver: quiescent stability, conservation, x/y blast symmetry,
 * shock kinematics (r ~ t^(1/2)), positivity, the app wrapper's
 * probe/driver surface, and golden state hashes that pin every bit of
 * the solver across pool thread counts and call orders.
 */

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>
#include <gtest/gtest.h>

#include "base/thread_pool.hh"
#include "clover2d/app.hh"
#include "clover2d/solver.hh"

namespace
{

using namespace tdfe;
using namespace tdfe::clover;

CloverConfig
smallConfig(int n)
{
    CloverConfig cfg;
    cfg.nx = cfg.ny = n;
    return cfg;
}

TEST(Clover2D, UniformStateStaysUniform)
{
    CloverSolver2D solver(smallConfig(12));
    for (int s = 0; s < 25; ++s)
        solver.advance();
    for (int j = 0; j < 12; ++j) {
        for (int i = 0; i < 12; ++i) {
            EXPECT_NEAR(solver.density(i, j), 1.0, 1e-12);
            EXPECT_NEAR(solver.speedAt(i, j), 0.0, 1e-12);
        }
    }
}

TEST(Clover2D, QuiescentTimestepUsesGrowthLimiter)
{
    CloverSolver2D solver(smallConfig(8));
    const double dt0 = solver.calcDt();
    EXPECT_GT(dt0, 0.0);
    // Ambient sound speed is tiny, so the CFL bound is enormous and
    // the growth limiter governs: dt rises by <= dtGrowth per cycle.
    solver.step(dt0);
    const double dt1 = solver.calcDt();
    EXPECT_LE(dt1, dt0 * solver.config().dtGrowth * (1.0 + 1e-12));
}

TEST(Clover2D, MassConservedWhileShockIsInterior)
{
    CloverSolver2D solver(smallConfig(24));
    solver.depositCornerEnergy(2.0);
    const double m0 = solver.totalMass();
    for (int s = 0; s < 60; ++s)
        solver.advance();
    EXPECT_NEAR(solver.totalMass() / m0, 1.0, 1e-6);
}

TEST(Clover2D, TotalEnergyApproximatelyConserved)
{
    CloverSolver2D solver(smallConfig(24));
    solver.depositCornerEnergy(2.0);
    const double e0 = solver.totalEnergy();
    for (int s = 0; s < 60; ++s)
        solver.advance();
    // Staggered schemes do not conserve total energy exactly; the
    // donor-cell remap and PdV truncation trade a few percent.
    EXPECT_NEAR(solver.totalEnergy() / e0, 1.0, 0.08);
}

TEST(Clover2D, CornerBlastIsDiagonallySymmetric)
{
    CloverSolver2D solver(smallConfig(20));
    solver.depositCornerEnergy(2.0);
    for (int s = 0; s < 50; ++s)
        solver.advance();
    // The setup is symmetric under (i,j) -> (j,i); the alternating
    // sweep order breaks the symmetry only at roundoff-to-truncation
    // level, re-symmetrizing every two cycles.
    for (int j = 0; j < 20; ++j) {
        for (int i = 0; i < j; ++i) {
            EXPECT_NEAR(solver.density(i, j), solver.density(j, i),
                        2e-2)
                << "at (" << i << ", " << j << ")";
            EXPECT_NEAR(solver.speedAt(i, j), solver.speedAt(j, i),
                        2e-2);
        }
    }
}

TEST(Clover2D, DensityAndEnergyStayPositive)
{
    CloverSolver2D solver(smallConfig(20));
    solver.depositCornerEnergy(5.0);
    for (int s = 0; s < 120; ++s) {
        solver.advance();
        for (int j = 0; j < 20; ++j) {
            for (int i = 0; i < 20; ++i) {
                ASSERT_GT(solver.density(i, j), 0.0);
                ASSERT_GT(solver.energy(i, j), 0.0);
            }
        }
    }
}

TEST(Clover2D, ShockFrontMovesOutwardMonotonically)
{
    CloverSolver2D solver(smallConfig(32));
    solver.depositCornerEnergy(2.0);

    auto front = [&solver]() {
        // Position of the speed maximum along the x symmetry row —
        // the shock peak, which must march outward.
        double vmax = 0.0;
        int arg = 0;
        for (int i = 0; i < 32; ++i) {
            const double v = solver.speedAt(i, 0);
            if (v > vmax) {
                vmax = v;
                arg = i;
            }
        }
        return arg;
    };

    int prev = 0;
    for (int burst = 0; burst < 400 && prev < 26; ++burst) {
        for (int s = 0; s < 10; ++s)
            solver.advance();
        const int f = front();
        // Allow one cell of discreteness jitter, never a real
        // retreat.
        EXPECT_GE(f, prev - 1) << "front retreated at burst "
                               << burst;
        prev = std::max(prev, f);
    }
    EXPECT_GE(prev, 26);
}

TEST(Clover2D, ShockRadiusFollowsCylindricalSimilarity)
{
    // 2D Sedov: r(t) ~ t^(1/2). Fit the exponent over a window
    // where the shock is well inside the domain.
    CloverSolver2D solver(smallConfig(48));
    solver.depositCornerEnergy(4.0);

    auto front = [&solver]() {
        double vmax = 0.0;
        int arg = 0;
        for (int i = 0; i < 48; ++i) {
            const double v = solver.speedAt(i, 0);
            if (v > vmax) {
                vmax = v;
                arg = i;
            }
        }
        return static_cast<double>(arg) + 0.5;
    };

    std::vector<double> log_t, log_r;
    while (front() < 10.0)
        solver.advance();
    while (front() < 36.0) {
        solver.advance();
        log_t.push_back(std::log(solver.time()));
        log_r.push_back(std::log(front()));
    }
    ASSERT_GT(log_t.size(), 20u);

    // Least-squares slope of log r against log t.
    double st = 0.0, sr = 0.0, stt = 0.0, str = 0.0;
    const double n = static_cast<double>(log_t.size());
    for (std::size_t k = 0; k < log_t.size(); ++k) {
        st += log_t[k];
        sr += log_r[k];
        stt += log_t[k] * log_t[k];
        str += log_t[k] * log_r[k];
    }
    const double slope = (n * str - st * sr) / (n * stt - st * st);
    EXPECT_NEAR(slope, 0.5, 0.12);
}

TEST(Clover2D, PeakVelocityDecaysWithRadius)
{
    // The feature the td library extracts (paper Fig. 5): the peak
    // speed seen at a probe location falls as the location moves
    // outward.
    CloverAppConfig cfg;
    cfg.size = 40;
    cfg.blastEnergy = 2.0;
    CloverField field(cfg);

    std::vector<double> peak(static_cast<std::size_t>(cfg.size), 0.0);
    while (!field.finished()) {
        Timestep(field);
        HydroCycle(field);
        field.gatherProbes();
        for (long loc = 1; loc <= field.probeCount(); ++loc) {
            auto &p = peak[static_cast<std::size_t>(loc - 1)];
            p = std::max(p, field.fieldAt(loc));
        }
    }
    // Compare a few well-separated locations inside the swept region.
    EXPECT_GT(peak[4], peak[12]);
    EXPECT_GT(peak[12], peak[24]);
    EXPECT_GT(peak[24], 0.0);
}

TEST(CloverApp, ProbeMatchesSolverSpeeds)
{
    CloverAppConfig cfg;
    cfg.size = 16;
    CloverField field(cfg);
    for (int s = 0; s < 30; ++s) {
        Timestep(field);
        HydroCycle(field);
    }
    field.gatherProbes();
    for (long loc = 1; loc <= field.probeCount(); ++loc) {
        EXPECT_DOUBLE_EQ(field.fieldAt(loc),
                         field.solver().speedAt(
                             static_cast<int>(loc - 1), 0));
    }
}

TEST(CloverApp, InitialVelocityIsRunningPeak)
{
    CloverAppConfig cfg;
    cfg.size = 16;
    cfg.blastEnergy = 2.0;
    CloverField field(cfg);
    double peak = 0.0;
    for (int s = 0; s < 40; ++s) {
        Timestep(field);
        HydroCycle(field);
        field.gatherProbes();
        peak = std::max(peak, field.fieldAt(1));
        EXPECT_DOUBLE_EQ(field.initialVelocity(), peak);
    }
    EXPECT_GT(peak, 0.0);
}

TEST(CloverApp, FinishesByIterationCap)
{
    CloverAppConfig cfg;
    cfg.size = 12;
    cfg.maxIterations = 10;
    CloverField field(cfg);
    long steps = 0;
    while (!field.finished()) {
        Timestep(field);
        HydroCycle(field);
        ++steps;
        ASSERT_LE(steps, 10);
    }
    EXPECT_EQ(steps, 10);
}

/**
 * Golden comparisons are bitwise on the reproducible default build.
 * Under TDFE_NATIVE (which defines TDFE_FAST_MATH; GCC drops
 * __FAST_MATH__ once -fno-finite-math-only follows -ffast-math) the
 * compiler may contract and reassociate the kernels, so the recorded hashes
 * no longer apply; the thread-count and call-order equalities below
 * still do (they compare a binary with itself).
 */
#if defined(__FAST_MATH__) || defined(TDFE_FAST_MATH)
constexpr bool exactGates = false;
#else
constexpr bool exactGates = true;
#endif

/** FNV-1a over the bytes of @p v, folded into @p h. */
void
fnvMix(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
    }
}

/** Hash of every interior rho, e, p, node vx/vy, and the time. */
std::uint64_t
stateHash(const CloverSolver2D &solver)
{
    const int nx = solver.config().nx;
    const int ny = solver.config().ny;
    std::uint64_t h = 14695981039346656037ull;
    for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
            fnvMix(h, solver.density(i, j));
            fnvMix(h, solver.energy(i, j));
            fnvMix(h, solver.pressure(i, j));
        }
    }
    for (int j = 0; j <= ny; ++j) {
        for (int i = 0; i <= nx; ++i) {
            fnvMix(h, solver.xvel(i, j));
            fnvMix(h, solver.yvel(i, j));
        }
    }
    fnvMix(h, solver.time());
    return h;
}

/** State hash after @p cycles Timestep/HydroCycle pairs. */
std::uint64_t
appHash(int size, int cycles)
{
    CloverAppConfig cfg;
    cfg.size = size;
    CloverField field(cfg);
    for (int s = 0; s < cycles; ++s) {
        Timestep(field);
        HydroCycle(field);
    }
    return stateHash(field.solver());
}

TEST(Clover2D, StateIsBitwiseGoldenAcrossThreadCounts)
{
    // 64 is the perfbench grid; 37 gives ragged last row chunks.
    // Recorded from the solver before its kernels were fused.
    struct Golden
    {
        int size;
        std::uint64_t hash;
    };
    const Golden golden[] = {{64, 0x254985ed4ac115beull},
                              {37, 0x5f084d52e521dbe9ull}};
    constexpr int cycles = 200;

    const int original = globalThreadCount();
    for (const Golden &g : golden) {
        std::uint64_t first = 0;
        for (const int threads : {1, 2, 4}) {
            setGlobalThreadCount(threads);
            const std::uint64_t h = appHash(g.size, cycles);
            std::printf("clover %d^2, %d threads: %016" PRIx64 "\n",
                        g.size, threads, h);
            if (threads == 1)
                first = h;
            EXPECT_EQ(h, first)
                << g.size << "^2 drifted at " << threads << " threads";
            if (exactGates)
                EXPECT_EQ(h, g.hash) << g.size << "^2 at " << threads
                                     << " threads left the golden";
        }
    }
    setGlobalThreadCount(original);
}

TEST(Clover2D, StepWithoutCalcDtRecomputesDerivedFields)
{
    // The reference order recomputes pressure, sound speed and
    // viscosity at the top of every step. step(dt) must match it
    // whether or not calcDt ran first, and a corner deposit after
    // calcDt must not leave stale derived fields behind.
    constexpr int n = 37;
    constexpr int cycles = 60;
    // Both orders take dtInit as their first dt, so they share one
    // golden.
    constexpr std::uint64_t golden = 0x041c04537938fe53ull;

    // Reference: calcDt before every step; record the dts.
    CloverSolver2D ref(smallConfig(n));
    ref.depositCornerEnergy(2.0);
    std::vector<double> dts;
    for (int s = 0; s < cycles; ++s) {
        dts.push_back(ref.calcDt());
        ref.step(dts.back());
    }

    // Caller-supplied dts, no calcDt at all.
    CloverSolver2D own(smallConfig(n));
    own.depositCornerEnergy(2.0);
    for (const double dt : dts)
        own.step(dt);
    EXPECT_EQ(stateHash(own), stateHash(ref));

    // calcDt on the quiescent state, then the deposit, then step.
    CloverSolver2D late(smallConfig(n));
    const double dt0 = late.calcDt();
    late.depositCornerEnergy(2.0);
    late.step(dt0);
    for (int s = 1; s < cycles; ++s)
        late.advance();
    // The same dt0 stepped straight after the deposit.
    CloverSolver2D early(smallConfig(n));
    early.depositCornerEnergy(2.0);
    early.step(dt0);
    for (int s = 1; s < cycles; ++s)
        early.advance();
    EXPECT_EQ(stateHash(late), stateHash(early));

    std::printf("advance %016" PRIx64 ", late deposit %016" PRIx64 "\n",
                stateHash(ref), stateHash(late));
    if (exactGates) {
        EXPECT_EQ(stateHash(ref), golden);
        EXPECT_EQ(stateHash(late), golden);
    }
}

TEST(CloverApp, ShockTimeEstimateIsMonotoneInRadius)
{
    const double t1 = cylindricalShockTime(8.0, 1.0, 10.0);
    const double t2 = cylindricalShockTime(8.0, 1.0, 20.0);
    EXPECT_GT(t2, t1);
    // r ~ t^(1/2) => doubling the radius quadruples the time.
    EXPECT_NEAR(t2 / t1, 4.0, 1e-12);
}

} // namespace
