/**
 * @file
 * Tests of the 1D spherical Lagrangian solver, including the Sedov
 * self-similarity property r_s(t) ~ t^(2/5).
 */

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>

#include "base/thread_pool.hh"
#include "lagrangian/solver1d.hh"

namespace
{

using namespace tdfe;

Lagrangian1Config
defaultConfig(int zones)
{
    Lagrangian1Config cfg;
    cfg.zones = zones;
    cfg.length = static_cast<double>(zones);
    return cfg;
}

TEST(Lagrangian1D, InitialStateIsAmbient)
{
    const LagrangianSolver1D s(defaultConfig(30));
    EXPECT_EQ(s.zones(), 30);
    EXPECT_DOUBLE_EQ(s.nodeRadius(0), 0.0);
    EXPECT_DOUBLE_EQ(s.nodeRadius(30), 30.0);
    for (int j = 0; j < 30; ++j) {
        EXPECT_NEAR(s.zoneDensity(j), 1.0, 1e-12);
        EXPECT_NEAR(s.zonePressure(j), 1e-6, 1e-12);
    }
    for (int i = 0; i <= 30; ++i)
        EXPECT_DOUBLE_EQ(s.nodeVelocity(i), 0.0);
}

TEST(Lagrangian1D, BlastConservesEnergy)
{
    LagrangianSolver1D s(defaultConfig(40));
    s.depositCenterEnergy(1.0);
    const double e0 = s.totalEnergy();
    for (int i = 0; i < 400; ++i)
        s.advance();
    EXPECT_NEAR(s.totalEnergy() / e0, 1.0, 0.03);
}

TEST(Lagrangian1D, MeshStaysOrderedAndMassIsExact)
{
    LagrangianSolver1D s(defaultConfig(30));
    s.depositCenterEnergy(1.0);
    for (int i = 0; i < 300; ++i)
        s.advance();
    for (int i = 1; i <= 30; ++i)
        EXPECT_GT(s.nodeRadius(i), s.nodeRadius(i - 1));
    // Lagrangian zones carry fixed mass: density * volume sums to
    // the initial mass exactly.
    double mass = 0.0;
    for (int j = 0; j < 30; ++j) {
        const double vol = (std::pow(s.nodeRadius(j + 1), 3) -
                            std::pow(s.nodeRadius(j), 3)) / 3.0;
        mass += s.zoneDensity(j) * vol;
    }
    EXPECT_NEAR(mass, std::pow(30.0, 3) / 3.0, 1e-6);
}

TEST(Lagrangian1D, SedovSimilarityExponent)
{
    LagrangianSolver1D s(defaultConfig(120));
    s.depositCenterEnergy(1.0);

    // Let the blast develop, then sample shock radius vs time.
    std::vector<double> log_t, log_r;
    while (s.shockRadius() < 25.0)
        s.advance();
    while (s.shockRadius() < 90.0) {
        for (int i = 0; i < 30; ++i)
            s.advance();
        log_t.push_back(std::log(s.time()));
        log_r.push_back(std::log(s.shockRadius()));
    }
    ASSERT_GE(log_t.size(), 5u);

    // Least-squares slope of log r vs log t.
    double mt = 0.0, mr = 0.0;
    for (std::size_t i = 0; i < log_t.size(); ++i) {
        mt += log_t[i];
        mr += log_r[i];
    }
    mt /= log_t.size();
    mr /= log_r.size();
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < log_t.size(); ++i) {
        num += (log_t[i] - mt) * (log_r[i] - mr);
        den += (log_t[i] - mt) * (log_t[i] - mt);
    }
    const double slope = num / den;
    EXPECT_NEAR(slope, 0.4, 0.08);
}

TEST(Lagrangian1D, VelocityProbeTracksAttenuation)
{
    LagrangianSolver1D s(defaultConfig(30));
    s.depositCenterEnergy(1.0);
    std::vector<double> peaks(31, 0.0);
    for (int i = 0; i < 1500 && s.shockRadius() < 27.0; ++i) {
        s.advance();
        for (int l = 1; l <= 30; ++l)
            peaks[l] = std::max(peaks[l], s.velocityAt(l));
    }
    // Peak velocity decays with radius past the early zones.
    EXPECT_GT(peaks[3], peaks[10]);
    EXPECT_GT(peaks[10], peaks[20]);
    EXPECT_GT(peaks[20], peaks[26]);
}

TEST(Lagrangian1D, DtIsPositiveAndGrowthLimited)
{
    LagrangianSolver1D s(defaultConfig(30));
    s.depositCenterEnergy(1.0);
    double prev = s.advance();
    for (int i = 0; i < 100; ++i) {
        const double dt = s.advance();
        EXPECT_GT(dt, 0.0);
        EXPECT_LE(dt, prev * s.config().dtGrowth + 1e-15);
        prev = dt;
    }
}

/**
 * Golden comparisons are bitwise on the reproducible default build;
 * under TDFE_FAST_MATH (the native build) the compiler may contract
 * and reassociate the kernels, so only the thread-count equality
 * applies there.
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

/** Hash of every node r/u, zone e/p/q, and the time. */
std::uint64_t
stateHash(const LagrangianSolver1D &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (int i = 0; i <= s.zones(); ++i) {
        fnvMix(h, s.nodeRadius(i));
        fnvMix(h, s.nodeVelocity(i));
    }
    for (int j = 0; j < s.zones(); ++j) {
        fnvMix(h, s.zoneEnergy(j));
        fnvMix(h, s.zonePressure(j));
        fnvMix(h, s.zoneViscosity(j));
    }
    fnvMix(h, s.time());
    return h;
}

TEST(Lagrangian1D, StateIsBitwiseGoldenAcrossThreadCounts)
{
    // 350 zones is the perfbench run (one serial chunk); 5000 spans
    // three pool chunks with a ragged last one. Recorded from the
    // solver that ran its EOS pass twice per step.
    struct Golden
    {
        int zones;
        int steps;
        std::uint64_t hash;
    };
    const Golden golden[] = {{350, 2000, 0xd62cf6110ac468ffull},
                             {5000, 300, 0x20cbb9bec2e653f9ull}};

    const int original = globalThreadCount();
    for (const Golden &g : golden) {
        std::uint64_t first = 0;
        for (const int threads : {1, 2, 4}) {
            setGlobalThreadCount(threads);
            LagrangianSolver1D s(defaultConfig(g.zones));
            s.depositCenterEnergy(1.0);
            for (int i = 0; i < g.steps; ++i)
                s.advance();
            const std::uint64_t h = stateHash(s);
            std::printf("lagrangian %d zones, %d threads: %016" PRIx64
                        "\n",
                        g.zones, threads, h);
            if (threads == 1)
                first = h;
            EXPECT_EQ(h, first)
                << g.zones << " zones drifted at " << threads
                << " threads";
            if (exactGates)
                EXPECT_EQ(h, g.hash) << g.zones << " zones at "
                                     << threads
                                     << " threads left the golden";
        }
    }
    setGlobalThreadCount(original);
}

TEST(Lagrangian1DDeathTest, BadProbePanics)
{
    const LagrangianSolver1D s(defaultConfig(10));
    EXPECT_DEATH(s.velocityAt(11), "out of range");
}

} // namespace
