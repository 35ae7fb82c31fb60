#include "lagrangian/solver1d.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/math_util.hh"
#include "base/thread_pool.hh"

namespace tdfe
{

namespace
{

/** Spherical shell volume between radii a < b (per 4*pi/3 units). */
double
shellVolume(double a, double b)
{
    return (cube(b) - cube(a)) / 3.0;
}

/**
 * Zones per parallel chunk. 1D runs are small, so the grain is
 * large: typical configurations stay on the serial fast path and
 * only production-scale zone counts fan out.
 */
constexpr std::size_t zoneGrain = 2048;

} // namespace

LagrangianSolver1D::LagrangianSolver1D(const Lagrangian1Config &config)
    : cfg(config), eos(config.gamma)
{
    TDFE_ASSERT(cfg.zones >= 4, "need at least 4 zones");
    const int n = cfg.zones;
    const double dr = cfg.length / n;

    r.resize(n + 1);
    u.assign(n + 1, 0.0);
    for (int i = 0; i <= n; ++i)
        r[i] = dr * i;

    m.resize(n);
    rho.assign(n, cfg.rho0);
    e.resize(n);
    p.resize(n);
    q.assign(n, 0.0);
    vol.resize(n);
    for (int j = 0; j < n; ++j) {
        vol[j] = shellVolume(r[j], r[j + 1]);
        m[j] = cfg.rho0 * vol[j];
        e[j] = eos.energy(cfg.rho0, cfg.p0);
        p[j] = cfg.p0;
    }
}

void
LagrangianSolver1D::depositCenterEnergy(double energy)
{
    TDFE_ASSERT(energy > 0.0, "blast energy must be positive");
    e[0] += energy / m[0];
}

void
LagrangianSolver1D::updateEosAndViscosity()
{
    parallelForRange(
        static_cast<std::size_t>(cfg.zones), zoneGrain,
        [&](std::size_t b, std::size_t e_) {
            for (std::size_t jz = b; jz < e_; ++jz) {
                const int j = static_cast<int>(jz);
                p[j] = eos.pressure(rho[j], std::max(e[j], 0.0));
                const double du = u[j + 1] - u[j];
                if (du < 0.0) {
                    const double cs = eos.soundSpeed(rho[j], p[j]);
                    q[j] = cfg.q1 * cfg.q1 * rho[j] * du * du +
                           cfg.q2 * rho[j] * cs * std::abs(du);
                } else {
                    q[j] = 0.0;
                }
            }
        });
}

double
LagrangianSolver1D::advance()
{
    updateEosAndViscosity();
    const int n = cfg.zones;

    // Stable timestep from the fresh p + q.
    double dt = parallelReduce(
        static_cast<std::size_t>(n), zoneGrain, 1e30,
        [&](std::size_t b, std::size_t e_) {
            double best = 1e30;
            for (std::size_t jz = b; jz < e_; ++jz) {
                const int j = static_cast<int>(jz);
                const double dr = r[j + 1] - r[j];
                const double cs =
                    eos.soundSpeed(rho[j], p[j] + q[j]);
                const double du = std::abs(u[j + 1] - u[j]);
                best = std::min(best,
                                cfg.cfl * dr / (cs + du + 1e-30));
            }
            return best;
        },
        [](double a, double b) { return std::min(a, b); });
    if (lastDt > 0.0)
        dt = std::min(dt, lastDt * cfg.dtGrowth);
    lastDt = dt;

    // Nodal accelerations from the pressure (+q) jump across the
    // node, weighted by the node area; the centre node is pinned by
    // symmetry, the outer node feels the ambient pressure.
    parallelForRange(
        static_cast<std::size_t>(n), zoneGrain,
        [&](std::size_t b, std::size_t e_) {
            for (std::size_t iz = b; iz < e_; ++iz) {
                const int i = static_cast<int>(iz) + 1;
                const double area = sqr(r[i]);
                const double p_in = p[i - 1] + q[i - 1];
                const double p_out = i < n ? p[i] + q[i] : cfg.p0;
                const double m_node =
                    i < n ? 0.5 * (m[i - 1] + m[i]) : 0.5 * m[i - 1];
                u[i] += dt * area * (p_in - p_out) / m_node;
            }
        });
    u[0] = 0.0;

    // Move nodes; volumes, densities, and the internal-energy update
    // follow from the motion (pdV work with the pre-step p+q).
    for (int i = 1; i <= n; ++i)
        r[i] += dt * u[i];
    for (int i = 1; i <= n; ++i) {
        TDFE_ASSERT(r[i] > r[i - 1],
                    "mesh tangling at node ", i, " (t=", t, ")");
    }

    parallelForRange(
        static_cast<std::size_t>(n), zoneGrain,
        [&](std::size_t b, std::size_t e_) {
            for (std::size_t jz = b; jz < e_; ++jz) {
                const int j = static_cast<int>(jz);
                const double v_new = shellVolume(r[j], r[j + 1]);
                const double dv_over_m = (v_new - vol[j]) / m[j];
                const double rho_new = m[j] / v_new;
                // Semi-implicit pdV work with the time-centred
                // pressure 0.5*(p_old + p_new). For a gamma-law gas
                // p_new is linear in e_new, so the update solves in
                // closed form; this keeps total energy conserved to
                // O(dt^2) instead of O(dt).
                const double gm1 = cfg.gamma - 1.0;
                const double numer =
                    e[j] - (0.5 * p[j] + q[j]) * dv_over_m;
                const double denom =
                    1.0 + 0.5 * gm1 * rho_new * dv_over_m;
                e[j] = numer / denom;
                if (e[j] < 0.0)
                    e[j] = 0.0;
                vol[j] = v_new;
                rho[j] = rho_new;
            }
        });

    t += dt;
    ++cycleCount;
    return dt;
}

double
LagrangianSolver1D::velocityAt(long loc) const
{
    TDFE_ASSERT(loc >= 0 && loc <= cfg.zones,
                "probe location ", loc, " out of range");
    return std::abs(u[static_cast<std::size_t>(loc)]);
}

double
LagrangianSolver1D::shockRadius() const
{
    int best = 0;
    double best_u = 0.0;
    for (int i = 0; i <= cfg.zones; ++i) {
        if (std::abs(u[i]) > best_u) {
            best_u = std::abs(u[i]);
            best = i;
        }
    }
    return r[best];
}

double
LagrangianSolver1D::totalEnergy() const
{
    double acc = 0.0;
    for (int j = 0; j < cfg.zones; ++j) {
        const double u_avg = 0.5 * (u[j] + u[j + 1]);
        acc += m[j] * (e[j] + 0.5 * sqr(u_avg));
    }
    return acc;
}

} // namespace tdfe
