#include "clover2d/solver.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace tdfe
{

namespace clover
{

namespace
{

/** Smallest admissible density / specific energy (vacuum guard). */
constexpr double fieldFloor = 1e-12;

/**
 * Rows per parallel chunk. Fixed (never derived from the thread
 * count) so the dt reduction's chunking — and therefore its result —
 * is identical for every pool size.
 */
constexpr std::size_t rowGrain = 4;

/** Cells per chunk for flat (whole-array) loops. */
constexpr std::size_t flatGrain = 4096;

/**
 * Run @p fn(j) for j in [j_begin, j_end) on the global pool. Rows
 * are the parallel unit everywhere in this solver: every kernel
 * writes only to its own row of the cell or node arrays.
 */
template <typename Fn>
void
forRows(int j_begin, int j_end, Fn &&fn)
{
    const std::size_t n =
        j_end > j_begin ? static_cast<std::size_t>(j_end - j_begin)
                        : 0;
    parallelForRange(n, rowGrain, [&](std::size_t b, std::size_t e) {
        for (std::size_t r = b; r < e; ++r)
            fn(j_begin + static_cast<int>(r));
    });
}

/**
 * Mass of node @p i's control volume: a quarter of each surrounding
 * cell's mass, from the south (@p rho_s, @p vol_s) and north
 * (@p rho_n, @p vol_n) cell rows.
 */
inline double
nodeMass(const double *rho_s, const double *rho_n,
         const double *vol_s, const double *vol_n, int i)
{
    return 0.25 * (rho_s[i - 1] * vol_s[i - 1] + rho_s[i] * vol_s[i] +
                   rho_n[i - 1] * vol_n[i - 1] + rho_n[i] * vol_n[i]);
}

} // namespace

CloverSolver2D::CloverSolver2D(const CloverConfig &config)
    : cfg(config), eos_(config.gamma)
{
    TDFE_ASSERT(cfg.nx > 0 && cfg.ny > 0,
                "grid extents must be positive");
    TDFE_ASSERT(cfg.dx > 0.0 && cfg.dy > 0.0,
                "cell widths must be positive");
    TDFE_ASSERT(cfg.cfl > 0.0 && cfg.cfl < 1.0,
                "CFL must be in (0, 1)");

    pcx = cfg.nx + 2 * ghosts;
    pcy = cfg.ny + 2 * ghosts;
    pnx = pcx + 1;
    pny = pcy + 1;

    const std::size_t nc = static_cast<std::size_t>(pcx) * pcy;
    const std::size_t nn = static_cast<std::size_t>(pnx) * pny;

    rho0_.assign(nc, cfg.rho0);
    rho1_.assign(nc, cfg.rho0);
    const double e_ambient = eos_.energy(cfg.rho0, cfg.p0);
    e0_.assign(nc, e_ambient);
    e1_.assign(nc, e_ambient);
    p_.assign(nc, cfg.p0);
    q_.assign(nc, 0.0);
    cs_.assign(nc, eos_.soundSpeed(cfg.rho0, cfg.p0));
    preVol.assign(nc, cfg.dx * cfg.dy);
    postVol.assign(nc, cfg.dx * cfg.dy);

    vx_.assign(nn, 0.0);
    vy_.assign(nn, 0.0);
    vxBar.assign(nn, 0.0);
    vyBar.assign(nn, 0.0);
    nodeMass0.assign(nn, 0.0);
    volFluxX.assign(nn, 0.0);
    volFluxY.assign(nn, 0.0);
    massFluxX.assign(nn, 0.0);
    massFluxY.assign(nn, 0.0);
    eFlux.assign(nn, 0.0);
}

std::size_t
CloverSolver2D::cid(int i, int j) const
{
    return static_cast<std::size_t>(j) * pcx +
           static_cast<std::size_t>(i);
}

std::size_t
CloverSolver2D::nid(int i, int j) const
{
    return static_cast<std::size_t>(j) * pnx +
           static_cast<std::size_t>(i);
}

void
CloverSolver2D::depositCornerEnergy(double energy)
{
    TDFE_ASSERT(energy > 0.0, "blast energy must be positive");
    const double cell_mass = cfg.rho0 * cfg.dx * cfg.dy;
    e0_[cid(ghosts, ghosts)] = energy / cell_mass;
    e1_[cid(ghosts, ghosts)] = energy / cell_mass;
    derivedCurrent = false;
}

double
CloverSolver2D::density(int i, int j) const
{
    return rho0_[cid(i + ghosts, j + ghosts)];
}

double
CloverSolver2D::energy(int i, int j) const
{
    return e0_[cid(i + ghosts, j + ghosts)];
}

double
CloverSolver2D::pressure(int i, int j) const
{
    const std::size_t c = cid(i + ghosts, j + ghosts);
    return eos_.pressure(rho0_[c], e0_[c]);
}

double
CloverSolver2D::xvel(int i, int j) const
{
    return vx_[nid(i + ghosts, j + ghosts)];
}

double
CloverSolver2D::yvel(int i, int j) const
{
    return vy_[nid(i + ghosts, j + ghosts)];
}

double
CloverSolver2D::speedAt(int i, int j) const
{
    const int gi = i + ghosts;
    const int gj = j + ghosts;
    const double u = 0.25 * (vx_[nid(gi, gj)] + vx_[nid(gi + 1, gj)] +
                             vx_[nid(gi, gj + 1)] +
                             vx_[nid(gi + 1, gj + 1)]);
    const double v = 0.25 * (vy_[nid(gi, gj)] + vy_[nid(gi + 1, gj)] +
                             vy_[nid(gi, gj + 1)] +
                             vy_[nid(gi + 1, gj + 1)]);
    return std::sqrt(u * u + v * v);
}

double
CloverSolver2D::totalMass() const
{
    double sum = 0.0;
    for (int j = ghosts; j < ghosts + cfg.ny; ++j) {
        const double *__restrict row = rho0_.data() + cid(0, j);
        for (int i = ghosts; i < ghosts + cfg.nx; ++i)
            sum += row[i];
    }
    return sum * cfg.dx * cfg.dy;
}

double
CloverSolver2D::totalEnergy() const
{
    double sum = 0.0;
    for (int j = 0; j < cfg.ny; ++j) {
        const int gj = j + ghosts;
        const double *__restrict rr = rho0_.data() + cid(0, gj);
        const double *__restrict er = e0_.data() + cid(0, gj);
        const double *__restrict vx0 = vx_.data() + nid(0, gj);
        const double *__restrict vx1 = vx_.data() + nid(0, gj + 1);
        const double *__restrict vy0 = vy_.data() + nid(0, gj);
        const double *__restrict vy1 = vy_.data() + nid(0, gj + 1);
        for (int i = 0; i < cfg.nx; ++i) {
            const int gi = i + ghosts;
            // Same corner-average order as speedAt().
            const double u = 0.25 * (vx0[gi] + vx0[gi + 1] +
                                     vx1[gi] + vx1[gi + 1]);
            const double v = 0.25 * (vy0[gi] + vy0[gi + 1] +
                                     vy1[gi] + vy1[gi + 1]);
            const double speed = std::sqrt(u * u + v * v);
            sum += rr[gi] * (er[gi] + 0.5 * speed * speed);
        }
    }
    return sum * cfg.dx * cfg.dy;
}

namespace
{

/**
 * Mirror a ghost-padded cell field: reflective on the low edges
 * (blast symmetry planes), zero-gradient outflow on the high edges.
 */
void
haloFillCell(std::vector<double> &f, int pcx, int pcy, int nx, int ny,
             int g)
{
    // X direction, every row (ghost rows fixed by the y pass below).
    for (int j = 0; j < pcy; ++j) {
        double *row = f.data() + static_cast<std::size_t>(j) * pcx;
        for (int k = 0; k < g; ++k) {
            row[g - 1 - k] = row[g + k];
            row[g + nx + k] = row[g + nx - 1];
        }
    }
    // Y direction, whole rows at a time.
    for (int k = 0; k < g; ++k) {
        const std::size_t lo_dst =
            static_cast<std::size_t>(g - 1 - k) * pcx;
        const std::size_t lo_src = static_cast<std::size_t>(g + k) * pcx;
        const std::size_t hi_dst =
            static_cast<std::size_t>(g + ny + k) * pcx;
        const std::size_t hi_src =
            static_cast<std::size_t>(g + ny - 1) * pcx;
        for (int i = 0; i < pcx; ++i) {
            f[lo_dst + i] = f[lo_src + i];
            f[hi_dst + i] = f[hi_src + i];
        }
    }
}

} // namespace

void
CloverSolver2D::updateHalo()
{
    haloFillCell(rho0_, pcx, pcy, cfg.nx, cfg.ny, ghosts);
    haloFillCell(e0_, pcx, pcy, cfg.nx, cfg.ny, ghosts);
}

double
CloverSolver2D::deriveFields()
{
    updateHalo();

    // One pass over every padded row. Each row computes the EOS
    // across its whole width (ghosts included), then, on interior
    // rows, its viscosity and CFL minimum, which read only this
    // row's derived values. min is exact, so neither the chunking
    // nor the thread count can change the result.
    const int g = ghosts;
    const double dt = parallelReduce(
        static_cast<std::size_t>(pcy), rowGrain,
        std::numeric_limits<double>::infinity(),
        [&](std::size_t rb, std::size_t re) {
            double best = std::numeric_limits<double>::infinity();
            for (std::size_t r = rb; r < re; ++r) {
                const int j = static_cast<int>(r);
                const double *rr = rho0_.data() + cid(0, j);
                const double *er = e0_.data() + cid(0, j);
                double *pr = p_.data() + cid(0, j);
                double *cr = cs_.data() + cid(0, j);
                for (int i = 0; i < pcx; ++i) {
                    pr[i] = eos_.pressure(rr[i], er[i]);
                    cr[i] = eos_.soundSpeed(rr[i], pr[i]);
                }
                if (j < g || j >= g + cfg.ny)
                    continue;

                // Flattened row bases: nodes of rows j/j+1.
                double *qr = q_.data() + cid(0, j);
                const double *vx0 = vx_.data() + nid(0, j);
                const double *vx1 = vx_.data() + nid(0, j + 1);
                const double *vy0 = vy_.data() + nid(0, j);
                const double *vy1 = vy_.data() + nid(0, j + 1);
                for (int i = g; i < g + cfg.nx; ++i) {
                    // Velocity jumps across the cell (face-averaged).
                    const double du = 0.5 * (vx0[i + 1] + vx1[i + 1] -
                                             vx0[i] - vx1[i]);
                    const double dv = 0.5 * (vy1[i] + vy1[i + 1] -
                                             vy0[i] - vy0[i + 1]);
                    const double jump = du + dv;
                    if (jump < 0.0) {
                        qr[i] = rr[i] *
                                (cfg.cvisc2 * jump * jump +
                                 cfg.cvisc1 * cr[i] * std::fabs(jump));
                    } else {
                        qr[i] = 0.0;
                    }

                    const double cs2 =
                        cr[i] * cr[i] + 2.0 * qr[i] / rr[i];
                    const double cs_eff = std::sqrt(cs2);
                    const double u = 0.25 *
                        (std::fabs(vx0[i]) + std::fabs(vx0[i + 1]) +
                         std::fabs(vx1[i]) + std::fabs(vx1[i + 1]));
                    const double v = 0.25 *
                        (std::fabs(vy0[i]) + std::fabs(vy0[i + 1]) +
                         std::fabs(vy1[i]) + std::fabs(vy1[i + 1]));
                    const double dt_x = cfg.dx / (cs_eff + u + 1e-30);
                    const double dt_y = cfg.dy / (cs_eff + v + 1e-30);
                    best = std::min(
                        best, cfg.cfl * std::min(dt_x, dt_y));
                }
            }
            return best;
        },
        [](double a, double b) { return std::min(a, b); });
    haloFillCell(q_, pcx, pcy, cfg.nx, cfg.ny, ghosts);
    derivedCurrent = true;
    return dt;
}

double
CloverSolver2D::calcDt()
{
    const double dt0 =
        lastDt > 0.0 ? lastDt * cfg.dtGrowth : cfg.dtInit;
    const double dt = std::min(dt0, deriveFields());
    TDFE_ASSERT(dt > 0.0 && std::isfinite(dt),
                "clover2d produced a non-positive timestep");
    return dt;
}

void
CloverSolver2D::applyVelocityBc()
{
    const int g = ghosts;
    const int inx = g + cfg.nx;
    const int iny = g + cfg.ny;

    // Low-x symmetry plane: no normal flow, mirrored ghosts. One
    // row-base pointer pair per node row instead of nid() per cell.
    for (int j = 0; j < pny; ++j) {
        double *__restrict vxr = vx_.data() + nid(0, j);
        double *__restrict vyr = vy_.data() + nid(0, j);
        vxr[g] = 0.0;
        for (int k = 1; k <= g; ++k) {
            vxr[g - k] = -vxr[g + k];
            vyr[g - k] = vyr[g + k];
        }
        for (int k = 1; k <= g; ++k) {
            vxr[inx + k] = vxr[inx];
            vyr[inx + k] = vyr[inx];
        }
    }
    // Low-y symmetry plane and high-y outflow: whole node rows at a
    // time (stride-1 copies between row pairs).
    {
        double *__restrict vy_wall = vy_.data() + nid(0, g);
        for (int i = 0; i < pnx; ++i)
            vy_wall[i] = 0.0;
    }
    for (int k = 1; k <= g; ++k) {
        double *__restrict vy_dst = vy_.data() + nid(0, g - k);
        double *__restrict vx_dst = vx_.data() + nid(0, g - k);
        const double *__restrict vy_src = vy_.data() + nid(0, g + k);
        const double *__restrict vx_src = vx_.data() + nid(0, g + k);
        for (int i = 0; i < pnx; ++i) {
            vy_dst[i] = -vy_src[i];
            vx_dst[i] = vx_src[i];
        }
    }
    for (int k = 1; k <= g; ++k) {
        double *__restrict vy_dst = vy_.data() + nid(0, iny + k);
        double *__restrict vx_dst = vx_.data() + nid(0, iny + k);
        const double *__restrict vy_src = vy_.data() + nid(0, iny);
        const double *__restrict vx_src = vx_.data() + nid(0, iny);
        for (int i = 0; i < pnx; ++i) {
            vy_dst[i] = vy_src[i];
            vx_dst[i] = vx_src[i];
        }
    }
}

void
CloverSolver2D::accelerate(double dt)
{
    // Time-centering: remember the pre-acceleration velocities, the
    // PdV/flux stage uses the average of old and new.
    vxBar = vx_;
    vyBar = vy_;

    const double inv_dx = 1.0 / cfg.dx;
    const double inv_dy = 1.0 / cfg.dy;
    forRows(ghosts, ghosts + cfg.ny + 1, [&](int j) {
        double *vxr = vx_.data() + nid(0, j);
        double *vyr = vy_.data() + nid(0, j);
        const double *rho_s = rho0_.data() + cid(0, j - 1);
        const double *rho_n = rho0_.data() + cid(0, j);
        const double *p_s = p_.data() + cid(0, j - 1);
        const double *p_n = p_.data() + cid(0, j);
        const double *q_s = q_.data() + cid(0, j - 1);
        const double *q_n = q_.data() + cid(0, j);
        for (int i = ghosts; i <= ghosts + cfg.nx; ++i) {
            const double pq_sw = p_s[i - 1] + q_s[i - 1];
            const double pq_se = p_s[i] + q_s[i];
            const double pq_nw = p_n[i - 1] + q_n[i - 1];
            const double pq_ne = p_n[i] + q_n[i];
            const double rho_node =
                0.25 * (rho_s[i - 1] + rho_s[i] + rho_n[i - 1] +
                        rho_n[i]);
            const double dpqdx =
                0.5 * ((pq_se + pq_ne) - (pq_sw + pq_nw)) * inv_dx;
            const double dpqdy =
                0.5 * ((pq_nw + pq_ne) - (pq_sw + pq_se)) * inv_dy;
            vxr[i] -= dt * dpqdx / rho_node;
            vyr[i] -= dt * dpqdy / rho_node;
        }
    });
    applyVelocityBc();

    const std::size_t nn = vx_.size();
    double *vxb = vxBar.data();
    double *vyb = vyBar.data();
    const double *vx = vx_.data();
    const double *vy = vy_.data();
    parallelForRange(nn, flatGrain,
                     [&](std::size_t b, std::size_t e) {
                         for (std::size_t n = b; n < e; ++n) {
                             vxb[n] = 0.5 * (vxb[n] + vx[n]);
                             vyb[n] = 0.5 * (vyb[n] + vy[n]);
                         }
                     });
}

void
CloverSolver2D::fluxCalc(double dt)
{
    // Face volume fluxes from time-centered node velocities; the
    // extended range (one ghost ring) also feeds the momentum remap.
    const double hdt_dy = 0.5 * dt * cfg.dy;
    const double hdt_dx = 0.5 * dt * cfg.dx;
    // Y faces span one node row more than X faces.
    forRows(ghosts - 1, ghosts + cfg.ny + 2, [&](int j) {
        if (j < ghosts + cfg.ny + 1) {
            double *fx = volFluxX.data() + nid(0, j);
            const double *vb0 = vxBar.data() + nid(0, j);
            const double *vb1 = vxBar.data() + nid(0, j + 1);
            for (int i = ghosts - 1; i < ghosts + cfg.nx + 2; ++i)
                fx[i] = hdt_dy * (vb0[i] + vb1[i]);
        }
        double *fy = volFluxY.data() + nid(0, j);
        const double *vb = vyBar.data() + nid(0, j);
        for (int i = ghosts - 1; i < ghosts + cfg.nx + 1; ++i)
            fy[i] = hdt_dx * (vb[i] + vb[i + 1]);
    });
}

void
CloverSolver2D::pdv()
{
    const double vol = cfg.dx * cfg.dy;
    forRows(ghosts, ghosts + cfg.ny, [&](int j) {
        double *rho1 = rho1_.data() + cid(0, j);
        double *e1 = e1_.data() + cid(0, j);
        const double *rho0 = rho0_.data() + cid(0, j);
        const double *e0 = e0_.data() + cid(0, j);
        const double *pr = p_.data() + cid(0, j);
        const double *qr = q_.data() + cid(0, j);
        const double *fx = volFluxX.data() + nid(0, j);
        const double *fy0 = volFluxY.data() + nid(0, j);
        const double *fy1 = volFluxY.data() + nid(0, j + 1);
        for (int i = ghosts; i < ghosts + cfg.nx; ++i) {
            const double total_flux =
                fx[i + 1] - fx[i] + fy1[i] - fy0[i];
            double vol_lagr = vol + total_flux;
            if (vol_lagr < 0.1 * vol) {
                TDFE_WARN("clover2d: clamped collapsing cell (",
                          i - ghosts, ", ", j - ghosts, ") at cycle ",
                          cycleCount);
                vol_lagr = 0.1 * vol;
            }
            rho1[i] = std::max(rho0[i] * vol / vol_lagr, fieldFloor);
            const double de =
                (pr[i] + qr[i]) * total_flux / (rho0[i] * vol);
            e1[i] = std::max(e0[i] - de, fieldFloor);
        }
    });
    haloFillCell(rho1_, pcx, pcy, cfg.nx, cfg.ny, ghosts);
    haloFillCell(e1_, pcx, pcy, cfg.nx, cfg.ny, ghosts);
}

void
CloverSolver2D::advectCellX()
{
    const double vol = cfg.dx * cfg.dy;
    const bool first_sweep = (cycleCount % 2) == 0;
    const int g = ghosts;

    haloFillCell(rho1_, pcx, pcy, cfg.nx, cfg.ny, ghosts);
    haloFillCell(e1_, pcx, pcy, cfg.nx, cfg.ny, ghosts);

    // Lagrangian (pre) and post-sweep control volumes, one ghost
    // ring included so boundary node masses see consistent values.
    // The first sweep of a cycle starts from the fully-expanded
    // Lagrangian volume (both directions' fluxes); the second sweep
    // only has its own direction left to remap. The same pass forms
    // the donor-cell mass and internal-energy fluxes, all from
    // pre-update values so the update loop below has no ordering
    // hazard.
    forRows(g - 1, g + cfg.ny + 1, [&](int j) {
        double *pre = preVol.data() + cid(0, j);
        double *post = postVol.data() + cid(0, j);
        const double *fvx = volFluxX.data() + nid(0, j);
        const double *fvy0 = volFluxY.data() + nid(0, j);
        const double *fvy1 = volFluxY.data() + nid(0, j + 1);
        for (int i = g - 1; i <= g + cfg.nx; ++i) {
            const double fx = fvx[i + 1] - fvx[i];
            const double fy = fvy1[i] - fvy0[i];
            pre[i] = vol + fx + (first_sweep ? fy : 0.0);
            post[i] = pre[i] - fx;
        }

        double *mfx = massFluxX.data() + nid(0, j);
        double *ef = eFlux.data() + nid(0, j);
        const double *rho1 = rho1_.data() + cid(0, j);
        const double *e1 = e1_.data() + cid(0, j);
        for (int i = g - 1; i <= g + cfg.nx + 1; ++i) {
            const double vf = fvx[i];
            const int donor = vf > 0.0 ? i - 1 : i;
            mfx[i] = vf * rho1[donor];
            ef[i] = mfx[i] * e1[donor];
        }
    });

    // Node masses on the Lagrangian volumes, for the momentum remap.
    forRows(g, g + cfg.ny + 1, [&](int j) {
        double *nm = nodeMass0.data() + nid(0, j);
        const double *rho_s = rho1_.data() + cid(0, j - 1);
        const double *rho_n = rho1_.data() + cid(0, j);
        const double *pre_s = preVol.data() + cid(0, j - 1);
        const double *pre_n = preVol.data() + cid(0, j);
        for (int i = g; i <= g + cfg.nx; ++i)
            nm[i] = nodeMass(rho_s, rho_n, pre_s, pre_n, i);
    });

    // Conservative remap of mass and internal energy.
    forRows(g - 1, g + cfg.ny + 1, [&](int j) {
        double *rho1 = rho1_.data() + cid(0, j);
        double *e1 = e1_.data() + cid(0, j);
        const double *pre = preVol.data() + cid(0, j);
        const double *post = postVol.data() + cid(0, j);
        const double *mfx = massFluxX.data() + nid(0, j);
        const double *ef = eFlux.data() + nid(0, j);
        for (int i = g - 1; i <= g + cfg.nx; ++i) {
            const double pre_mass = rho1[i] * pre[i];
            const double post_mass =
                pre_mass + mfx[i] - mfx[i + 1];
            const double post_energy =
                e1[i] * pre_mass + ef[i] - ef[i + 1];
            rho1[i] = std::max(post_mass / post[i], fieldFloor);
            e1[i] = std::max(
                post_energy / std::max(post_mass, fieldFloor),
                fieldFloor);
        }
    });
}

void
CloverSolver2D::advectMomX()
{
    const int g = ghosts;

    // Donor velocities come from a frozen copy of the node fields.
    vxBar = vx_;
    vyBar = vy_;

    forRows(g, g + cfg.ny + 1, [&](int j) {
        double *vxr = vx_.data() + nid(0, j);
        double *vyr = vy_.data() + nid(0, j);
        const double *vbx = vxBar.data() + nid(0, j);
        const double *vby = vyBar.data() + nid(0, j);
        const double *nm0 = nodeMass0.data() + nid(0, j);
        const double *rho_s = rho1_.data() + cid(0, j - 1);
        const double *rho_n = rho1_.data() + cid(0, j);
        const double *post_s = postVol.data() + cid(0, j - 1);
        const double *post_n = postVol.data() + cid(0, j);
        const double *mf_s = massFluxX.data() + nid(0, j - 1);
        const double *mf_n = massFluxX.data() + nid(0, j);
        // Node-control-volume mass flux across the face between
        // nodes (i-1, j) and (i, j): interpolated from the four
        // surrounding cell-face mass fluxes.
        auto node_flux = [&](int i) {
            return 0.25 * (mf_s[i - 1] + mf_s[i] + mf_n[i - 1] +
                           mf_n[i]);
        };
        for (int i = g; i <= g + cfg.nx; ++i) {
            const double f_in = node_flux(i);
            const double f_out = node_flux(i + 1);
            const int don_in = f_in > 0.0 ? i - 1 : i;
            const int don_out = f_out > 0.0 ? i : i + 1;
            const double m1 = std::max(
                nodeMass(rho_s, rho_n, post_s, post_n, i), fieldFloor);
            vxr[i] = (nm0[i] * vbx[i] + f_in * vbx[don_in] -
                      f_out * vbx[don_out]) / m1;
            vyr[i] = (nm0[i] * vby[i] + f_in * vby[don_in] -
                      f_out * vby[don_out]) / m1;
        }
    });
    applyVelocityBc();
}

void
CloverSolver2D::advectCellY()
{
    const double vol = cfg.dx * cfg.dy;
    const bool first_sweep = (cycleCount % 2) != 0;
    const int g = ghosts;

    haloFillCell(rho1_, pcx, pcy, cfg.nx, cfg.ny, ghosts);
    haloFillCell(e1_, pcx, pcy, cfg.nx, cfg.ny, ghosts);

    // Control volumes and donor fluxes in one pass, as in
    // advectCellX; the flux faces span one row more than the cells.
    forRows(g - 1, g + cfg.ny + 2, [&](int j) {
        if (j < g + cfg.ny + 1) {
            double *pre = preVol.data() + cid(0, j);
            double *post = postVol.data() + cid(0, j);
            const double *fvx = volFluxX.data() + nid(0, j);
            const double *fvy0 = volFluxY.data() + nid(0, j);
            const double *fvy1 = volFluxY.data() + nid(0, j + 1);
            for (int i = g - 1; i <= g + cfg.nx; ++i) {
                const double fx = fvx[i + 1] - fvx[i];
                const double fy = fvy1[i] - fvy0[i];
                pre[i] = vol + fy + (first_sweep ? fx : 0.0);
                post[i] = pre[i] - fy;
            }
        }

        double *mfy = massFluxY.data() + nid(0, j);
        double *ef = eFlux.data() + nid(0, j);
        const double *fvy = volFluxY.data() + nid(0, j);
        const double *rho_s = rho1_.data() + cid(0, j - 1);
        const double *rho_c = rho1_.data() + cid(0, j);
        const double *e_s = e1_.data() + cid(0, j - 1);
        const double *e_c = e1_.data() + cid(0, j);
        for (int i = g - 1; i <= g + cfg.nx; ++i) {
            const double vf = fvy[i];
            const double rho_d = vf > 0.0 ? rho_s[i] : rho_c[i];
            const double e_d = vf > 0.0 ? e_s[i] : e_c[i];
            mfy[i] = vf * rho_d;
            ef[i] = mfy[i] * e_d;
        }
    });

    forRows(g, g + cfg.ny + 1, [&](int j) {
        double *nm = nodeMass0.data() + nid(0, j);
        const double *rho_s = rho1_.data() + cid(0, j - 1);
        const double *rho_n = rho1_.data() + cid(0, j);
        const double *pre_s = preVol.data() + cid(0, j - 1);
        const double *pre_n = preVol.data() + cid(0, j);
        for (int i = g; i <= g + cfg.nx; ++i)
            nm[i] = nodeMass(rho_s, rho_n, pre_s, pre_n, i);
    });

    forRows(g - 1, g + cfg.ny + 1, [&](int j) {
        double *rho1 = rho1_.data() + cid(0, j);
        double *e1 = e1_.data() + cid(0, j);
        const double *pre = preVol.data() + cid(0, j);
        const double *post = postVol.data() + cid(0, j);
        const double *mf0 = massFluxY.data() + nid(0, j);
        const double *mf1 = massFluxY.data() + nid(0, j + 1);
        const double *ef0 = eFlux.data() + nid(0, j);
        const double *ef1 = eFlux.data() + nid(0, j + 1);
        for (int i = g - 1; i <= g + cfg.nx; ++i) {
            const double pre_mass = rho1[i] * pre[i];
            const double post_mass = pre_mass + mf0[i] - mf1[i];
            const double post_energy =
                e1[i] * pre_mass + ef0[i] - ef1[i];
            rho1[i] = std::max(post_mass / post[i], fieldFloor);
            e1[i] = std::max(
                post_energy / std::max(post_mass, fieldFloor),
                fieldFloor);
        }
    });
}

void
CloverSolver2D::advectMomY()
{
    const int g = ghosts;

    vxBar = vx_;
    vyBar = vy_;

    forRows(g, g + cfg.ny + 1, [&](int j) {
        double *vxr = vx_.data() + nid(0, j);
        double *vyr = vy_.data() + nid(0, j);
        const double *nm0 = nodeMass0.data() + nid(0, j);
        const double *rho_s = rho1_.data() + cid(0, j - 1);
        const double *rho_n = rho1_.data() + cid(0, j);
        const double *post_s = postVol.data() + cid(0, j - 1);
        const double *post_n = postVol.data() + cid(0, j);
        const double *mf_s = massFluxY.data() + nid(0, j - 1);
        const double *mf_c = massFluxY.data() + nid(0, j);
        const double *mf_n = massFluxY.data() + nid(0, j + 1);
        const double *vbx_s = vxBar.data() + nid(0, j - 1);
        const double *vbx_c = vxBar.data() + nid(0, j);
        const double *vbx_n = vxBar.data() + nid(0, j + 1);
        const double *vby_s = vyBar.data() + nid(0, j - 1);
        const double *vby_c = vyBar.data() + nid(0, j);
        const double *vby_n = vyBar.data() + nid(0, j + 1);
        for (int i = g; i <= g + cfg.nx; ++i) {
            const double f_in =
                0.25 * (mf_s[i - 1] + mf_c[i - 1] + mf_s[i] +
                        mf_c[i]);
            const double f_out =
                0.25 * (mf_c[i - 1] + mf_n[i - 1] + mf_c[i] +
                        mf_n[i]);
            const double *vbx_in = f_in > 0.0 ? vbx_s : vbx_c;
            const double *vbx_out = f_out > 0.0 ? vbx_c : vbx_n;
            const double *vby_in = f_in > 0.0 ? vby_s : vby_c;
            const double *vby_out = f_out > 0.0 ? vby_c : vby_n;
            const double m1 = std::max(
                nodeMass(rho_s, rho_n, post_s, post_n, i), fieldFloor);
            vxr[i] = (nm0[i] * vbx_c[i] + f_in * vbx_in[i] -
                      f_out * vbx_out[i]) / m1;
            vyr[i] = (nm0[i] * vby_c[i] + f_in * vby_in[i] -
                      f_out * vby_out[i]) / m1;
        }
    });
    applyVelocityBc();
}

void
CloverSolver2D::step(double dt)
{
    TDFE_ASSERT(dt > 0.0 && std::isfinite(dt),
                "step requires a positive finite dt");

    // calcDt has usually just derived p, cs and q from this state;
    // recompute only for callers that pass their own dt.
    if (!derivedCurrent)
        deriveFields();
    accelerate(dt);
    fluxCalc(dt);
    pdv();

    // Directionally-split remap; alternate the sweep order each
    // cycle to avoid a preferred axis.
    if (cycleCount % 2 == 0) {
        advectCellX();
        advectMomX();
        advectCellY();
        advectMomY();
    } else {
        advectCellY();
        advectMomY();
        advectCellX();
        advectMomX();
    }

    // Reset: remapped state becomes the start-of-cycle state.
    std::swap(rho0_, rho1_);
    std::swap(e0_, e1_);

    t += dt;
    ++cycleCount;
    lastDt = dt;
    derivedCurrent = false;
}

double
CloverSolver2D::advance()
{
    const double dt = calcDt();
    step(dt);
    return dt;
}

} // namespace clover

} // namespace tdfe
