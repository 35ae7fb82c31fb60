#include "euler3d/solver.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/serial.hh"
#include "base/thread_pool.hh"
#include "hydro/flux.hh"
#include "par/comm.hh"

namespace tdfe
{

namespace
{

/** Split @p n cells across @p parts slabs; @return begin of @p r. */
int
slabBegin(int n, int parts, int r)
{
    return static_cast<int>(
        (static_cast<long>(n) * r) / parts);
}

/** Cells per chunk for flat loops (fixed: keeps reductions stable). */
constexpr std::size_t flatGrain = 8192;

} // namespace

EulerSolver3D::EulerSolver3D(const Euler3Config &config,
                             Communicator *comm)
    : cfg(config), comm(comm), eos_(config.gamma)
{
    TDFE_ASSERT(cfg.nx > 0 && cfg.ny > 0 && cfg.nz > 0,
                "grid extents must be positive");

    const int nranks = comm ? comm->size() : 1;
    const int rank = comm ? comm->rank() : 0;
    TDFE_ASSERT(nranks <= cfg.nz,
                "more ranks than z planes (", nranks, " > ", cfg.nz,
                ")");
    zBegin_ = slabBegin(cfg.nz, nranks, rank);
    zCount_ = slabBegin(cfg.nz, nranks, rank + 1) - zBegin_;

    px = cfg.nx + 2;
    py = cfg.ny + 2;
    pz = zCount_ + 2;
    const std::size_t n = static_cast<std::size_t>(px) * py * pz;

    // Background state everywhere, ghosts included, so corner ghost
    // cells never hold zero density.
    rho.assign(n, cfg.rho0);
    mx.assign(n, 0.0);
    my.assign(n, 0.0);
    mz.assign(n, 0.0);
    en.assign(n, cfg.rho0 * eos_.energy(cfg.rho0, cfg.p0));

    wr.assign(n, 0.0);
    wx.assign(n, 0.0);
    wy.assign(n, 0.0);
    wz.assign(n, 0.0);
    wp.assign(n, 0.0);
    wc.assign(n, 0.0);

    d_rho.assign(n, 0.0);
    d_mx.assign(n, 0.0);
    d_my.assign(n, 0.0);
    d_mz.assign(n, 0.0);
    d_en.assign(n, 0.0);
}

std::size_t
EulerSolver3D::id(int i, int j, int k) const
{
    return (static_cast<std::size_t>(k + 1) * py +
            static_cast<std::size_t>(j + 1)) * px +
           static_cast<std::size_t>(i + 1);
}

void
EulerSolver3D::depositCornerEnergy(double energy)
{
    TDFE_ASSERT(energy > 0.0, "blast energy must be positive");
    if (zBegin_ == 0) {
        const double volume = cfg.dx * cfg.dx * cfg.dx;
        en[id(0, 0, 0)] += energy / volume;
    }
}

void
EulerSolver3D::exchangeHalos()
{
    if (!comm || comm->size() == 1)
        return;

    const int rank = comm->rank();
    const int nranks = comm->size();
    const std::size_t plane =
        static_cast<std::size_t>(cfg.nx) * cfg.ny;

    double *const fields[5] = {rho.data(), mx.data(), my.data(),
                               mz.data(), en.data()};
    const std::size_t nx = static_cast<std::size_t>(cfg.nx);

    auto pack = [&](int k, std::vector<double> &buf) {
        buf.resize(plane * 5);
        for (int f = 0; f < 5; ++f) {
            double *__restrict dst = buf.data() + f * plane;
            for (int j = 0; j < cfg.ny; ++j) {
                const double *__restrict src =
                    fields[f] + id(0, j, k);
                for (std::size_t i = 0; i < nx; ++i)
                    dst[i] = src[i];
                dst += nx;
            }
        }
    };
    auto unpack = [&](int k, const std::vector<double> &buf) {
        TDFE_ASSERT(buf.size() == plane * 5, "halo size mismatch");
        for (int f = 0; f < 5; ++f) {
            const double *__restrict src = buf.data() + f * plane;
            for (int j = 0; j < cfg.ny; ++j) {
                double *__restrict dst = fields[f] + id(0, j, k);
                for (std::size_t i = 0; i < nx; ++i)
                    dst[i] = src[i];
                src += nx;
            }
        }
    };

    constexpr int tagUp = 100;
    constexpr int tagDown = 101;
    std::vector<double> buf;
    if (rank + 1 < nranks) {
        pack(zCount_ - 1, buf);
        comm->send(rank + 1, tagUp, buf);
    }
    if (rank > 0) {
        pack(0, buf);
        comm->send(rank - 1, tagDown, buf);
    }
    if (rank > 0)
        unpack(-1, comm->recv(rank - 1, tagUp));
    if (rank + 1 < nranks)
        unpack(zCount_, comm->recv(rank + 1, tagDown));
}

void
EulerSolver3D::fillGhosts()
{
    const std::size_t nx = static_cast<std::size_t>(cfg.nx);
    double *const fields[5] = {rho.data(), mx.data(), my.data(),
                               mz.data(), en.data()};

    // Copy @p n entries field-by-field from base+src to base+dst,
    // negating the field at @p flip (the reflective component).
    auto mirror_rows = [&](std::size_t dst, std::size_t src,
                           std::size_t n, int flip) {
        for (int f = 0; f < 5; ++f) {
            double *__restrict d = fields[f] + dst;
            const double *__restrict s = fields[f] + src;
            if (f == flip) {
                for (std::size_t i = 0; i < n; ++i)
                    d[i] = -s[i];
            } else {
                for (std::size_t i = 0; i < n; ++i)
                    d[i] = s[i];
            }
        }
    };

    // X faces: reflective at i=0 plane, outflow at i=nx. The ghost
    // column is strided (one cell per row), walked with the row
    // pitch hoisted out of id().
    for (int k = 0; k < zCount_; ++k) {
        for (int j = 0; j < cfg.ny; ++j) {
            const std::size_t lo_g = id(-1, j, k);
            const std::size_t hi_i = id(cfg.nx - 1, j, k);
            for (int f = 0; f < 5; ++f) {
                double *__restrict p = fields[f];
                p[lo_g] = f == 1 ? -p[lo_g + 1] : p[lo_g + 1];
                p[hi_i + 1] = p[hi_i];
            }
        }
    }
    // Y faces: whole x rows at a time (stride-1 copies).
    for (int k = 0; k < zCount_; ++k) {
        mirror_rows(id(0, -1, k), id(0, 0, k), nx, 2);
        mirror_rows(id(0, cfg.ny, k), id(0, cfg.ny - 1, k), nx, -1);
    }
    // Z faces: halo planes between ranks, physical boundaries at the
    // global ends — again stride-1 x rows.
    exchangeHalos();
    if (zBegin_ == 0) {
        for (int j = 0; j < cfg.ny; ++j)
            mirror_rows(id(0, j, -1), id(0, j, 0), nx, 3);
    }
    if (zBegin_ + zCount_ == cfg.nz) {
        for (int j = 0; j < cfg.ny; ++j)
            mirror_rows(id(0, j, zCount_), id(0, j, zCount_ - 1), nx,
                        -1);
    }
}

void
EulerSolver3D::computePrims()
{
    const double gm1 = cfg.gamma - 1.0;
    const std::size_t n = rho.size();
    parallelForRange(n, flatGrain, [&](std::size_t b,
                                       std::size_t e) {
        for (std::size_t c = b; c < e; ++c) {
            const double r = rho[c];
            const double inv = 1.0 / r;
            const double vx = mx[c] * inv;
            const double vy = my[c] * inv;
            const double vz = mz[c] * inv;
            const double kin =
                0.5 * (mx[c] * vx + my[c] * vy + mz[c] * vz);
            const double internal = en[c] - kin;
            wr[c] = r;
            wx[c] = vx;
            wy[c] = vy;
            wz[c] = vz;
            wp[c] = gm1 * std::max(internal, 1e-14);
            wc[c] = std::sqrt(cfg.gamma * wp[c] * inv);
        }
    });
}

double
EulerSolver3D::computeDt()
{
    computePrims();
    // Per-plane maxima combined by max: order-insensitive, so the
    // result is identical for any thread count.
    const double smax = parallelReduce(
        static_cast<std::size_t>(zCount_), std::size_t{1}, 1e-30,
        [&](std::size_t kb, std::size_t ke) {
            double best = 1e-30;
            for (std::size_t kk = kb; kk < ke; ++kk) {
                const int k = static_cast<int>(kk);
                for (int j = 0; j < cfg.ny; ++j) {
                    const std::size_t row = id(0, j, k);
                    for (int i = 0; i < cfg.nx; ++i) {
                        const std::size_t c = row + i;
                        const double s = std::max(
                            {std::abs(wx[c]), std::abs(wy[c]),
                             std::abs(wz[c])}) + wc[c];
                        best = std::max(best, s);
                    }
                }
            }
            return best;
        },
        [](double a, double b) { return std::max(a, b); });
    double dt = cfg.cfl * cfg.dx / smax;
    if (comm)
        dt = comm->allreduce(dt, ReduceOp::Min);
    if (lastDt > 0.0)
        dt = std::min(dt, lastDt * cfg.dtGrowth);
    lastDt = dt;
    return dt;
}

void
EulerSolver3D::step(double dt)
{
    fillGhosts();
    computePrims();

    std::fill(d_rho.begin(), d_rho.end(), 0.0);
    std::fill(d_mx.begin(), d_mx.end(), 0.0);
    std::fill(d_my.begin(), d_my.end(), 0.0);
    std::fill(d_mz.begin(), d_mz.end(), 0.0);
    std::fill(d_en.begin(), d_en.end(), 0.0);

    // Pointer-stride Rusanov sweeps over the SoA fields through the
    // shared row kernel (hydro/flux.cc rusanovFaceRow): each call
    // walks one row of faces with both cell streams stride-1. This
    // is the hot loop of the whole repository (see hydro/flux.hh for
    // the struct-returning reference the tests validate against).
    //
    // Each face writes to the cells on both its sides, so the
    // parallel unit must keep both endpoints inside one task: faces
    // along X stay within a (j, k) row, along Y within a k plane,
    // and along Z within a j row-of-planes. Within a task, faces
    // run in the same ascending order as the serial sweep, so the
    // per-cell accumulation order — and the result — is unchanged.
    auto face_row = [&](Axis3 axis, const double *wn,
                        std::size_t base, std::size_t n,
                        std::ptrdiff_t off) {
        rusanovFaceRow(n, off, axis, rho.data() + base,
                       mx.data() + base, my.data() + base,
                       mz.data() + base, en.data() + base, wn + base,
                       wp.data() + base, wc.data() + base,
                       d_rho.data() + base, d_mx.data() + base,
                       d_my.data() + base, d_mz.data() + base,
                       d_en.data() + base);
    };

    {
        // X: faces differ by one i; parallel over (k, j) rows.
        const std::size_t ni = static_cast<std::size_t>(cfg.nx) + 1;
        const std::size_t rows =
            static_cast<std::size_t>(zCount_) * cfg.ny;
        parallelFor(rows, std::size_t{8}, [&](std::size_t rj) {
            const int k = static_cast<int>(rj) / cfg.ny;
            const int j = static_cast<int>(rj) % cfg.ny;
            face_row(Axis3::X, wx.data(), id(0, j, k), ni,
                     std::ptrdiff_t{1});
        });
    }
    {
        // Y: faces differ by one j; parallel over k planes.
        const int nj = cfg.ny + 1;
        const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(px);
        parallelFor(static_cast<std::size_t>(zCount_),
                    std::size_t{1}, [&](std::size_t kk) {
                        const int k = static_cast<int>(kk);
                        for (int j = 0; j < nj; ++j)
                            face_row(Axis3::Y, wy.data(),
                                     id(0, j, k),
                                     static_cast<std::size_t>(
                                         cfg.nx),
                                     off);
                    });
    }
    {
        // Z: faces differ by one k; parallel over j rows-of-planes.
        const int nk = zCount_ + 1;
        const std::ptrdiff_t off =
            static_cast<std::ptrdiff_t>(px) * py;
        parallelFor(static_cast<std::size_t>(cfg.ny),
                    std::size_t{1}, [&](std::size_t jj) {
                        const int j = static_cast<int>(jj);
                        for (int k = 0; k < nk; ++k)
                            face_row(Axis3::Z, wz.data(),
                                     id(0, j, k),
                                     static_cast<std::size_t>(
                                         cfg.nx),
                                     off);
                    });
    }

    const double scale = dt / cfg.dx;
    parallelFor(
        static_cast<std::size_t>(zCount_), std::size_t{1},
        [&](std::size_t kk) {
            const int k = static_cast<int>(kk);
            const std::size_t nx = static_cast<std::size_t>(cfg.nx);
            for (int j = 0; j < cfg.ny; ++j) {
                const std::size_t row = id(0, j, k);
                double *__restrict r = rho.data() + row;
                double *__restrict px_ = mx.data() + row;
                double *__restrict py_ = my.data() + row;
                double *__restrict pz_ = mz.data() + row;
                double *__restrict e = en.data() + row;
                const double *__restrict dr = d_rho.data() + row;
                const double *__restrict dx_ = d_mx.data() + row;
                const double *__restrict dy_ = d_my.data() + row;
                const double *__restrict dz_ = d_mz.data() + row;
                const double *__restrict de = d_en.data() + row;
                for (std::size_t i = 0; i < nx; ++i) {
                    r[i] += scale * dr[i];
                    px_[i] += scale * dx_[i];
                    py_[i] += scale * dy_[i];
                    pz_[i] += scale * dz_[i];
                    e[i] += scale * de[i];
                    // Positivity floors (strong blasts on coarse
                    // grids).
                    if (r[i] < 1e-12)
                        r[i] = 1e-12;
                }
            }
        });

    t += dt;
    ++cycleCount;
}

double
EulerSolver3D::advance()
{
    const double dt = computeDt();
    step(dt);
    return dt;
}

double
EulerSolver3D::velocityMagnitude(int i, int j, int k) const
{
    TDFE_ASSERT(ownsZ(k), "cell not owned by this rank");
    const std::size_t c = id(i, j, k - zBegin_);
    const double inv = 1.0 / rho[c];
    const double vx = mx[c] * inv;
    const double vy = my[c] * inv;
    const double vz = mz[c] * inv;
    return std::sqrt(vx * vx + vy * vy + vz * vz);
}

Prim
EulerSolver3D::primAt(int i, int j, int k) const
{
    TDFE_ASSERT(ownsZ(k), "cell not owned by this rank");
    const std::size_t c = id(i, j, k - zBegin_);
    Cons u{rho[c], mx[c], my[c], mz[c], en[c]};
    return toPrim(u, eos_);
}

double
EulerSolver3D::totalMass() const
{
    double acc = 0.0;
    for (int k = 0; k < zCount_; ++k) {
        for (int j = 0; j < cfg.ny; ++j) {
            const double *__restrict row = rho.data() + id(0, j, k);
            for (int i = 0; i < cfg.nx; ++i)
                acc += row[i];
        }
    }
    return acc;
}

double
EulerSolver3D::totalEnergy() const
{
    double acc = 0.0;
    for (int k = 0; k < zCount_; ++k) {
        for (int j = 0; j < cfg.ny; ++j) {
            const double *__restrict row = en.data() + id(0, j, k);
            for (int i = 0; i < cfg.nx; ++i)
                acc += row[i];
        }
    }
    return acc;
}

void
EulerSolver3D::save(BinaryWriter &w) const
{
    w.writeTag("euler3d");
    w.writeVec(rho);
    w.writeVec(mx);
    w.writeVec(my);
    w.writeVec(mz);
    w.writeVec(en);
    w.writeF64(t);
    w.writeI64(cycleCount);
    // lastDt feeds the dtGrowth limiter: without it the first
    // resumed step could grow dt differently than the uninterrupted
    // run and break bitwise identity.
    w.writeF64(lastDt);
}

void
EulerSolver3D::load(BinaryReader &r)
{
    r.expectTag("euler3d");
    for (std::vector<double> *field : {&rho, &mx, &my, &mz, &en})
        r.readVecInto(*field, "euler3d field");
    t = r.readF64();
    cycleCount = static_cast<long>(r.readI64());
    lastDt = r.readF64();
}

} // namespace tdfe
