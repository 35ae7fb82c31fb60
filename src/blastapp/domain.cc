#include "blastapp/domain.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/serial.hh"
#include "par/comm.hh"

namespace tdfe
{

namespace blast
{

namespace
{

Euler3Config
makeEulerConfig(const BlastConfig &cfg)
{
    Euler3Config ec;
    ec.nx = cfg.size;
    ec.ny = cfg.size;
    ec.nz = cfg.size;
    ec.cfl = cfg.cfl;
    return ec;
}

} // namespace

Domain::Domain(const BlastConfig &config, Communicator *comm)
    : cfg(config), comm_(comm), solver_(makeEulerConfig(config), comm)
{
    TDFE_ASSERT(cfg.size >= 4, "blast domain too small");

    SedovSetup sedov;
    sedov.energy = cfg.sedovEnergy;
    applySedov(solver_, sedov);

    // The corner deposit represents 1/8 of a full-space blast.
    tEnd_ = sedovShockTime(8.0 * cfg.sedovEnergy, 1.0,
                           cfg.tEndFactor * cfg.size);

    probeLine.assign(static_cast<std::size_t>(cfg.size), 0.0);
    probeScratch.assign(probeLine.size(), 0.0);
}

double
Domain::xd(long loc) const
{
    TDFE_ASSERT(loc >= 1 && loc <= static_cast<long>(probeLine.size()),
                "probe location ", loc, " out of [1, ",
                probeLine.size(), "]");
    return probeLine[static_cast<std::size_t>(loc - 1)];
}

bool
Domain::finished() const
{
    if (cfg.maxIterations > 0 && solver_.cycle() >= cfg.maxIterations)
        return true;
    return solver_.time() >= tEnd_;
}

void
Domain::gatherProbes()
{
    // Owners fill their segment of the z-axis probe line; the
    // reduction sums owner values against zeros elsewhere.
    std::fill(probeScratch.begin(), probeScratch.end(), 0.0);
    for (long loc = 1; loc <= probeCount(); ++loc) {
        const int k = static_cast<int>(loc - 1);
        if (solver_.ownsZ(k)) {
            probeScratch[static_cast<std::size_t>(loc - 1)] =
                solver_.velocityMagnitude(0, 0, k);
        }
    }
    if (comm_ && comm_->size() > 1) {
        comm_->allreduceVec(probeScratch.data(), probeScratch.size(),
                            ReduceOp::Sum);
    }
    probeLine.swap(probeScratch);
    vInit = std::max(vInit, probeLine[0]);
}

int
Domain::rankOfLocation(long loc) const
{
    if (!comm_)
        return 0;
    const long k = loc - 1;
    const int nranks = comm_->size();
    // Mirrors the slab split in EulerSolver3D.
    for (int r = 0; r < nranks; ++r) {
        const long lo = (static_cast<long>(cfg.size) * r) / nranks;
        const long hi =
            (static_cast<long>(cfg.size) * (r + 1)) / nranks;
        if (k >= lo && k < hi)
            return r;
    }
    return nranks - 1;
}

void
TimeIncrement(Domain &domain)
{
    domain.dt = domain.solver_.computeDt();
}

void
LagrangeLeapFrog(Domain &domain)
{
    TDFE_ASSERT(domain.dt > 0.0,
                "LagrangeLeapFrog before TimeIncrement");
    domain.solver_.step(domain.dt);
}

void
Domain::save(BinaryWriter &w) const
{
    w.writeTag("blastdom");
    w.writeF64(dt);
    w.writeVec(probeLine);
    w.writeF64(vInit);
    solver_.save(w);
}

void
Domain::load(BinaryReader &r)
{
    r.expectTag("blastdom");
    dt = r.readF64();
    r.readVecInto(probeLine, "blast probe line");
    vInit = r.readF64();
    solver_.load(r);
}

} // namespace blast

} // namespace tdfe
