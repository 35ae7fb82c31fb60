/**
 * @file
 * CloverLeaf-style 2D structured compressible hydro solver: a
 * staggered-grid (velocities on nodes, thermodynamics on cells)
 * explicit Lagrangian step with von Neumann-Richtmyer artificial
 * viscosity, followed by a directionally-split first-order donor-cell
 * advective remap back onto the fixed Eulerian mesh.
 *
 * The kernel decomposition mirrors CloverLeaf's hydro cycle —
 * ideal_gas -> viscosity -> calc_dt -> accelerate -> PdV ->
 * flux_calc -> advec_cell -> advec_mom. The derived fields
 * (ideal_gas's pressure and sound speed, viscosity's q) are computed
 * once per cycle, in calc_dt's row pass; step() reuses them unless
 * the state changed since. The module doubles as a
 * second, structurally different hydro mini-app substrate for the
 * in-situ feature-extraction library (the first being the
 * cell-centered Godunov solver in src/euler3d).
 *
 * Geometry: a quarter-plane blast. The low-x and low-y edges are
 * reflecting symmetry planes, the high edges are outflow, and the
 * blast energy is deposited in the corner cell, giving a cylindrical
 * (2D Sedov) shock whose front radius grows as r ~ t^(1/2).
 */

#ifndef TDFE_CLOVER2D_SOLVER_HH
#define TDFE_CLOVER2D_SOLVER_HH

#include <cstddef>
#include <vector>

#include "hydro/eos.hh"

namespace tdfe
{

namespace clover
{

/** Configuration of a 2D staggered-grid blast run. */
struct CloverConfig
{
    /** Interior cells per axis. */
    int nx = 64;
    int ny = 64;
    /** Cell widths (uniform). */
    double dx = 1.0;
    double dy = 1.0;
    /** Adiabatic index. */
    double gamma = 1.4;
    /** CFL number (staggered schemes want a conservative value). */
    double cfl = 0.2;
    /** Background density. */
    double rho0 = 1.0;
    /** Background pressure (cold ambient). */
    double p0 = 1e-6;
    /** Linear artificial-viscosity coefficient. */
    double cvisc1 = 0.5;
    /** Quadratic artificial-viscosity coefficient. */
    double cvisc2 = 2.0;
    /** Maximum per-step growth of dt. */
    double dtGrowth = 1.05;
    /** Initial dt ceiling before the first CFL estimate exists. */
    double dtInit = 1e-4;
};

/**
 * The solver. Cell-centered density / specific internal energy /
 * pressure / viscosity, node-centered velocities, two ghost layers.
 */
class CloverSolver2D
{
  public:
    /** @param config Run configuration (copied). */
    explicit CloverSolver2D(const CloverConfig &config);

    /**
     * Deposit @p energy (total, code units) as internal energy in
     * the corner cell (0,0) — the quarter-symmetric 2D Sedov setup.
     */
    void depositCornerEnergy(double energy);

    /** Compute the stable timestep for the next cycle. */
    double calcDt();

    /**
     * Advance one full hydro cycle (Lagrangian step + remap) of
     * size @p dt.
     */
    void step(double dt);

    /** Convenience: calcDt + step; @return the dt used. */
    double advance();

    /** @return accumulated simulation time. */
    double time() const { return t; }

    /** @return completed cycles. */
    long cycle() const { return cycleCount; }

    /** Primitive cell accessors (interior indices, 0-based). @{ */
    double density(int i, int j) const;
    double energy(int i, int j) const;
    double pressure(int i, int j) const;
    /** @} */

    /** Node velocity accessors (0 <= i <= nx, 0 <= j <= ny). @{ */
    double xvel(int i, int j) const;
    double yvel(int i, int j) const;
    /** @} */

    /**
     * Cell-centered speed: magnitude of the average of the four
     * corner-node velocities of interior cell (@p i, @p j).
     */
    double speedAt(int i, int j) const;

    /** Total mass over interior cells (absolute, includes dx*dy). */
    double totalMass() const;

    /** Total (internal + kinetic) energy over the interior. */
    double totalEnergy() const;

    /** @return the configuration. */
    const CloverConfig &config() const { return cfg; }

    /** @return the EOS in use. */
    const IdealGasEos &eos() const { return eos_; }

  private:
    /** Ghost layers per side. */
    static constexpr int ghosts = 2;

    /** Cell-array index of cell (i, j) in ghost coordinates. */
    std::size_t cid(int i, int j) const;
    /** Node-array index of node (i, j) in ghost coordinates. */
    std::size_t nid(int i, int j) const;

    /** Refill the ghost cells of rho0 and e0. */
    void updateHalo();

    /**
     * ideal_gas + viscosity + the CFL scan, fused into one row pass:
     * fills p, cs and q from the current state and marks them
     * current. @return the smallest per-cell CFL timestep.
     */
    double deriveFields();

    /** CloverLeaf kernels after calc_dt, in cycle order. @{ */
    void accelerate(double dt);
    void fluxCalc(double dt);
    void pdv();
    void advectCellX();
    void advectCellY();
    void advectMomX();
    void advectMomY();
    /** @} */

    /** Enforce velocity symmetry on the reflecting edges. */
    void applyVelocityBc();

    CloverConfig cfg;
    IdealGasEos eos_;

    /** Padded extents: cells and nodes including ghosts. */
    int pcx = 0;
    int pcy = 0;
    int pnx = 0;
    int pny = 0;

    /** Cell fields (ghost-padded). @{ */
    std::vector<double> rho0_, rho1_, e0_, e1_, p_, q_, cs_;
    /** @} */
    /** Node fields (ghost-padded). @{ */
    std::vector<double> vx_, vy_, vxBar, vyBar, nodeMass0;
    /** @} */
    /** Face volume and mass fluxes (ghost-padded, node-sized). @{ */
    std::vector<double> volFluxX, volFluxY, massFluxX, massFluxY;
    /** Internal-energy flux scratch, reused by both sweeps. */
    std::vector<double> eFlux;
    /** Lagrangian and post-sweep control volumes (cell-sized). */
    std::vector<double> preVol, postVol;
    /** @} */

    double t = 0.0;
    long cycleCount = 0;
    double lastDt = 0.0;
    /** p, cs and q match the current rho0/e0/velocities. */
    bool derivedCurrent = false;
};

} // namespace clover

} // namespace tdfe

#endif // TDFE_CLOVER2D_SOLVER_HH
