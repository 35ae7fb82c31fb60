/**
 * @file
 * One-dimensional spherically-symmetric Lagrangian hydrodynamics
 * (von Neumann-Richtmyer staggered scheme with artificial
 * viscosity). The Sedov blast is spherically symmetric, so this
 * solver provides a cheap, independent reference for the 3D Euler
 * substrate: same physics, one dimension, thousands of times faster.
 */

#ifndef TDFE_LAGRANGIAN_SOLVER1D_HH
#define TDFE_LAGRANGIAN_SOLVER1D_HH

#include <vector>

#include "hydro/eos.hh"

namespace tdfe
{

/** Configuration of the 1D spherical Lagrangian run. */
struct Lagrangian1Config
{
    /** Radial zones. */
    int zones = 30;
    /** Outer radius (zone width = length / zones initially). */
    double length = 30.0;
    /** Adiabatic index. */
    double gamma = 1.4;
    /** CFL number (staggered schemes want a conservative value). */
    double cfl = 0.25;
    /** Ambient density. */
    double rho0 = 1.0;
    /** Ambient pressure. */
    double p0 = 1e-6;
    /** Quadratic artificial-viscosity coefficient. */
    double q1 = 2.0;
    /** Linear artificial-viscosity coefficient. */
    double q2 = 0.25;
    /** Maximum per-step growth of dt. */
    double dtGrowth = 1.1;
};

/**
 * The staggered-mesh solver: velocities live on nodes, thermodynamic
 * state in zones; nodes move with the fluid.
 */
class LagrangianSolver1D
{
  public:
    explicit LagrangianSolver1D(const Lagrangian1Config &config);

    /** Deposit blast @p energy in the innermost zone. */
    void depositCenterEnergy(double energy);

    /**
     * Advance one step at the stable timestep: one EOS and
     * viscosity pass, whose p and q set both the CFL timestep and
     * the step's forces and pdV work. @return the dt used.
     */
    double advance();

    /** @return accumulated simulation time. */
    double time() const { return t; }

    /** @return completed steps. */
    long cycle() const { return cycleCount; }

    /** @return zone count. */
    int zones() const { return cfg.zones; }

    /** Node radius, i in [0, zones]. */
    double nodeRadius(int i) const { return r[i]; }

    /** Node velocity, i in [0, zones]. */
    double nodeVelocity(int i) const { return u[i]; }

    /** Zone density, j in [0, zones). */
    double zoneDensity(int j) const { return rho[j]; }

    /** Zone pressure, j in [0, zones). */
    double zonePressure(int j) const { return p[j]; }

    /** Zone specific internal energy, j in [0, zones). */
    double zoneEnergy(int j) const { return e[j]; }

    /** Zone artificial viscosity of the last step, j in [0, zones). */
    double zoneViscosity(int j) const { return q[j]; }

    /**
     * Probe used by the feature-extraction analyses: |velocity| at
     * node @p loc (1-based, matching the paper's radius locations).
     */
    double velocityAt(long loc) const;

    /** Radius of the node with the largest velocity (shock proxy). */
    double shockRadius() const;

    /** Total (internal + kinetic) energy, conserved to O(dt). */
    double totalEnergy() const;

    /** @return the configuration. */
    const Lagrangian1Config &config() const { return cfg; }

  private:
    void updateEosAndViscosity();

    Lagrangian1Config cfg;
    IdealGasEos eos;

    /** Node arrays (zones + 1). */
    std::vector<double> r, u;
    /** Zone arrays (zones). */
    std::vector<double> m, rho, e, p, q, vol;

    double t = 0.0;
    long cycleCount = 0;
    double lastDt = 0.0;
};

} // namespace tdfe

#endif // TDFE_LAGRANGIAN_SOLVER1D_HH
