#include "wdmerger/app.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/math_util.hh"
#include "base/serial.hh"
#include "sph/kernel.hh"

namespace tdfe
{

namespace wd
{

const char *
diagName(DiagVar var)
{
    switch (var) {
      case DiagVar::Temperature:
        return "Temperature";
      case DiagVar::AngularMomentum:
        return "A. Momentum";
      case DiagVar::Mass:
        return "Mass";
      case DiagVar::Energy:
        return "Energy";
    }
    return "?";
}

namespace
{

SphConfig
makeSphConfig(double star_h)
{
    SphConfig sc;
    sc.h = star_h;
    sc.gamma = 2.0;
    sc.cfl = 0.3;
    sc.theta = 0.6;
    return sc;
}

/** Relax one star model in isolation with velocity damping. */
StarModel
relaxStar(const StarModel &raw, const WdMergerConfig &cfg)
{
    if (cfg.relaxSteps <= 0)
        return raw;

    SphConfig sc = makeSphConfig(raw.h);
    sc.damping = 2.0;
    SphSystem relax_sys(sc);
    const double origin[3] = {0.0, 0.0, 0.0};
    const double zero[3] = {0.0, 0.0, 0.0};
    placeStar(relax_sys, raw, origin, zero, 0);

    for (int s = 0; s < cfg.relaxSteps; ++s)
        relax_sys.advance();

    StarModel relaxed = raw;
    const ParticleSet &p = relax_sys.particles();
    for (std::size_t i = 0; i < relaxed.size(); ++i) {
        relaxed.x[i] = p.x[i];
        relaxed.y[i] = p.y[i];
        relaxed.z[i] = p.z[i];
        relaxed.u[i] = p.u[i];
    }
    return relaxed;
}

} // namespace

WdMergerApp::WdMergerApp(const WdMergerConfig &config,
                         Communicator *comm)
    : cfg(config),
      sys(makeSphConfig(buildPolytropeStar(config.resolution, 1.0,
                                           config.radius).h),
          comm)
{
    // Unit-mass star model, relaxed once; for an n = 1 polytrope the
    // equilibrium geometry is mass-independent, so both stars reuse
    // it with mass-scaled particle masses and energies.
    StarModel unit = buildPolytropeStar(cfg.resolution, 1.0,
                                        cfg.radius);
    unit = relaxStar(unit, cfg);
    rhoCentralRef = unit.rhoCentral * std::max(cfg.m1, cfg.m2);

    auto scaled = [&](double mass) {
        StarModel s = unit;
        for (std::size_t i = 0; i < s.size(); ++i) {
            s.m[i] *= mass;
            s.u[i] *= mass;
        }
        return s;
    };

    const double m_tot = cfg.m1 + cfg.m2;
    const double a = cfg.separation;
    const double x1 = -a * cfg.m2 / m_tot;
    const double x2 = a * cfg.m1 / m_tot;
    // Circular Keplerian orbit in the x-y plane: v_y = omega * x.
    const double omega = std::sqrt(m_tot / cube(a));

    const StarModel primary = scaled(cfg.m1);
    const StarModel secondary = scaled(cfg.m2);
    const double c1[3] = {x1, 0.0, 0.0};
    const double v1[3] = {0.0, omega * x1, 0.0};
    const double c2[3] = {x2, 0.0, 0.0};
    const double v2[3] = {0.0, omega * x2, 0.0};
    placeStar(sys, primary, c1, v1, 0);
    placeStar(sys, secondary, c2, v2, 1);

    sys.computeDensity();
    sys.computeForces();
    recordDiagnostics();
}

bool
WdMergerApp::finished() const
{
    return sys.time() >= cfg.tEnd - 1e-9;
}

double
WdMergerApp::bodySeparation() const
{
    const ParticleSet &p = sys.particles();
    double cx[2] = {0.0, 0.0}, cy[2] = {0.0, 0.0},
           cz[2] = {0.0, 0.0}, cm[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < p.size(); ++i) {
        const int b = p.body[i];
        cm[b] += p.m[i];
        cx[b] += p.m[i] * p.x[i];
        cy[b] += p.m[i] * p.y[i];
        cz[b] += p.m[i] * p.z[i];
    }
    for (int b = 0; b < 2; ++b) {
        if (cm[b] <= 0.0)
            return 0.0;
        cx[b] /= cm[b];
        cy[b] /= cm[b];
        cz[b] /= cm[b];
    }
    return std::sqrt(sqr(cx[0] - cx[1]) + sqr(cy[0] - cy[1]) +
                     sqr(cz[0] - cz[1]));
}

void
WdMergerApp::applyDrag(double dt)
{
    if (mergedFlag)
        return;
    const double sep = bodySeparation();
    if (sep <= cfg.mergeSeparation) {
        mergedFlag = true;
        mergeTime_ = sys.time();
        return;
    }

    // Gravitational-wave-like orbital decay: the bulk velocity of
    // each star is damped toward the system's rest frame at a rate
    // growing as 1/sep^exp, producing the slow-inspiral/fast-plunge
    // shape of the paper's Fig. 6.
    const double rate =
        cfg.dragCoeff / std::pow(sep, cfg.dragExponent);
    const double f = std::max(0.0, 1.0 - rate * dt);

    ParticleSet &p = sys.particles();
    double bvx[2] = {0.0, 0.0}, bvy[2] = {0.0, 0.0},
           bvz[2] = {0.0, 0.0}, bm[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < p.size(); ++i) {
        const int b = p.body[i];
        bm[b] += p.m[i];
        bvx[b] += p.m[i] * p.vx[i];
        bvy[b] += p.m[i] * p.vy[i];
        bvz[b] += p.m[i] * p.vz[i];
    }
    for (int b = 0; b < 2; ++b) {
        bvx[b] /= bm[b];
        bvy[b] /= bm[b];
        bvz[b] /= bm[b];
    }
    for (std::size_t i = 0; i < p.size(); ++i) {
        const int b = p.body[i];
        p.vx[i] += (f - 1.0) * bvx[b];
        p.vy[i] += (f - 1.0) * bvy[b];
        p.vz[i] += (f - 1.0) * bvz[b];
    }

    // Tidal heating: part of the removed orbital kinetic energy
    // reappears as internal energy, spread uniformly per unit mass
    // within each star.
    if (cfg.dragHeatFraction > 0.0) {
        for (int b = 0; b < 2; ++b) {
            const double v2 = sqr(bvx[b]) + sqr(bvy[b]) +
                              sqr(bvz[b]);
            const double removed =
                0.5 * bm[b] * v2 * (1.0 - f * f);
            const double du_per_mass =
                cfg.dragHeatFraction * removed / bm[b];
            for (std::size_t i = 0; i < p.size(); ++i)
                if (p.body[i] == b)
                    p.u[i] += du_per_mass;
        }
    }
}

void
WdMergerApp::maybeDetonate(double dt)
{
    if (!mergedFlag)
        return;

    if (!detonatedFlag) {
        const ParticleSet &p = sys.particles();
        std::size_t densest = 0;
        double rho_max = 0.0;
        for (std::size_t i = 0; i < p.size(); ++i) {
            if (p.rho[i] > rho_max) {
                rho_max = p.rho[i];
                densest = i;
            }
        }

        const bool compression_trigger =
            rho_max > cfg.detonationDensityFactor * rhoCentralRef;
        const bool timeout_trigger =
            sys.time() - mergeTime_ > cfg.detonationMaxWait;
        if (!compression_trigger && !timeout_trigger)
            return;

        detonatedFlag = true;
        detonationTime_ = sys.time();
        ignitionSite = densest;

        // The kick is a single impulse at ignition (repeating it per
        // step would add velocity linearly but energy quadratically);
        // the thermal share burns over detonationDuration below.
        const double kick_frac =
            std::clamp(cfg.detonationKickFraction, 0.0, 1.0);
        detonationBudget = (1.0 - kick_frac) * cfg.detonationEnergy;
        const double kick_energy =
            kick_frac * cfg.detonationEnergy;
        if (kick_energy > 0.0) {
            ParticleSet &pm = sys.particles();
            const double h_dep = 4.0 * sys.config().h;
            double norm = 0.0;
            for (std::size_t i = 0; i < pm.size(); ++i) {
                const double r =
                    std::sqrt(sqr(pm.x[i] - pm.x[densest]) +
                              sqr(pm.y[i] - pm.y[densest]) +
                              sqr(pm.z[i] - pm.z[densest]));
                norm += pm.m[i] * CubicSplineKernel::w(r, h_dep);
            }
            TDFE_ASSERT(norm > 0.0, "empty ignition kernel");
            for (std::size_t i = 0; i < pm.size(); ++i) {
                const double dx = pm.x[i] - pm.x[densest];
                const double dy = pm.y[i] - pm.y[densest];
                const double dz = pm.z[i] - pm.z[densest];
                const double r =
                    std::sqrt(dx * dx + dy * dy + dz * dz);
                const double w = CubicSplineKernel::w(r, h_dep);
                if (w <= 0.0 || r <= 1e-9)
                    continue;
                const double e_share = kick_energy * w / norm;
                const double dv = std::sqrt(2.0 * e_share);
                pm.vx[i] += dv * dx / r;
                pm.vy[i] += dv * dy / r;
                pm.vz[i] += dv * dz / r;
            }
        }
    }

    if (detonationBudget <= 0.0)
        return;

    // Thermonuclear burning: release the thermal share at a finite
    // rate around the fixed ignition site.
    const double release = std::min(
        detonationBudget,
        cfg.detonationEnergy * dt /
            std::max(cfg.detonationDuration, 1e-9));
    detonationBudget -= release;

    ParticleSet &pm = sys.particles();
    const std::size_t densest = ignitionSite;
    const double h_dep = 4.0 * sys.config().h;
    double norm = 0.0;
    for (std::size_t i = 0; i < pm.size(); ++i) {
        const double r =
            std::sqrt(sqr(pm.x[i] - pm.x[densest]) +
                      sqr(pm.y[i] - pm.y[densest]) +
                      sqr(pm.z[i] - pm.z[densest]));
        norm += pm.m[i] * CubicSplineKernel::w(r, h_dep);
    }
    TDFE_ASSERT(norm > 0.0, "empty detonation kernel");
    for (std::size_t i = 0; i < pm.size(); ++i) {
        const double r =
            std::sqrt(sqr(pm.x[i] - pm.x[densest]) +
                      sqr(pm.y[i] - pm.y[densest]) +
                      sqr(pm.z[i] - pm.z[densest]));
        pm.u[i] += release * CubicSplineKernel::w(r, h_dep) / norm;
    }
}

double
WdMergerApp::boundMass() const
{
    const ParticleSet &p = sys.particles();
    double acc = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        const double kin = 0.5 * (sqr(p.vx[i]) + sqr(p.vy[i]) +
                                  sqr(p.vz[i]));
        if (kin + p.phi[i] < 0.0)
            acc += p.m[i];
    }
    return acc;
}

void
WdMergerApp::recordDiagnostics()
{
    // "Temperature" is the mass-weighted mean specific internal
    // energy of the *bound* material (the remnant) — unbound ejecta
    // carry away heat but are no longer part of the merger product,
    // matching the plateauing temperature curves of paper Fig. 8.
    const ParticleSet &p = sys.particles();
    double bound_m = 0.0, u_mean = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        const double kin = 0.5 * (sqr(p.vx[i]) + sqr(p.vy[i]) +
                                  sqr(p.vz[i]));
        if (kin + p.phi[i] < 0.0) {
            bound_m += p.m[i];
            u_mean += p.m[i] * p.u[i];
        }
    }
    u_mean = bound_m > 0.0 ? u_mean / bound_m : 0.0;

    history_[static_cast<int>(DiagVar::Temperature)]
        .push_back(u_mean);
    history_[static_cast<int>(DiagVar::AngularMomentum)]
        .push_back(sys.angularMomentumZ());
    history_[static_cast<int>(DiagVar::Mass)].push_back(boundMass());
    // "Energy" is the total internal energy: it integrates the
    // tidal-heating ramp and the burned detonation energy into one
    // positive, monotone-rising curve, the shape of paper Fig. 7d.
    history_[static_cast<int>(DiagVar::Energy)]
        .push_back(sys.totalInternalEnergy());
}

void
WdMergerApp::advanceDump()
{
    TDFE_ASSERT(!finished(), "advanceDump on a finished run");
    const double target =
        std::min(cfg.tEnd, sys.time() + cfg.dumpInterval);

    long steps = 0;
    while (sys.time() < target - 1e-12) {
        double dt = sys.computeDt();
        dt = std::min(dt, target - sys.time());
        sys.step(dt);
        applyDrag(dt);
        maybeDetonate(dt);
        if (++steps >= cfg.maxStepsPerDump) {
            TDFE_WARN("dump step cap reached at t=", sys.time());
            break;
        }
    }
    recordDiagnostics();
}

double
WdMergerApp::diagnostic(DiagVar var) const
{
    const auto &h = history_[static_cast<int>(var)];
    TDFE_ASSERT(!h.empty(), "no diagnostics recorded yet");
    return h.back();
}

const std::vector<double> &
WdMergerApp::history(DiagVar var) const
{
    return history_[static_cast<int>(var)];
}

void
WdMergerApp::save(BinaryWriter &w) const
{
    w.writeTag("wdmerger");
    sys.save(w);
    // rhoCentralRef is recomputed by the constructor, but the relax
    // phase makes that expensive — carrying it keeps the detonation
    // trigger identical without re-deriving anything.
    w.writeF64(rhoCentralRef);
    w.writeBool(mergedFlag);
    w.writeBool(detonatedFlag);
    w.writeF64(mergeTime_);
    w.writeF64(detonationTime_);
    w.writeF64(detonationBudget);
    w.writeU64(ignitionSite);
    for (const std::vector<double> &h : history_)
        w.writeVec(h);
}

void
WdMergerApp::load(BinaryReader &r)
{
    r.expectTag("wdmerger");
    sys.load(r);
    rhoCentralRef = r.readF64();
    mergedFlag = r.readBool();
    detonatedFlag = r.readBool();
    mergeTime_ = r.readF64();
    detonationTime_ = r.readF64();
    detonationBudget = r.readF64();
    ignitionSite = static_cast<std::size_t>(r.readU64());
    for (std::vector<double> &h : history_)
        r.readVec(h);
}

} // namespace wd

} // namespace tdfe
