/**
 * @file
 * One in-situ feature-extraction analysis: the glue object combining
 * data collection, mini-batch curve fitting, early termination, and
 * feature extraction (threshold break-point or delay-time) for a
 * single diagnostic variable.
 */

#ifndef TDFE_CORE_ANALYSIS_HH
#define TDFE_CORE_ANALYSIS_HH

#include <functional>
#include <memory>
#include <string>

#include "core/ar_model.hh"
#include "core/collector.hh"
#include "core/early_stop.hh"
#include "core/iter_param.hh"
#include "core/predictor.hh"
#include "core/threshold.hh"
#include "core/tracker.hh"
#include "core/trainer.hh"

namespace tdfe
{

class BinaryReader;
class BinaryWriter;
struct FeatureRecord;

/** Data-analysis methods supported by the framework. */
enum class AnalysisMethod
{
    /** The paper's auto-regression curve fitting. */
    CurveFitting = 1,
};

/** Which feature the analysis extracts once the model is trained. */
enum class FeatureKind
{
    /** Largest radius whose peak value meets the threshold
     *  (material break-point, paper Case 1). */
    BreakpointRadius,
    /** Iteration of the strongest gradient change of the fitted
     *  curve (detonation delay time, paper Case 2). */
    DelayTime,
    /** Value of the latest local maximum of the fitted curve. */
    PeakValue,
};

/** Accessor for the diagnostic variable: (domain, location) -> value. */
using VarProvider = std::function<double(void *domain, long loc)>;

/** Full specification of one analysis. */
struct AnalysisConfig
{
    /** Label used in log messages. */
    std::string name = "analysis";
    /** Diagnostic variable accessor. */
    VarProvider provider;
    /** Spatial characteristics (locations), paper `lulesh_loc`. */
    IterParam space{0, 0, 1};
    /** Temporal characteristics (iterations), paper `lulesh_iter`. */
    IterParam time{0, 0, 1};
    /** Data-analysis method ('Curve_Fitting'). */
    AnalysisMethod method = AnalysisMethod::CurveFitting;
    /** Feature extracted after fitting. */
    FeatureKind feature = FeatureKind::BreakpointRadius;
    /** Absolute threshold for BreakpointRadius extraction. */
    double threshold = 0.0;
    /** Outermost location of the break-point search (the domain
     *  radius). Defaults to space.end when <= 0. */
    long searchEnd = 0;
    /** Coarse step of the threshold search refinement. */
    long coarseStep = 4;
    /** Smoothing window for gradient-change (delay-time) tracking. */
    std::size_t smoothWindow = 5;
    /** DelayTime extraction uses the model's fitted curve only when
     *  its one-step error rate (%) stays under this gate; above it
     *  (or when the fit is degenerate) the detector runs on the
     *  collected series instead. */
    double fitQualityGatePct = 50.0;
    /** Location whose curve yields DelayTime/PeakValue features;
     *  defaults to space.begin when < 0. */
    long featureLocation = -1;
    /** Lowest legal location in the domain (lattice clamp). */
    long minLocation = 0;
    /** Request simulation termination once converged (the paper's
     *  `if_simulation_will_terminate`). */
    bool stopWhenConverged = false;
    /** Model and training configuration. */
    ArConfig ar;
};

/**
 * Runtime state of one analysis. Driven by Region::end() every
 * simulation iteration; owns the model, collector, trainer, and
 * early-stop controller.
 */
class CurveFitAnalysis
{
  public:
    /** @param config Full specification (copied). */
    explicit CurveFitAnalysis(AnalysisConfig config);

    /**
     * Ingest one simulation iteration: sample, maybe train.
     * Equivalent to snapshotIteration() + digestIteration(); a
     * Region runs the same two phases, the digest on the pool.
     *
     * @param iter Iteration number (must increase by 1 per call once
     *        sampling has started).
     * @param domain Opaque pointer handed to the provider.
     */
    void onIteration(long iter, void *domain);

    /**
     * Phase 1 (synchronous, cheap): invoke the variable provider to
     * copy the per-location probe values into the reusable staging
     * row. The provider is only ever called from here, so inside a
     * Region it always runs on the caller's thread while the domain
     * is quiescent.
     */
    void snapshotIteration(long iter, void *domain);

    /**
     * Phase 2 (deferrable, heavy): validate and append the staged
     * row, emit training pairs, and run any mini-batch rounds plus
     * early-stop checks they trigger. Never touches the simulation
     * domain, so it may overlap the next solver step. No-op when
     * the matching snapshot was outside the sampling window.
     */
    void digestIteration();

    /** @return true once the model converged (early-stop). */
    bool converged() const { return stopper.converged(); }

    /** @return true once training ended (converged or window done). */
    bool
    trainingFinished(long iter) const
    {
        return converged() || collector_.windowFinished(iter);
    }

    /** @return iteration at which convergence fired (-1 if never). */
    long convergedIteration() const { return convergedIter; }

    /** @return the analysis specification. */
    const AnalysisConfig &config() const { return cfg; }

    /** @return the trained (possibly still-training) model. */
    const ArModel &model() const { return model_; }

    /** @return everything collected so far. */
    const ObservedSeries &observed() const
    {
        return collector_.observed();
    }

    /** @return the collector (tests / diagnostics). */
    const DataCollector &collector() const { return collector_; }

    /** @return rolling validation MSE (normalized space). */
    double lastValidationMse() const
    {
        return trainer_.lastValidationMse();
    }

    /** @return training rounds completed. */
    std::size_t trainingRounds() const { return trainer_.rounds(); }

    /** @return the training round that published the convergence
     *  decision (0: not converged yet) — the model state behind
     *  convergedIteration(), invariant across the sync/async and
     *  strict/relaxed stop-query modes. */
    std::size_t convergedRound() const
    {
        return stopper.convergedRound();
    }

    /**
     * Re-arm the threshold used by BreakpointRadius extraction.
     * Useful when the threshold is a fraction of a reference value
     * only discovered while the simulation runs (e.g. a percentage
     * of the blast's initial velocity).
     */
    void setThreshold(double threshold) { cfg.threshold = threshold; }

    /**
     * Extract the configured feature from the current model + data.
     * Valid any time after the first training round; accuracy
     * improves once trainingFinished().
     */
    double extractFeature() const;

    /** @return detailed break-point (BreakpointRadius only). */
    BreakPoint breakPoint() const;

    /**
     * Latest one-step prediction of the diagnostic at the feature
     * location (the "current predicted value" the paper broadcasts).
     */
    double currentPrediction() const;

    /**
     * Location of the current wave front: the sampled location with
     * the largest latest value.
     */
    long wavefrontLocation() const;

    /**
     * One-step prediction at the feature location for the latest
     * recorded iteration — the cheap per-iteration flavour of
     * currentPrediction() (O(order), no allocation, no full fitted
     * curve). Falls back to the latest observed value while lag
     * sources or training are missing; 0 before any sample.
     */
    double latestPrediction() const;

    /**
     * Fill the per-feature payload of @p rec for the current state:
     * wave-front location, latestPrediction(), rolling validation
     * MSE, and the raw-space fit coefficients written into the first
     * order+1 slots of rec.coeffs (whose size — the store schema's
     * coefficient column count — must already be >= order+1; excess
     * slots are zeroed). Identity fields (iteration, analysis id,
     * stop, wall time) are the region's to set.
     */
    void fillFeatureRecord(FeatureRecord &rec) const;

    /**
     * Checkpoint the analysis state. The configuration is *not*
     * saved: restore by constructing an identical analysis (same
     * AnalysisConfig) and calling load() on it, gem5-checkpoint
     * style.
     * @{ */
    void save(BinaryWriter &w) const;
    void load(BinaryReader &r);
    /** @} */

  private:
    long featureLoc() const;

    AnalysisConfig cfg;
    ArModel model_;
    DataCollector collector_;
    ArTrainer trainer_;
    EarlyStop stopper;
    long convergedIter = -1;
    long lastIter = -1;
    bool windowDone = false;
    /** Staged row awaits digestIteration() (not checkpointed: the
     *  region drains every epoch before saving). */
    bool pendingDigest = false;
    /** Lag scratch of latestPrediction() (query-path bookkeeping,
     *  kept across calls so the sink never allocates). */
    mutable std::vector<double> lagScratch;
};

} // namespace tdfe

#endif // TDFE_CORE_ANALYSIS_HH
