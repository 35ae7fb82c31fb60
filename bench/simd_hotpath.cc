/**
 * @file
 * SIMD/layout hot-path baseline for the packed-design-matrix
 * refactor. Two sweeps:
 *
 * 1. Training sweep (AR order x batch size): the production packed
 *    path (PackedBatch + ArTrainer's in-place normalize + stride-1
 *    SGD) against an in-bench replica of the legacy AoS path (one
 *    heap vector per sample, ragged gradient loops, per-sample
 *    normalize scratch — the exact code the refactor replaced).
 *    Gates: final normalized coefficients and a probe prediction
 *    must be *bitwise* identical, and the packed per-round cost must
 *    not exceed the legacy cost (small tolerance for timer noise;
 *    the recorded ratios are the real payload).
 *
 * 2. Grid sweep (clover2d size x thread count): the flattened
 *    pointer-stride solver driving two in-situ analyses; features,
 *    predictions, and analysis checkpoint hashes must be identical
 *    across thread counts (the determinism gate the layout refactor
 *    must preserve), with per-step solver cost recorded.
 *
 * Writes bench_to_json results (BENCH_PR4.json protocol, see
 * PERF.md). Exit 1 when any gate fails. On a single-core container
 * the timings certify the cost ordering, not SIMD speedups — build
 * with TDFE_NATIVE=ON on a real host to measure the vector width
 * headroom (that build intentionally breaks the bitwise gates here,
 * so the JSON is only recorded from the default build).
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "base/serial.hh"
#include "base/thread_pool.hh"
#include "clover2d/app.hh"
#include "core/analysis.hh"
#include "core/ar_model.hh"
#include "core/trainer.hh"
#include "stats/minibatch.hh"
#include "stats/sgd.hh"
#include "stats/standardizer.hh"

using namespace tdfe;
using namespace tdfe::bench;

namespace
{

// --------------------------------------------------------------------
// Legacy AoS reference: the pre-refactor layout and loop nests,
// replicated verbatim so the comparison is layout-vs-layout with
// identical arithmetic.
// --------------------------------------------------------------------

struct LegacySample
{
    std::vector<double> x;
    double y = 0.0;
};

/** Pre-refactor MiniBatch: one heap vector per sample slot. */
struct LegacyBatch
{
    LegacyBatch(std::size_t capacity, std::size_t dims)
        : storage(capacity)
    {
        for (auto &s : storage)
            s.x.resize(dims, 0.0);
    }

    void
    push(const std::vector<double> &x, double y)
    {
        LegacySample &slot = storage[used];
        slot.x = x;
        slot.y = y;
        ++used;
    }

    void clear() { used = 0; }

    std::vector<LegacySample> storage;
    std::size_t used = 0;
};

/** Pre-refactor SgdOptimizer (ragged gradient loops). */
struct LegacySgd
{
    LegacySgd(std::size_t dims, const SgdConfig &config)
        : cfg(config), velocity(dims + 1, 0.0),
          gradScratch(dims + 1, 0.0)
    {
    }

    double
    gradient(const std::vector<double> &coeffs,
             const LegacyBatch &batch, std::vector<double> &grad)
    {
        const std::size_t n = batch.used;
        const double inv_n = 1.0 / static_cast<double>(n);
        std::fill(grad.begin(), grad.end(), 0.0);
        double mse = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const LegacySample &s = batch.storage[i];
            double pred = coeffs[0];
            for (std::size_t d = 0; d < s.x.size(); ++d)
                pred += coeffs[d + 1] * s.x[d];
            const double err = pred - s.y;
            mse += err * err;
            grad[0] += 2.0 * err * inv_n;
            for (std::size_t d = 0; d < s.x.size(); ++d)
                grad[d + 1] += 2.0 * err * s.x[d] * inv_n;
        }
        for (std::size_t d = 1; d < coeffs.size(); ++d)
            grad[d] += 2.0 * cfg.l2 * coeffs[d];
        return mse * inv_n;
    }

    double
    trainRound(std::vector<double> &coeffs, const LegacyBatch &batch)
    {
        std::vector<double> &grad = gradScratch;
        double pre_update_mse = 0.0;
        for (std::size_t epoch = 0; epoch < cfg.epochsPerBatch;
             ++epoch) {
            const double mse = gradient(coeffs, batch, grad);
            if (epoch == 0)
                pre_update_mse = mse;
            if (cfg.gradClip > 0.0) {
                double norm2 = 0.0;
                for (const double g : grad)
                    norm2 += g * g;
                const double norm = std::sqrt(norm2);
                if (norm > cfg.gradClip) {
                    const double scale = cfg.gradClip / norm;
                    for (double &g : grad)
                        g *= scale;
                }
            }
            for (std::size_t d = 0; d < coeffs.size(); ++d) {
                velocity[d] = cfg.momentum * velocity[d] -
                              cfg.learningRate * grad[d];
                coeffs[d] += velocity[d];
            }
        }
        return pre_update_mse;
    }

    SgdConfig cfg;
    std::vector<double> velocity;
    std::vector<double> gradScratch;
};

/** Pre-refactor ArTrainer round: per-sample observe/normalize with
 *  a scratch copy, AoS re-push, ragged SGD. */
struct LegacyTrainer
{
    LegacyTrainer(std::size_t order, const ArConfig &cfg)
        : stdzr(order), optimizer(order, cfg.sgd),
          normBatch(cfg.batchSize, order),
          coeffs(order + 1, 0.0), xScratch(order, 0.0)
    {
    }

    double
    trainRound(const LegacyBatch &batch)
    {
        for (std::size_t i = 0; i < batch.used; ++i) {
            const LegacySample &s = batch.storage[i];
            stdzr.observe(s.x, s.y);
        }
        normBatch.clear();
        for (std::size_t i = 0; i < batch.used; ++i) {
            const LegacySample &s = batch.storage[i];
            xScratch = s.x;
            stdzr.normalize(xScratch);
            normBatch.push(xScratch, stdzr.normalizeTarget(s.y));
        }
        return optimizer.trainRound(coeffs, normBatch);
    }

    Standardizer stdzr;
    LegacySgd optimizer;
    LegacyBatch normBatch;
    std::vector<double> coeffs;
    std::vector<double> xScratch;
};

/**
 * Deterministic layout-neutral sample source: the concatenated
 * staging rows the collector would hand to either layout (rounds *
 * batch feature rows plus a target column). Both runners replay the
 * *same* production ingestion protocol from it — fill the collector
 * lag scratch, push into the round batch — so the timed difference
 * is purely the batch layout and the kernels over it.
 */
struct SampleSource
{
    std::size_t order = 0;
    std::size_t batchSize = 0;
    std::size_t rounds = 0;
    std::vector<double> rows;
    std::vector<double> targets;

    SampleSource(std::size_t order, std::size_t batch_size,
                 std::size_t n_rounds)
        : order(order), batchSize(batch_size), rounds(n_rounds),
          rows(n_rounds * batch_size * order),
          targets(n_rounds * batch_size)
    {
        Rng rng(1000u +
                static_cast<unsigned>(order * 37 + batch_size));
        for (std::size_t s = 0; s < targets.size(); ++s) {
            double *row = rows.data() + s * order;
            double acc = 0.25;
            for (std::size_t d = 0; d < order; ++d) {
                row[d] = rng.normal(0.0, 1.0 + 0.05 * d);
                acc += (d % 2 ? -0.3 : 0.6) * row[d];
            }
            targets[s] = acc + rng.normal(0.0, 0.02);
        }
    }
};

struct TrainOutcome
{
    double secPerRound = 0.0;
    std::vector<double> coeffs;
    double probePrediction = 0.0;
};

TrainOutcome
runPacked(const ArConfig &cfg, const SampleSource &src)
{
    const std::size_t order = src.order;
    ArModel model(cfg);
    ArTrainer trainer(model);
    PackedBatch batch(cfg.batchSize, order);
    std::vector<double> lagScratch(order, 0.0);
    const std::vector<double> probe(order, 0.37);

    Timer t;
    std::size_t s = 0;
    for (std::size_t r = 0; r < src.rounds; ++r) {
        batch.clear();
        for (std::size_t i = 0; i < src.batchSize; ++i, ++s) {
            // Production DataCollector protocol: gather the lags
            // into the reusable scratch row, then push.
            const double *row = src.rows.data() + s * order;
            for (std::size_t d = 0; d < order; ++d)
                lagScratch[d] = row[d];
            batch.push(lagScratch.data(), src.targets[s]);
        }
        trainer.trainRound(batch);
    }
    TrainOutcome out;
    out.secPerRound = t.elapsed() / static_cast<double>(src.rounds);
    out.coeffs = model.normCoeffs();
    out.probePrediction = model.predict(probe);
    return out;
}

TrainOutcome
runLegacy(const ArConfig &cfg, const SampleSource &src)
{
    const std::size_t order = src.order;
    LegacyTrainer trainer(order, cfg);
    LegacyBatch batch(cfg.batchSize, order);
    std::vector<double> lagScratch(order, 0.0);
    const std::vector<double> probe(order, 0.37);

    Timer t;
    std::size_t s = 0;
    for (std::size_t r = 0; r < src.rounds; ++r) {
        batch.clear();
        for (std::size_t i = 0; i < src.batchSize; ++i, ++s) {
            const double *row = src.rows.data() + s * order;
            for (std::size_t d = 0; d < order; ++d)
                lagScratch[d] = row[d];
            batch.push(lagScratch, src.targets[s]);
        }
        trainer.trainRound(batch);
    }
    TrainOutcome out;
    out.secPerRound = t.elapsed() / static_cast<double>(src.rounds);
    out.coeffs = trainer.coeffs;
    // Replica of ArModel::predict over the legacy state.
    double acc = trainer.coeffs[0];
    for (std::size_t d = 0; d < order; ++d) {
        const double xn = (probe[d] - trainer.stdzr.featureMean(d)) /
                          trainer.stdzr.featureStd(d);
        acc += trainer.coeffs[d + 1] * xn;
    }
    out.probePrediction = trainer.stdzr.denormalizeTarget(acc);
    return out;
}

// --------------------------------------------------------------------
// Grid sweep: flattened clover2d solver + in-situ analyses, feature
// digests compared across thread counts.
// --------------------------------------------------------------------

struct GridResult
{
    double stepSecPerIter = 0.0;
    std::vector<double> features;
    std::vector<double> predictions;
    std::uint64_t checkpointHash = 0;

    bool
    sameDigest(const GridResult &o) const
    {
        return features == o.features &&
               predictions == o.predictions &&
               checkpointHash == o.checkpointHash;
    }
};

GridResult
runGrid(int size, long steps)
{
    clover::CloverAppConfig cfg;
    cfg.size = size;
    cfg.maxIterations = steps + 1;
    clover::CloverField field(cfg);

    const long span = std::min<long>(20, size - 2);
    const long t_begin = std::max<long>(4, steps / 10);
    const long t_end = std::max(t_begin + 16, (steps * 3) / 5);

    AnalysisConfig bp;
    bp.name = "breakpoint";
    bp.provider = [](void *domain, long loc) {
        return static_cast<clover::CloverField *>(domain)->fieldAt(
            loc);
    };
    bp.space = IterParam(1, span, 1);
    bp.time = IterParam(t_begin, t_end, 1);
    bp.feature = FeatureKind::BreakpointRadius;
    bp.threshold = 0.05;
    bp.searchEnd = size;
    bp.minLocation = 1;
    bp.ar.axis = LagAxis::Space;
    bp.ar.order = 3;
    bp.ar.lag = 2;
    bp.ar.batchSize = 16;

    AnalysisConfig dt = bp;
    dt.name = "delay";
    dt.feature = FeatureKind::DelayTime;
    dt.featureLocation = std::min<long>(6, span);
    dt.ar.axis = LagAxis::Time;
    dt.ar.order = 8;
    dt.ar.lag = 1;

    // CurveFitAnalysis pins internal references (trainer -> model),
    // so the objects are named rather than stored in a vector.
    CurveFitAnalysis an_bp(bp);
    CurveFitAnalysis an_dt(dt);
    CurveFitAnalysis *const analyses[2] = {&an_bp, &an_dt};

    Timer t;
    for (long s = 0; s < steps; ++s) {
        clover::Timestep(field);
        clover::HydroCycle(field);
        field.gatherProbes();
        for (CurveFitAnalysis *an : analyses)
            an->onIteration(s, &field);
    }

    GridResult out;
    out.stepSecPerIter = t.elapsed() / static_cast<double>(steps);
    std::string bytes;
    BinaryWriter w(bytes);
    for (CurveFitAnalysis *an : analyses) {
        out.features.push_back(an->extractFeature());
        out.predictions.push_back(an->currentPrediction());
        an->save(w);
    }
    out.checkpointHash = fnv1a(bytes);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("SIMD hot-path layout baseline: packed vs legacy "
                   "training cost and pointer-stride hydro sweep");
    args.addString("orders", "1,4,8,32",
                   "AR orders to sweep (comma-separated)");
    args.addString("batches", "16,64,256",
                   "mini-batch sizes to sweep");
    args.addInt("rounds", 0,
                "training rounds per cell (0: auto-scale so each "
                "cell does comparable work)");
    args.addInt("reps", 3, "repetitions (best timing is kept)");
    args.addString("sizes", "48,96",
                   "clover2d grid sizes for the hydro sweep");
    args.addInt("steps", 240, "clover2d cycles per grid run");
    args.addString("threads", "1,2,4",
                   "thread counts for the grid digest gate");
    args.addString("cost-gate", "1.05",
                   "fail when packed/legacy exceeds this ratio "
                   "(loosen for smoke runs whose cells are too "
                   "small to time; the bitwise gate never loosens)");
    args.addString("json", "",
                   "write results to this JSON file (empty: skip)");
    args.parse(argc, argv);
    setLogQuiet(true);

    const auto orders = ArgParser::parseIntList(args.getString("orders"));
    const auto batches =
        ArgParser::parseIntList(args.getString("batches"));
    const auto sizes = ArgParser::parseIntList(args.getString("sizes"));
    const auto threads =
        ArgParser::parseIntList(args.getString("threads"));
    const int reps = static_cast<int>(args.getInt("reps"));
    const long steps = args.getInt("steps");
    const double cost_gate = std::stod(args.getString("cost-gate"));

    banner("SIMD hot path: packed design matrix vs legacy AoS",
           "equality gates are bitwise; timings are best of " +
               std::to_string(reps));

    std::vector<BenchRecord> records;
    bool gates_ok = true;

    // ---------------------------------------------------- training sweep
    AsciiTable train_table({"Order", "Batch", "legacy us/round",
                            "packed us/round", "packed/legacy",
                            "bitwise"});
    for (const long order_l : orders) {
        const std::size_t order = static_cast<std::size_t>(order_l);
        for (const long bs_l : batches) {
            const std::size_t bs = static_cast<std::size_t>(bs_l);

            ArConfig cfg;
            cfg.order = order;
            cfg.batchSize = bs;

            std::size_t rounds =
                static_cast<std::size_t>(args.getInt("rounds"));
            if (rounds == 0) {
                // Keep per-cell work roughly constant: the round
                // cost scales with batch * order.
                rounds = std::max<std::size_t>(
                    40, 200000 / std::max<std::size_t>(
                                     1, bs * order));
            }
            const SampleSource stream(order, bs, rounds);

            TrainOutcome packed, legacy;
            packed.secPerRound = 1e30;
            legacy.secPerRound = 1e30;
            bool cell_bitwise = true;
            for (int rep = 0; rep < reps; ++rep) {
                TrainOutcome p = runPacked(cfg, stream);
                TrainOutcome l = runLegacy(cfg, stream);
                cell_bitwise = cell_bitwise &&
                               p.coeffs == l.coeffs &&
                               p.probePrediction ==
                                   l.probePrediction;
                if (p.secPerRound < packed.secPerRound)
                    packed = std::move(p);
                if (l.secPerRound < legacy.secPerRound)
                    legacy = std::move(l);
            }

            const double ratio =
                legacy.secPerRound > 0.0
                    ? packed.secPerRound / legacy.secPerRound
                    : 0.0;
            // The cost gate tolerates timer noise (default 5%); the
            // equality gate tolerates nothing.
            const bool cost_ok = ratio <= cost_gate;
            gates_ok = gates_ok && cell_bitwise && cost_ok;

            train_table.addRow(
                {std::to_string(order), std::to_string(bs),
                 AsciiTable::fmt(1e6 * legacy.secPerRound, 2),
                 AsciiTable::fmt(1e6 * packed.secPerRound, 2),
                 AsciiTable::fmt(ratio, 3),
                 cell_bitwise ? (cost_ok ? "yes" : "SLOW")
                              : "NO"});

            BenchRecord rec;
            rec.name = "train_o" + std::to_string(order) + "_b" +
                       std::to_string(bs);
            rec.metrics["order"] = static_cast<double>(order);
            rec.metrics["batch"] = static_cast<double>(bs);
            rec.metrics["rounds"] = static_cast<double>(rounds);
            rec.metrics["legacy_sec_per_round"] = legacy.secPerRound;
            rec.metrics["packed_sec_per_round"] = packed.secPerRound;
            rec.metrics["packed_vs_legacy"] = ratio;
            rec.metrics["bitwise_equal"] = cell_bitwise ? 1.0 : 0.0;
            records.push_back(rec);
        }
    }
    train_table.print();

    // -------------------------------------------------------- grid sweep
    AsciiTable grid_table({"Grid", "Threads", "step ms/it",
                           "digest ok"});
    for (const long size_l : sizes) {
        const int size = static_cast<int>(size_l);
        GridResult ref;
        bool have_ref = false;
        for (const long t : threads) {
            setGlobalThreadCount(static_cast<int>(t));
            GridResult r = runGrid(size, steps);
            setGlobalThreadCount(1);
            if (!have_ref) {
                ref = r;
                have_ref = true;
            }
            const bool match = ref.sameDigest(r);
            gates_ok = gates_ok && match;
            grid_table.addRow(
                {std::to_string(size), std::to_string(t),
                 AsciiTable::fmt(1e3 * r.stepSecPerIter, 3),
                 match ? "yes" : "NO"});

            BenchRecord rec;
            rec.name = "grid_s" + std::to_string(size) + "_t" +
                       std::to_string(t);
            rec.metrics["grid"] = static_cast<double>(size);
            rec.metrics["threads"] = static_cast<double>(t);
            rec.metrics["step_sec_per_iter"] = r.stepSecPerIter;
            rec.metrics["digest_matches_ref"] = match ? 1.0 : 0.0;
            for (std::size_t a = 0; a < r.features.size(); ++a) {
                rec.metrics["feature_" + std::to_string(a)] =
                    r.features[a];
            }
            records.push_back(rec);
        }
    }
    grid_table.print();

    if (!gates_ok)
        std::printf("!! simd_hotpath gate FAILED: packed layout "
                    "diverged from legacy or regressed in cost\n");

    const std::string json = args.getString("json");
    if (!json.empty()) {
        std::map<std::string, std::string> meta;
        meta["bench"] = "simd_hotpath";
        meta["steps"] = std::to_string(steps);
        meta["reps"] = std::to_string(reps);
        meta["hardware_threads"] = std::to_string(
            std::thread::hardware_concurrency());
        meta["gates_ok"] = gates_ok ? "true" : "false";
        if (!bench_to_json(json, meta, records)) {
            std::printf("!! failed to write %s\n", json.c_str());
            return 1;
        }
        std::printf("-- wrote %s\n", json.c_str());
    }
    return gates_ok ? 0 : 1;
}
