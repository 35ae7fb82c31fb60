/**
 * @file
 * Telemetry overhead gate: the instrumented clover2d loop and the
 * blast harness run with telemetry off and with metrics + tracing
 * on, and the bench enforces the PR's acceptance bars:
 *
 *  1. Cost: best-of-reps wall time with telemetry on must stay
 *     within --cost-gate (default 1.03x) of telemetry off, on both
 *     workloads. Updates are per-thread sharded relaxed atomics and
 *     span recording is a ring-buffer store, so the budget is tight
 *     on purpose.
 *  2. Bitwise identity: features, predictions, training rounds, and
 *     the analyses' checkpoint bytes must be identical with
 *     telemetry on and off (and across reps) — observation must not
 *     steer the physics.
 *  3. Trace fidelity: an exported Chrome trace must parse (with the
 *     in-tree obs::parseJson), spans on each thread must nest, and
 *     the summed "region.exposed.*" span durations must reproduce
 *     Region::overheadSeconds() to 1e-9 after the JSON round trip —
 *     the spans *are* the accumulator (see obs/trace.hh).
 *  4. Overlap story: with a multi-thread pool and async analyses,
 *     "region.digest" spans must sit on pool-worker threads,
 *     disjoint from the app thread carrying "region.exposed.*" —
 *     the PR-2/PR-3 hidden-work picture, reconstructed from the
 *     trace alone.
 *
 * Exits nonzero when any gate fails. Writes results via
 * bench_to_json with the final metrics snapshot embedded, so
 * BENCH_PR10.json carries counter evidence of the gated run.
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/serial.hh"
#include "base/thread_pool.hh"
#include "clover2d/app.hh"
#include "core/region.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace tdfe;
using namespace tdfe::bench;

namespace
{

/** One instrumented clover run: wall time plus the full digest. */
struct CloverRun
{
    double seconds = 0.0;
    double overheadSeconds = 0.0;
    long iterations = 0;
    std::vector<double> features;
    std::vector<double> predictions;
    std::vector<double> rounds;
    std::uint64_t checkpointHash = 0;
};

std::uint64_t
hashAnalyses(Region &region)
{
    std::ostringstream os;
    BinaryWriter w(os);
    for (std::size_t a = 0; a < region.analysisCount(); ++a)
        region.analysis(a).save(w);
    return fnv1a(os.str());
}

/** Same three analyses as bench/async_pipeline: break-point,
 *  delay-time, and peak tracking, so the digest covers every
 *  feature kind. */
void
addAnalyses(Region &region, int size, long steps)
{
    const long span = std::min<long>(24, size - 2);
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
    region.addAnalysis(bp);

    AnalysisConfig dt = bp;
    dt.name = "delay";
    dt.feature = FeatureKind::DelayTime;
    dt.featureLocation = std::min<long>(6, span);
    dt.ar.axis = LagAxis::Time;
    dt.ar.order = 4;
    dt.ar.lag = 1;
    region.addAnalysis(dt);

    AnalysisConfig pk = bp;
    pk.name = "peak";
    pk.feature = FeatureKind::PeakValue;
    pk.featureLocation = std::min<long>(3, span);
    region.addAnalysis(pk);
}

CloverRun
runClover(int size, long steps, bool telemetry, bool async)
{
    obs::setMetricsEnabled(telemetry);
    obs::setTraceEnabled(telemetry);
    if (telemetry)
        obs::clearTrace(); // one rep per ring fill

    clover::CloverAppConfig cfg;
    cfg.size = size;
    cfg.maxIterations = steps + 1;
    clover::CloverField field(cfg);

    Region region("obs_overhead", &field);
    region.setAsyncAnalyses(async);
    addAnalyses(region, size, steps);

    Timer timer;
    for (long s = 0; s < steps; ++s) {
        region.begin();
        {
            static obs::Counter stepsC("solver.steps_total");
            obs::SpanTimer step("solver.step", "solver");
            clover::Timestep(field);
            clover::HydroCycle(field);
            stepsC.add();
        }
        field.gatherProbes();
        region.end();
    }

    CloverRun out;
    out.iterations = region.iteration();
    for (std::size_t a = 0; a < region.analysisCount(); ++a) {
        const CurveFitAnalysis &an = region.analysis(a);
        out.features.push_back(an.extractFeature());
        out.predictions.push_back(an.currentPrediction());
        out.rounds.push_back(
            static_cast<double>(an.trainingRounds()));
    }
    out.checkpointHash = hashAnalyses(region);
    // After every draining query above, so the final value is what
    // the trace must reproduce.
    out.overheadSeconds = region.overheadSeconds();
    out.seconds = timer.elapsed();

    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    return out;
}

bool
sameCloverDigest(const CloverRun &a, const CloverRun &b)
{
    return a.iterations == b.iterations && a.features == b.features &&
           a.predictions == b.predictions && a.rounds == b.rounds &&
           a.checkpointHash == b.checkpointHash;
}

/** One blast harness run under the standard instrumented options. */
struct BlastRun
{
    double seconds = 0.0;
    long iterations = 0;
    double feature = 0.0;
    double validationMse = 0.0;
    long convergedIteration = 0;
};

BlastRun
runBlastOnce(const BlastTruth &truth, bool telemetry)
{
    obs::setMetricsEnabled(telemetry);
    obs::setTraceEnabled(telemetry);
    if (telemetry)
        obs::clearTrace();

    blast::RunOptions opt;
    opt.instrument = true;
    opt.analysis = blastAnalysis(
        truth, 0.4, 0.05 * truth.run.initialVelocity);
    const blast::RunResult r =
        blast::runBlast(truth.config, nullptr, opt);

    BlastRun out;
    out.seconds = r.seconds;
    out.iterations = r.iterations;
    out.feature = r.featureValue;
    out.validationMse = r.validationMse;
    out.convergedIteration = r.convergedIteration;

    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    return out;
}

bool
sameBlastDigest(const BlastRun &a, const BlastRun &b)
{
    return a.iterations == b.iterations && a.feature == b.feature &&
           a.validationMse == b.validationMse &&
           a.convergedIteration == b.convergedIteration;
}

/**
 * Validate one exported trace document against the run that
 * produced it. Checks schema, event shape, per-thread nesting, the
 * exposed-time derivation, and (given a multi-thread pool) the
 * digest-on-workers overlap story. @return true and fill
 * @p derived_exposed on success; prints the failure otherwise.
 */
bool
validateTrace(const std::string &json, double region_overhead,
              bool expect_overlap, double &derived_exposed)
{
    obs::JsonValue doc;
    std::string error;
    if (!obs::parseJson(json, doc, error)) {
        std::printf("!! trace does not parse: %s\n", error.c_str());
        return false;
    }
    if (doc.stringAt("schema") != "tdfe.trace.v1") {
        std::printf("!! trace schema mismatch: \"%s\"\n",
                    doc.stringAt("schema").c_str());
        return false;
    }
    const obs::JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray() || events->items.empty()) {
        std::printf("!! trace has no traceEvents\n");
        return false;
    }

    // Per-thread nesting: spans record at *stop* time, so children
    // precede parents in the ring. Re-sort each thread's intervals
    // by start (ties: longest first); nesting then means no span
    // partially overlaps the enclosing open span.
    std::map<double, std::vector<std::pair<double, double>>> perTid;
    std::set<double> exposedTids, digestTids;
    double exposed_us = 0.0;
    std::size_t digest_spans = 0;
    for (const obs::JsonValue &e : events->items) {
        const std::string name = e.stringAt("name");
        if (name.empty() || !e.find("tid") || !e.find("ts")) {
            std::printf("!! malformed trace event\n");
            return false;
        }
        if (e.stringAt("ph") != "X")
            continue;
        const double tid = e.numberAt("tid");
        const double ts = e.numberAt("ts");
        const double dur = e.numberAt("dur");
        perTid[tid].push_back({ts, ts + dur});
        if (name.rfind("region.exposed.", 0) == 0) {
            // Same doubles, same order as the overhead accumulator
            // (all exposed spans live on the app thread).
            exposed_us += dur;
            exposedTids.insert(tid);
        }
        if (name == "region.digest") {
            ++digest_spans;
            digestTids.insert(tid);
        }
    }
    for (auto &kv : perTid) {
        std::vector<std::pair<double, double>> &spans = kv.second;
        std::sort(spans.begin(), spans.end(),
                  [](const std::pair<double, double> &a,
                     const std::pair<double, double> &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second > b.second;
                  });
        std::vector<std::pair<double, double>> stack;
        for (const auto &span : spans) {
            while (!stack.empty() &&
                   span.first >= stack.back().second)
                stack.pop_back();
            if (!stack.empty() &&
                span.second > stack.back().second) {
                std::printf("!! spans on tid %.0f do not nest\n",
                            kv.first);
                return false;
            }
            stack.push_back(span);
        }
    }

    derived_exposed = exposed_us / 1e6;
    if (std::fabs(derived_exposed - region_overhead) > 1e-9) {
        std::printf("!! derived exposed time %.12f != "
                    "overheadSeconds %.12f (|d| = %.3g)\n",
                    derived_exposed, region_overhead,
                    std::fabs(derived_exposed - region_overhead));
        return false;
    }

    if (expect_overlap) {
        if (digest_spans == 0) {
            std::printf("!! async run recorded no region.digest "
                        "spans\n");
            return false;
        }
        // The drain path may fold a few digests into the app thread
        // at query time, so the story is: *some* digest work ran on
        // a pool worker that carries no exposed spans.
        bool hidden = false;
        for (const double t : digestTids)
            if (!exposedTids.count(t))
                hidden = true;
        if (!hidden) {
            std::printf("!! every region.digest span is on the app "
                        "thread — no hidden work in the trace\n");
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Telemetry overhead + trace fidelity gate "
                   "(clover2d loop and blast harness with metrics/"
                   "tracing off vs on)");
    args.addInt("size", 64, "clover2d interior cells per axis");
    args.addInt("steps", 640, "instrumented clover cycles per run");
    args.addInt("blast-size", 16, "blast domain size");
    args.addInt("reps", 5, "repetitions (best wall time counts)");
    args.addDouble("cost-gate", 1.03,
                   "max telemetry-on / telemetry-off wall-time "
                   "ratio");
    args.addString("json", "",
                   "write results to this JSON file (empty: skip)");
    args.parse(argc, argv);
    setLogQuiet(true);

    const int size = static_cast<int>(args.getInt("size"));
    const long steps = args.getInt("steps");
    const int blast_size =
        static_cast<int>(args.getInt("blast-size"));
    const int reps = static_cast<int>(args.getInt("reps"));
    const double gate = args.getDouble("cost-gate");

    banner("Telemetry overhead: clover2d " + std::to_string(size) +
               "^2 x " + std::to_string(steps) + " cycles + blast " +
               std::to_string(blast_size) + "^3",
           "gate: on/off wall ratio <= " + AsciiTable::fmt(gate, 2) +
               ", digests bitwise identical, trace-derived exposed "
               "time == overheadSeconds to 1e-9");

    bool ok = true;

    // ---- clover: off vs on, digest across everything. The gated
    // ratio is the *minimum paired* on/off ratio across reps:
    // adjacent runs share machine state, so pairing cancels the
    // slow load drift a best-of-mins comparison is exposed to; the
    // minimum is the best evidence of the true per-step cost.
    CloverRun clover_off, clover_on;
    clover_off.seconds = clover_on.seconds = 1e30;
    CloverRun clover_ref;
    bool have_ref = false;
    double clover_ratio = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        // Alternate which mode runs first so ordering itself is not
        // a bias either.
        const bool first_on = (rep % 2) != 0;
        double rep_off = 0.0, rep_on = 0.0;
        for (const bool telemetry : {first_on, !first_on}) {
            const CloverRun r =
                runClover(size, steps, telemetry, false);
            if (!have_ref) {
                clover_ref = r;
                have_ref = true;
            } else if (!sameCloverDigest(clover_ref, r)) {
                std::printf("!! clover digest diverged (telemetry "
                            "%s, rep %d)\n",
                            telemetry ? "on" : "off", rep);
                ok = false;
            }
            (telemetry ? rep_on : rep_off) = r.seconds;
            CloverRun &best = telemetry ? clover_on : clover_off;
            if (r.seconds < best.seconds)
                best = r;
        }
        clover_ratio = std::min(clover_ratio, rep_on / rep_off);
    }

    // ---- blast: same protocol through the harness.
    BlastTruth truth(blast_size);
    BlastRun blast_off, blast_on;
    blast_off.seconds = blast_on.seconds = 1e30;
    BlastRun blast_ref;
    bool have_blast_ref = false;
    double blast_ratio = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const bool first_on = (rep % 2) != 0;
        double rep_off = 0.0, rep_on = 0.0;
        for (const bool telemetry : {first_on, !first_on}) {
            const BlastRun r = runBlastOnce(truth, telemetry);
            if (!have_blast_ref) {
                blast_ref = r;
                have_blast_ref = true;
            } else if (!sameBlastDigest(blast_ref, r)) {
                std::printf("!! blast digest diverged (telemetry "
                            "%s, rep %d)\n",
                            telemetry ? "on" : "off", rep);
                ok = false;
            }
            (telemetry ? rep_on : rep_off) = r.seconds;
            BlastRun &best = telemetry ? blast_on : blast_off;
            if (r.seconds < best.seconds)
                best = r;
        }
        blast_ratio = std::min(blast_ratio, rep_on / rep_off);
    }

    AsciiTable table({"Workload", "off s", "on s", "min on/off",
                      "gate", "digest ok"});
    table.addRow({"clover2d", AsciiTable::fmt(clover_off.seconds, 4),
                  AsciiTable::fmt(clover_on.seconds, 4),
                  AsciiTable::fmt(clover_ratio, 3),
                  AsciiTable::fmt(gate, 2), ok ? "yes" : "NO"});
    table.addRow({"blast", AsciiTable::fmt(blast_off.seconds, 4),
                  AsciiTable::fmt(blast_on.seconds, 4),
                  AsciiTable::fmt(blast_ratio, 3),
                  AsciiTable::fmt(gate, 2), ok ? "yes" : "NO"});
    table.print();

    if (clover_ratio > gate) {
        std::printf("!! clover telemetry cost %.3fx exceeds the "
                    "%.2fx gate\n",
                    clover_ratio, gate);
        ok = false;
    }
    if (blast_ratio > gate) {
        std::printf("!! blast telemetry cost %.3fx exceeds the "
                    "%.2fx gate\n",
                    blast_ratio, gate);
        ok = false;
    }

    // ---- trace fidelity: a dedicated traced run per mode. The sync
    // run checks the derivation on the app thread alone; the async
    // run (forced 2-thread pool) additionally reconstructs the
    // digest-on-workers overlap story.
    double derived_sync = 0.0, derived_async = 0.0;
    {
        const CloverRun r = runClover(size, steps, true, false);
        const std::string trace = obs::exportChromeTrace();
        if (!validateTrace(trace, r.overheadSeconds, false,
                           derived_sync))
            ok = false;
        else if (!sameCloverDigest(clover_ref, r))
            ok = false;
    }
    setGlobalThreadCount(2);
    {
        const CloverRun r = runClover(size, steps, true, true);
        const std::string trace = obs::exportChromeTrace();
        if (!validateTrace(trace, r.overheadSeconds, true,
                           derived_async))
            ok = false;
        else if (!sameCloverDigest(clover_ref, r))
            ok = false;
    }
    setGlobalThreadCount(1);
    std::printf("-- trace-derived exposed time: sync %.6f s, async "
                "%.6f s (both == overheadSeconds to 1e-9: %s)\n",
                derived_sync, derived_async, ok ? "yes" : "NO");

    // ---- counter evidence for the JSON: one fresh telemetry-on
    // clover run against a zeroed registry.
    obs::resetMetrics();
    runClover(size, steps, true, false);
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    if (snap.counter("solver.steps_total") !=
        static_cast<std::uint64_t>(steps)) {
        std::printf("!! solver.steps_total = %llu, expected %ld\n",
                    static_cast<unsigned long long>(
                        snap.counter("solver.steps_total")),
                    steps);
        ok = false;
    }
    if (snap.counter("region.snapshots_total") == 0) {
        std::printf("!! region.snapshots_total is zero\n");
        ok = false;
    }

    const std::string json = args.getString("json");
    if (!json.empty()) {
        std::vector<BenchRecord> records;
        for (const bool telemetry : {false, true}) {
            BenchRecord rec;
            rec.name = std::string("clover_") +
                       (telemetry ? "on" : "off");
            const CloverRun &r = telemetry ? clover_on : clover_off;
            rec.metrics["seconds"] = r.seconds;
            rec.metrics["overhead_seconds"] = r.overheadSeconds;
            rec.metrics["iterations"] =
                static_cast<double>(r.iterations);
            records.push_back(rec);

            BenchRecord brec;
            brec.name = std::string("blast_") +
                        (telemetry ? "on" : "off");
            const BlastRun &b = telemetry ? blast_on : blast_off;
            brec.metrics["seconds"] = b.seconds;
            brec.metrics["iterations"] =
                static_cast<double>(b.iterations);
            brec.metrics["feature"] = b.feature;
            records.push_back(brec);
        }
        BenchRecord gates;
        gates.name = "gates";
        gates.metrics["clover_ratio"] = clover_ratio;
        gates.metrics["blast_ratio"] = blast_ratio;
        gates.metrics["cost_gate"] = gate;
        gates.metrics["derived_exposed_sync"] = derived_sync;
        gates.metrics["derived_exposed_async"] = derived_async;
        gates.metrics["all_ok"] = ok ? 1.0 : 0.0;
        records.push_back(gates);

        std::map<std::string, std::string> meta;
        meta["bench"] = "obs_overhead";
        meta["clover_size"] = std::to_string(size);
        meta["steps"] = std::to_string(steps);
        meta["blast_size"] = std::to_string(blast_size);
        meta["reps"] = std::to_string(reps);
        meta["hardware_threads"] = std::to_string(
            std::thread::hardware_concurrency());
        meta["gates_ok"] = ok ? "true" : "false";
        if (!bench_to_json(json, meta, records, snap.toJson())) {
            std::printf("!! failed to write %s\n", json.c_str());
            return 1;
        }
        std::printf("-- wrote %s\n", json.c_str());
    }
    return ok ? 0 : 1;
}
