/**
 * @file
 * Feature-store throughput and compression baseline (PR 5).
 *
 * Part 1 — writer cost: append a deterministic feature-record
 * stream --reps times, measuring the *exposed* store cost
 * (seal-path time that blocked the producer,
 * FeatureStoreWriter::exposedSeconds) and the wall time of the
 * append loop. Gate (exit 1 on failure): every repetition's file is
 * byte-identical (FNV digest over the file bytes). The writer does
 * not use the thread pool, so there is no thread axis to sweep.
 *
 * Part 2 (PR 6) — durability and failure overhead: what each
 * DurabilityPolicy level costs per record (flush-per-seal gated
 * within --durability-gate of the no-durability baseline;
 * fsync-per-seal reported only — its cost belongs to the
 * filesystem), and the degraded-mode append (sticky-failure drop
 * path) gated at <= --degraded-gate x a healthy append.
 *
 * Part 3 — I/O-cost comparison the paper only argues qualitatively:
 * the clover2d shock run instrumented with one break-point analysis
 * writes its per-iteration features to a store while the full probe
 * trace (the traditional post-hoc pipeline) is dumped via
 * FullTrace. Gate: the store is >= --ratio-gate x smaller than the
 * raw double dump. Writes JSON via bench_to_json (PERF.md schema).
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "clover2d/app.hh"
#include "core/region.hh"
#include "store/reader.hh"
#include "store/writer.hh"

using namespace tdfe;
using namespace tdfe::bench;

namespace
{

/** Deterministic feature-like record stream (smooth + mild noise,
 *  the shape real extractions produce). */
void
synthRecord(std::size_t i, FeatureRecord &rec)
{
    const double x = static_cast<double>(i);
    rec.iteration = static_cast<long>(i);
    rec.analysis = static_cast<long>(i & 1);
    rec.stop = false;
    rec.wallTime = 1e-3 * x;
    rec.wavefront = static_cast<double>(1 + i / 97);
    rec.predicted = 10.0 * std::exp(-1e-5 * x) +
                    0.01 * std::sin(0.05 * x);
    rec.mse = 1.0 / (1.0 + 1e-3 * x);
    for (std::size_t k = 0; k < rec.coeffs.size(); ++k)
        rec.coeffs[k] =
            0.3 * static_cast<double>(k + 1) + 1e-7 * x;
}

struct WriteResult
{
    double appendWall = 0.0; ///< seconds in the append loop
    double exposed = 0.0;    ///< writer seal-path + finish seconds
    std::size_t bytes = 0;
    std::uint64_t digest = 0;
};

WriteResult
writeOnce(const std::string &path, std::size_t records,
          std::size_t coeffs, std::size_t block,
          store::DurabilityPolicy durability =
              store::DurabilityPolicy::None)
{
    StoreSchema schema;
    schema.coeffCount = coeffs;
    StoreOptions opts;
    opts.blockCapacity = block;
    opts.durability = durability;
    WriteResult res;
    FeatureRecord rec;
    rec.coeffs.resize(coeffs);
    {
        FeatureStoreWriter w(path, schema, opts);
        Timer t;
        for (std::size_t i = 0; i < records; ++i) {
            synthRecord(i, rec);
            w.append(rec);
        }
        res.appendWall = t.elapsed();
        res.bytes = w.finish();
        res.exposed = w.exposedSeconds();
    }
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    res.digest = fnv1a(bytes);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("feature-store throughput/compression baseline");
    args.addInt("records", 200000, "records per writer-sweep run");
    args.addInt("coeffs", 4, "coefficient columns");
    args.addInt("block", 256, "records per block");
    args.addInt("reps", 3, "repetitions (best-of)");
    args.addInt("size", 48, "clover grid edge (compression part)");
    args.addDouble("ratio-gate", 4.0,
                   "fail when trace/store size ratio is below this");
    args.addDouble("durability-gate", 2.0,
                   "fail when flush-per-seal exposed > gate * none");
    args.addDouble("degraded-gate", 0.5,
                   "fail when degraded append > gate * healthy");
    args.addString("json", "", "write results to this JSON file");
    args.parse(argc, argv);

    const auto records_n =
        static_cast<std::size_t>(args.getInt("records"));
    const auto coeffs = static_cast<std::size_t>(args.getInt("coeffs"));
    const auto block = static_cast<std::size_t>(args.getInt("block"));
    const int reps = static_cast<int>(args.getInt("reps"));
    const double ratio_gate = args.getDouble("ratio-gate");
    // The compression part's order-3 analysis needs four probes.
    if (args.getInt("size") < 4) {
        std::fprintf(stderr, "store_throughput: --size must be >= 4\n");
        return 2;
    }

    banner("feature-store throughput (PR 5)",
           "exposed append cost + compression vs raw trace dump");
    std::printf("-- hardware threads: %u\n\n",
                std::thread::hardware_concurrency());

    std::vector<BenchRecord> records;
    bool ok = true;

    // ---------------------------------------------- writer cost
    AsciiTable table({"exposed us/rec", "append us/rec", "bytes/rec",
                      "identical"});
    WriteResult best;
    best.exposed = 1e100;
    std::uint64_t ref_digest = 0;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
        const WriteResult r = writeOnce("store_tp_writer.tdfs",
                                        records_n, coeffs, block);
        if (r.exposed < best.exposed)
            best = r;
        if (rep == 0)
            ref_digest = r.digest;
        identical = identical && r.digest == ref_digest;
    }
    std::remove("store_tp_writer.tdfs");
    if (!identical)
        ok = false;
    {
        const double n = static_cast<double>(records_n);
        table.addRow(
            {AsciiTable::fmt(1e6 * best.exposed / n, 3),
             AsciiTable::fmt(1e6 * best.appendWall / n, 3),
             AsciiTable::fmt(static_cast<double>(best.bytes) / n, 1),
             identical ? "yes" : "NO"});

        BenchRecord rec;
        rec.name = "writer";
        rec.metrics["records"] = n;
        rec.metrics["exposed_s"] = best.exposed;
        rec.metrics["append_wall_s"] = best.appendWall;
        rec.metrics["bytes"] = static_cast<double>(best.bytes);
        rec.metrics["files_identical"] = identical ? 1.0 : 0.0;
        records.push_back(rec);
    }
    table.print();

    // ----------------------------- durability-policy overhead sweep
    // What each crash-consistency level costs per record (PR 6).
    // flush-per-seal is one libc-to-kernel copy per sealed block
    // and is gated within --durability-gate of the no-durability
    // baseline; fsync-per-seal waits for the platters (or the FS
    // journal) every block, so it is reported but not gated — its
    // cost is the filesystem's, not the writer's.
    const double durability_gate = args.getDouble("durability-gate");
    std::printf("\n");
    AsciiTable dtable(
        {"durability", "us/rec", "vs none", "bytes/rec"});
    double none_exposed = 0.0;
    for (const auto policy : {store::DurabilityPolicy::None,
                              store::DurabilityPolicy::FlushPerSeal,
                              store::DurabilityPolicy::SyncPerSeal}) {
        WriteResult best;
        best.exposed = 1e100;
        for (int rep = 0; rep < reps; ++rep) {
            const WriteResult r =
                writeOnce("store_tp_dur.tdfs", records_n, coeffs,
                          block, policy);
            if (r.exposed < best.exposed)
                best = r;
        }
        const double n = static_cast<double>(records_n);
        if (policy == store::DurabilityPolicy::None)
            none_exposed = best.exposed;
        const double vs_none =
            best.exposed / std::max(none_exposed, 1e-12);
        if (policy == store::DurabilityPolicy::FlushPerSeal &&
            vs_none > durability_gate)
            ok = false;
        dtable.addRow(
            {store::durabilityPolicyName(policy),
             AsciiTable::fmt(1e6 * best.exposed / n, 3),
             AsciiTable::fmt(vs_none, 2),
             AsciiTable::fmt(static_cast<double>(best.bytes) / n,
                             1)});
        BenchRecord rec;
        rec.name = std::string("durability_") +
                   store::durabilityPolicyName(policy);
        rec.metrics["exposed_s"] = best.exposed;
        rec.metrics["us_per_rec"] = 1e6 * best.exposed / n;
        rec.metrics["vs_none"] = vs_none;
        rec.metrics["bytes"] = static_cast<double>(best.bytes);
        records.push_back(rec);
    }
    std::remove("store_tp_dur.tdfs");
    dtable.print();

    // -------------------------------------- degraded-mode append cost
    // After an unrecoverable I/O error the writer latches a sticky
    // failure and every append is a drop (one relaxed atomic load
    // plus a counter). That path must be far cheaper than a healthy
    // append — the Region detaches on the first false return, so
    // this bounds the worst case where a caller never looks.
    const double degraded_gate = args.getDouble("degraded-gate");
    double healthy_wall = 1e100, degraded_wall = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
        const WriteResult h = writeOnce(
            "store_tp_healthy.tdfs", records_n, coeffs, block);
        healthy_wall = std::min(healthy_wall, h.appendWall);

        StoreSchema schema;
        schema.coeffCount = coeffs;
        StoreOptions opts;
        opts.blockCapacity = block;
        FeatureStoreWriter dead("/nonexistent-dir/sub/bench.tdfs",
                                schema, opts);
        FeatureRecord rec;
        rec.coeffs.resize(coeffs);
        Timer t;
        for (std::size_t i = 0; i < records_n; ++i) {
            synthRecord(i, rec);
            dead.append(rec);
        }
        degraded_wall = std::min(degraded_wall, t.elapsed());
        if (dead.ok() || dead.droppedRecords() != records_n)
            ok = false;
    }
    std::remove("store_tp_healthy.tdfs");
    const double degraded_ratio =
        degraded_wall / std::max(healthy_wall, 1e-12);
    std::printf("\ndegraded-mode append: %.3f us/rec vs healthy "
                "%.3f us/rec (%.2fx, gate %.2fx)\n",
                1e6 * degraded_wall /
                    static_cast<double>(records_n),
                1e6 * healthy_wall /
                    static_cast<double>(records_n),
                degraded_ratio, degraded_gate);
    if (degraded_ratio > degraded_gate)
        ok = false;
    BenchRecord deg;
    deg.name = "degraded_append";
    deg.metrics["healthy_wall_s"] = healthy_wall;
    deg.metrics["degraded_wall_s"] = degraded_wall;
    deg.metrics["degraded_over_healthy"] = degraded_ratio;
    records.push_back(deg);

    // ------------------------------- compression vs raw trace dump
    clover::CloverAppConfig config;
    config.size = static_cast<int>(args.getInt("size"));
    config.blastEnergy = 2.0;
    clover::CloverField field(config);

    FullTrace trace(static_cast<std::size_t>(field.probeCount()));
    Region region("store-bench", &field);
    AnalysisConfig cfg;
    cfg.name = "clover-breakpoint";
    cfg.provider = [](void *domain, long loc) {
        return static_cast<clover::CloverField *>(domain)->fieldAt(
            loc);
    };
    // Probes 1..20, or every probe on a smaller grid.
    cfg.space = IterParam(1, std::min(20, config.size), 1);
    cfg.time = IterParam(20, 400, 1);
    cfg.feature = FeatureKind::BreakpointRadius;
    cfg.searchEnd = config.size;
    cfg.minLocation = 1;
    cfg.ar.axis = LagAxis::Space;
    cfg.ar.order = 3;
    cfg.ar.lag = 2;
    cfg.ar.batchSize = 16;
    region.addAnalysis(std::move(cfg));

    StoreSchema schema;
    schema.coeffCount = 4; // order 3 + intercept
    StoreOptions sopts;
    sopts.blockCapacity = block;
    FeatureStoreWriter store("store_tp_clover.tdfs", schema, sopts);
    region.setFeatureStore(&store);

    std::vector<double> row(
        static_cast<std::size_t>(field.probeCount()), 0.0);
    while (!field.finished()) {
        region.begin();
        clover::Timestep(field);
        clover::HydroCycle(field);
        region.end();
        field.gatherProbes();
        for (long loc = 1; loc <= field.probeCount(); ++loc)
            row[static_cast<std::size_t>(loc - 1)] =
                field.fieldAt(loc);
        trace.appendRow(row);
    }
    region.analysis(0); // drain
    region.setFeatureStore(nullptr);
    const std::size_t store_bytes = store.finish();
    const std::size_t trace_bytes =
        trace.dump("store_tp_trace.bin");
    const double ratio = static_cast<double>(trace_bytes) /
                         static_cast<double>(store_bytes);

    std::string verify_error;
    const auto reader =
        FeatureStoreReader::open("store_tp_clover.tdfs",
                                 &verify_error);
    const bool intact = reader && reader->verify(&verify_error) &&
                        reader->recordCount() ==
                            static_cast<std::size_t>(
                                region.iteration());
    if (!intact) {
        std::printf("!! store verify failed: %s\n",
                    verify_error.c_str());
        ok = false;
    }

    std::printf("\nclover %dx%d, %ld iterations: trace %zu B, "
                "store %zu B -> %.1fx compression (gate %.1fx)\n",
                config.size, config.size, region.iteration(),
                trace_bytes, store_bytes, ratio, ratio_gate);
    if (ratio < ratio_gate)
        ok = false;

    BenchRecord comp;
    comp.name = "clover_compression";
    comp.metrics["grid"] = static_cast<double>(config.size);
    comp.metrics["iterations"] =
        static_cast<double>(region.iteration());
    comp.metrics["trace_bytes"] =
        static_cast<double>(trace_bytes);
    comp.metrics["store_bytes"] =
        static_cast<double>(store_bytes);
    comp.metrics["compression_ratio"] = ratio;
    comp.metrics["store_exposed_s"] = store.exposedSeconds();
    records.push_back(comp);
    std::remove("store_tp_clover.tdfs");
    std::remove("store_tp_trace.bin");

    const std::string json = args.getString("json");
    if (!json.empty()) {
        std::map<std::string, std::string> meta;
        meta["bench"] = "store_throughput";
        meta["hardware_threads"] =
            std::to_string(std::thread::hardware_concurrency());
        meta["records"] = std::to_string(records_n);
        meta["block"] = std::to_string(block);
        meta["ratio_gate"] = AsciiTable::fmt(ratio_gate, 2);
        meta["durability_gate"] =
            AsciiTable::fmt(durability_gate, 2);
        meta["degraded_gate"] = AsciiTable::fmt(degraded_gate, 2);
        if (!bench_to_json(json, meta, records))
            std::printf("!! failed to write %s\n", json.c_str());
        else
            std::printf("-- wrote %s\n", json.c_str());
    }

    if (!ok) {
        std::printf("\n!! GATE FAILURE: file identity, "
                    "durability/degraded overhead, or compression "
                    "ratio out of bounds\n");
        return 1;
    }
    std::printf("\nall gates passed: files byte-identical across "
                "reps, flush-per-seal <= %.2fx none, degraded "
                "append <= %.2fx healthy, compression >= %.1fx\n",
                durability_gate, degraded_gate, ratio_gate);
    return 0;
}
