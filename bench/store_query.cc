/**
 * @file
 * Feature-store query-engine bench (PR 8): filtered scans through
 * the zone-map pushdown vs the brute-force full scan they must
 * agree with.
 *
 * A deterministic sorted store is written once (v2 footer: per-
 * block zone map), then a set of representative queries runs
 * against it — a narrow iteration window, an analysis-id select, a
 * selective metric predicate, and the conjunction of all three.
 * Gates (exit 1 on failure):
 *
 *   - every query's result digest equals the brute-force digest
 *     (full cursor + EventFilter::matches in the caller);
 *   - every selective query decodes < --decode-gate of the store's
 *     blocks (default 0.5) — the pushdown must prove most blocks
 *     irrelevant from the footer alone, without reading them.
 *
 * Timings (query wall vs full-scan wall) are reported and written
 * to JSON (PERF.md schema) but not gated: on smoke-sized stores the
 * scan fits in cache and the ratio is noise.
 */

#include "bench/bench_common.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "store/query.hh"
#include "store/reader.hh"
#include "store/writer.hh"

using namespace tdfe;
using namespace tdfe::bench;

namespace
{

/** Deterministic feature-like stream: iteration-sorted, analysis
 *  ids in contiguous quarters (so the zone map can prune them),
 *  monotonically decreasing mse (so "mse < x" selects a tail run
 *  of blocks), stop flag raised over the last tenth. */
void
synthRecord(std::size_t i, std::size_t total, FeatureRecord &rec)
{
    const double x = static_cast<double>(i);
    rec.iteration = static_cast<long>(i);
    rec.analysis = static_cast<long>(i * 4 / total);
    rec.stop = i >= total - total / 10;
    rec.wallTime = 1e-3 * x;
    rec.wavefront = static_cast<double>(1 + i / 97);
    rec.predicted = 10.0 * std::exp(-1e-5 * x) +
                    0.01 * std::sin(0.05 * x);
    rec.mse = 1.0 / (1.0 + 1e-3 * x);
    for (std::size_t k = 0; k < rec.coeffs.size(); ++k)
        rec.coeffs[k] = 0.3 * static_cast<double>(k + 1) + 1e-7 * x;
}

struct QueryResult
{
    std::size_t matched = 0;
    std::size_t blocksDecoded = 0;
    std::uint64_t digest = fnv1aBasis;
    double seconds = 0.0;
};

QueryResult
runQuery(const FeatureStoreReader &reader, const EventFilter &filter)
{
    QueryResult res;
    QueryCursor cur(reader, filter);
    FeatureRecord rec;
    Timer t;
    while (cur.next(rec)) {
        ++res.matched;
        res.digest = fnv1aRecord(rec, res.digest);
    }
    res.seconds = t.elapsed();
    res.blocksDecoded = cur.blocksDecoded();
    return res;
}

/** Reference semantics: full scan, filter in the caller. */
QueryResult
runBrute(const FeatureStoreReader &reader, const EventFilter &filter)
{
    QueryResult res;
    QueryCursor cur = reader.cursor();
    FeatureRecord rec;
    Timer t;
    while (cur.next(rec)) {
        if (!filter.matches(rec))
            continue;
        ++res.matched;
        res.digest = fnv1aRecord(rec, res.digest);
    }
    res.seconds = t.elapsed();
    res.blocksDecoded = reader.blockCount();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("feature-store query-engine pushdown bench");
    args.addInt("records", 200000, "records in the bench store");
    args.addInt("coeffs", 4, "coefficient columns");
    args.addInt("block", 256, "records per block");
    args.addInt("reps", 3, "repetitions (best-of)");
    args.addDouble("decode-gate", 0.5,
                   "fail when a selective query decodes more than "
                   "this fraction of the blocks");
    args.addString("json", "", "write results to this JSON file");
    args.parse(argc, argv);

    const auto total =
        static_cast<std::size_t>(args.getInt("records"));
    const auto coeffs =
        static_cast<std::size_t>(args.getInt("coeffs"));
    const auto block = static_cast<std::size_t>(args.getInt("block"));
    const int reps = static_cast<int>(args.getInt("reps"));
    const double decode_gate = args.getDouble("decode-gate");
    const std::string path = "store_query_bench.tdfs";

    banner("feature-store query engine (PR 8)",
           "zone-map pushdown vs brute-force scan, digest-checked");

    {
        StoreSchema schema;
        schema.coeffCount = coeffs;
        StoreOptions opts;
        opts.blockCapacity = block;
        FeatureStoreWriter w(path, schema, opts);
        FeatureRecord rec;
        rec.coeffs.resize(coeffs);
        for (std::size_t i = 0; i < total; ++i) {
            synthRecord(i, total, rec);
            w.append(rec);
        }
        if (w.finish() == 0) {
            std::printf("!! cannot write %s: %s\n", path.c_str(),
                        w.status().message.c_str());
            return 1;
        }
    }
    const auto reader = FeatureStoreReader::open(path);
    if (!reader) {
        std::printf("!! cannot reopen %s\n", path.c_str());
        return 1;
    }
    std::printf("-- %zu records, %zu blocks, format v%u, sorted=%s\n\n",
                reader->recordCount(), reader->blockCount(),
                reader->formatVersion(),
                reader->sortedByIteration() ? "yes" : "no");

    // mse is monotone decreasing, so this threshold (the value 95%
    // into the stream) admits only the last ~5% of the records.
    const double mse_tail =
        1.0 / (1.0 + 1e-3 * (0.95 * static_cast<double>(total)));
    const std::int64_t n = static_cast<std::int64_t>(total);
    struct NamedQuery
    {
        const char *name;
        EventFilter filter;
        bool selective; ///< subject to the decode-fraction gate
    };
    const NamedQuery queries[] = {
        {"full_scan", EventFilter(), false},
        {"iter_window",
         EventFilter().iterRange(n * 47 / 100, n * 52 / 100), true},
        {"analysis_id", EventFilter().analysisIs(2), true},
        {"mse_tail",
         EventFilter().where(
             {metricColumnIndex("mse"), PredOp::Lt, mse_tail}),
         true},
        {"conjunction",
         EventFilter()
             .iterRange(n * 96 / 100, n)
             .analysisIs(3)
             .stopIs(true)
             .where({metricColumnIndex("mse"), PredOp::Lt, mse_tail}),
         true},
    };

    std::vector<BenchRecord> records;
    bool ok = true;
    AsciiTable table({"query", "matched", "blocks", "decoded",
                      "fraction", "query ms", "scan ms", "speedup",
                      "digests"});
    for (const NamedQuery &q : queries) {
        QueryResult best, brute_best;
        best.seconds = brute_best.seconds = 1e100;
        for (int rep = 0; rep < reps; ++rep) {
            const QueryResult r = runQuery(*reader, q.filter);
            const QueryResult b = runBrute(*reader, q.filter);
            if (r.seconds < best.seconds)
                best = r;
            if (b.seconds < brute_best.seconds)
                brute_best = b;
        }
        const double fraction =
            static_cast<double>(best.blocksDecoded) /
            static_cast<double>(reader->blockCount());
        const bool digests_equal =
            best.digest == brute_best.digest &&
            best.matched == brute_best.matched;
        const bool fraction_ok = !q.selective ||
                                 fraction < decode_gate;
        if (!digests_equal || !fraction_ok)
            ok = false;
        const double speedup =
            brute_best.seconds / std::max(best.seconds, 1e-12);
        table.addRow({q.name, std::to_string(best.matched),
                      std::to_string(reader->blockCount()),
                      std::to_string(best.blocksDecoded),
                      AsciiTable::fmt(fraction, 3),
                      AsciiTable::fmt(1e3 * best.seconds, 3),
                      AsciiTable::fmt(1e3 * brute_best.seconds, 3),
                      AsciiTable::fmt(speedup, 2),
                      digests_equal ? "equal" : "DIFFER"});

        BenchRecord rec;
        rec.name = q.name;
        rec.metrics["matched"] = static_cast<double>(best.matched);
        rec.metrics["blocks_total"] =
            static_cast<double>(reader->blockCount());
        rec.metrics["blocks_decoded"] =
            static_cast<double>(best.blocksDecoded);
        rec.metrics["decoded_fraction"] = fraction;
        rec.metrics["query_s"] = best.seconds;
        rec.metrics["scan_s"] = brute_best.seconds;
        rec.metrics["speedup"] = speedup;
        rec.metrics["digests_equal"] = digests_equal ? 1.0 : 0.0;
        rec.metrics["gated"] = q.selective ? 1.0 : 0.0;
        records.push_back(rec);
    }
    table.print();
    std::remove(path.c_str());

    const std::string json = args.getString("json");
    if (!json.empty()) {
        std::map<std::string, std::string> meta;
        meta["bench"] = "store_query";
        meta["records"] = std::to_string(total);
        meta["block"] = std::to_string(block);
        meta["decode_gate"] = AsciiTable::fmt(decode_gate, 2);
        if (!bench_to_json(json, meta, records))
            std::printf("!! failed to write %s\n", json.c_str());
        else
            std::printf("-- wrote %s\n", json.c_str());
    }

    if (!ok) {
        std::printf("\n!! GATE FAILURE: a query disagreed with the "
                    "brute-force scan or decoded >= %.2f of the "
                    "blocks\n",
                    decode_gate);
        return 1;
    }
    std::printf("\nall gates passed: every query digest-equal to "
                "the full scan, selective queries decoded < %.2f "
                "of the blocks\n",
                decode_gate);
    return 0;
}
