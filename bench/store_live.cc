/**
 * @file
 * Live-serving overhead (PR 9): what snapshot-isolated tail readers
 * cost the producer. Live views follow the data file itself (see
 * store/live.hh), so the writer does no extra work for them; what
 * is left to measure is reader interference.
 *
 * The writer alone vs the same write with --readers concurrent
 * threads each following the store through LiveStoreReader/
 * TailCursor while it grows. Both sides write at flush-per-seal
 * durability, the policy under which a tail sees every block at the
 * next seal. The writer is paced (--pace-us between appends) to
 * model the in-situ setting the live layer serves: the solver
 * computes between extractions, and readers consume those cycles —
 * an unpaced tight-loop writer on a single hardware thread measures
 * raw CPU saturation, not serving overhead. Only the exposed
 * append/seal path is timed, so pacing itself never counts. Gates
 * (exit 1 on failure; each prints its name, value, and bound, and
 * the last line names every gate that failed):
 *
 *   - readers: writer exposed cost with readers <= --readers-gate x
 *     alone (same pacing both sides; the paper's in-situ budget must
 *     not regress when a dashboard attaches);
 *   - tails_exact: every reader delivers every record exactly once,
 *     in order, and the tailed stream's record digest equals a
 *     footer-backed read of the finished store — the live path
 *     serves the same bytes the post-hoc path does.
 *
 * Writes JSON via bench_to_json (PERF.md schema).
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "store/live.hh"
#include "store/reader.hh"
#include "store/writer.hh"

using namespace tdfe;
using namespace tdfe::bench;

namespace
{

/** Deterministic feature-like record stream (as store_throughput). */
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

/** Fold one record into an FNV digest (order-sensitive). */
std::uint64_t
foldRecord(const FeatureRecord &rec, std::uint64_t h)
{
    const std::int64_t iter = rec.iteration;
    const std::int64_t analysis = rec.analysis;
    const std::uint8_t stop = rec.stop ? 1 : 0;
    h = fnv1a(&iter, sizeof iter, h);
    h = fnv1a(&analysis, sizeof analysis, h);
    h = fnv1a(&stop, sizeof stop, h);
    h = fnv1a(&rec.wallTime, sizeof(double), h);
    h = fnv1a(&rec.wavefront, sizeof(double), h);
    h = fnv1a(&rec.predicted, sizeof(double), h);
    h = fnv1a(&rec.mse, sizeof(double), h);
    for (const double v : rec.coeffs)
        h = fnv1a(&v, sizeof(double), h);
    return h;
}

/** One paced flush-per-seal write of @p records records.
 *  @return the writer's exposed (seal-path + finish) seconds. */
double
writeOnce(const std::string &path, std::size_t records,
          std::size_t coeffs, std::size_t block, long pace_us)
{
    StoreSchema schema;
    schema.coeffCount = coeffs;
    StoreOptions opts;
    opts.blockCapacity = block;
    opts.durability = store::DurabilityPolicy::FlushPerSeal;
    FeatureRecord rec;
    rec.coeffs.resize(coeffs);
    FeatureStoreWriter w(path, schema, opts);
    for (std::size_t i = 0; i < records; ++i) {
        synthRecord(i, rec);
        w.append(rec);
        if (pace_us > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(pace_us));
    }
    w.finish();
    return w.exposedSeconds();
}

/** One tailing reader: follow @p path until the stream ends.
 *  @return records delivered; digest and order check via out-args. */
std::size_t
tailStore(const std::string &path, std::uint64_t &digest,
          bool &in_order)
{
    LiveViewOptions vopts;
    vopts.pollMinUs = 500;
    vopts.pollMaxUs = 20000;
    vopts.stallDeadlineSeconds = 60.0;
    LiveStoreReader live(path, vopts);
    TailCursor tail(live);
    FeatureRecord rec;
    std::uint64_t h = fnv1aBasis;
    std::size_t n = 0;
    in_order = true;
    while (!tail.done()) {
        if (tail.next(rec)) {
            if (rec.iteration != static_cast<long>(n))
                in_order = false;
            h = foldRecord(rec, h);
            ++n;
            continue;
        }
        live.waitForAdvance(0.05);
    }
    digest = h;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("live-serving overhead: polling-reader "
                   "interference with the writer");
    args.addInt("records", 150000, "records per run");
    args.addInt("coeffs", 4, "coefficient columns");
    args.addInt("block", 256, "records per block");
    args.addInt("reps", 3, "repetitions (best-of)");
    args.addInt("readers", 4, "concurrent tail readers");
    args.addInt("pace-us", 20,
                "microseconds of simulated solver work between "
                "appends (pacing is never timed)");
    args.addDouble("readers-gate", 1.15,
                   "fail when exposed with readers > gate * alone");
    args.addString("json", "", "write results to this JSON file");
    args.parse(argc, argv);

    const auto records_n =
        static_cast<std::size_t>(args.getInt("records"));
    const auto coeffs =
        static_cast<std::size_t>(args.getInt("coeffs"));
    const auto block = static_cast<std::size_t>(args.getInt("block"));
    const int reps = static_cast<int>(args.getInt("reps"));
    const int n_readers = static_cast<int>(args.getInt("readers"));
    const long pace_us = args.getInt("pace-us");
    const double readers_gate = args.getDouble("readers-gate");

    banner("live store serving (PR 9)",
           "polling-reader interference on the exposed append cost "
           "(flush per seal)");
    std::printf("-- hardware threads: %u\n\n",
                std::thread::hardware_concurrency());

    std::vector<BenchRecord> records;
    const std::string path = "store_live_bench.tdfs";

    double alone_best = 1e100, shared_best = 1e100;
    bool tails_exact = true;
    std::uint64_t footer_digest = 0;
    for (int rep = 0; rep < reps; ++rep) {
        alone_best = std::min(
            alone_best,
            writeOnce(path, records_n, coeffs, block, pace_us));
        std::remove(path.c_str());

        std::vector<std::thread> tails;
        std::vector<std::uint64_t> digests(
            static_cast<std::size_t>(n_readers), 0);
        std::vector<std::size_t> delivered(
            static_cast<std::size_t>(n_readers), 0);
        std::vector<std::size_t> ordered(
            static_cast<std::size_t>(n_readers), 0);
        for (int t = 0; t < n_readers; ++t)
            tails.emplace_back([&, t] {
                const auto ti = static_cast<std::size_t>(t);
                bool in_order = true;
                delivered[ti] =
                    tailStore(path, digests[ti], in_order);
                ordered[ti] = in_order ? 1 : 0;
            });
        shared_best = std::min(
            shared_best,
            writeOnce(path, records_n, coeffs, block, pace_us));
        for (std::thread &t : tails)
            t.join();

        // The tailed stream must be the stream: digest-equal to a
        // footer-backed read of the finished store.
        std::uint64_t want = fnv1aBasis;
        {
            const auto r = FeatureStoreReader::open(path);
            if (!r) {
                tails_exact = false;
            } else {
                auto c = r->cursor();
                FeatureRecord rec;
                while (c.next(rec))
                    want = foldRecord(rec, want);
                footer_digest = want;
            }
        }
        for (int t = 0; t < n_readers; ++t) {
            const auto ti = static_cast<std::size_t>(t);
            if (delivered[ti] != records_n || !ordered[ti] ||
                digests[ti] != want)
                tails_exact = false;
        }
        std::remove(path.c_str());
    }
    const double n = static_cast<double>(records_n);
    const double readers_ratio =
        shared_best / std::max(alone_best, 1e-12);
    AsciiTable interference(
        {"writer", "exposed us/rec", "vs alone", "tails exact"});
    interference.addRow(
        {"alone", AsciiTable::fmt(1e6 * alone_best / n, 3), "1.00",
         "-"});
    interference.addRow(
        {std::to_string(n_readers) + " readers",
         AsciiTable::fmt(1e6 * shared_best / n, 3),
         AsciiTable::fmt(readers_ratio, 2),
         tails_exact ? "yes" : "NO"});
    interference.print();

    std::vector<std::string> failed;
    std::printf("gate readers: %.2f <= %.2f %s\n", readers_ratio,
                readers_gate,
                readers_ratio <= readers_gate ? "ok" : "FAIL");
    if (!(readers_ratio <= readers_gate))
        failed.push_back("readers");
    std::printf("gate tails_exact: %s == yes %s\n",
                tails_exact ? "yes" : "no", tails_exact ? "ok" : "FAIL");
    if (!tails_exact)
        failed.push_back("tails_exact");
    {
        BenchRecord rec;
        rec.name = "reader_interference";
        rec.metrics["records"] = n;
        rec.metrics["readers"] = static_cast<double>(n_readers);
        rec.metrics["pace_us"] = static_cast<double>(pace_us);
        rec.metrics["alone_exposed_s"] = alone_best;
        rec.metrics["shared_exposed_s"] = shared_best;
        rec.metrics["readers_ratio"] = readers_ratio;
        rec.metrics["tails_exact"] = tails_exact ? 1.0 : 0.0;
        rec.metrics["stream_digest"] =
            static_cast<double>(footer_digest & 0xFFFFFFFFu);
        records.push_back(rec);
    }

    const std::string json = args.getString("json");
    if (!json.empty()) {
        std::map<std::string, std::string> meta;
        meta["bench"] = "store_live";
        meta["hardware_threads"] =
            std::to_string(std::thread::hardware_concurrency());
        meta["records"] = std::to_string(records_n);
        meta["block"] = std::to_string(block);
        meta["readers"] = std::to_string(n_readers);
        meta["pace_us"] = std::to_string(pace_us);
        meta["durability"] = "flush";
        meta["readers_gate"] = AsciiTable::fmt(readers_gate, 2);
        if (!bench_to_json(json, meta, records))
            std::printf("!! failed to write %s\n", json.c_str());
        else
            std::printf("-- wrote %s\n", json.c_str());
    }

    if (failed.empty()) {
        std::printf("\nALL GATES PASSED\n");
        return 0;
    }
    std::string names;
    for (const std::string &g : failed)
        names += (names.empty() ? "" : ", ") + g;
    std::printf("\nGATE FAILURES: %s\n", names.c_str());
    return 1;
}
