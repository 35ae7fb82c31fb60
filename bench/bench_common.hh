/**
 * @file
 * Shared helpers for the benchmark harness. Every bench binary
 * regenerates one table or figure of the paper from a live run and
 * prints it via AsciiTable; figures additionally write CSV series
 * next to the binary for external plotting.
 */

#ifndef TDFE_BENCH_BENCH_COMMON_HH
#define TDFE_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "base/timer.hh"
#include "blastapp/runner.hh"
#include "postproc/ground_truth.hh"
#include "postproc/trace.hh"
#include "store/feature_record.hh"

namespace tdfe
{

namespace bench
{

/** One recorded ground-truth blast run. */
struct BlastTruth
{
    blast::BlastConfig config;
    blast::RunResult run;
    FullTrace trace;

    explicit BlastTruth(int size)
        : trace(static_cast<std::size_t>(size))
    {
        config.size = size;
        blast::RunOptions opt;
        opt.recordTrace = true;
        run = blast::runBlast(config, nullptr, opt);
        for (const auto &row : run.trace)
            trace.appendRow(row);
    }
};

/**
 * Analysis configuration mirroring the paper's LULESH experiment:
 * spatial window [loc_begin, loc_end], temporal window = the first
 * @p train_fraction of the run, Space-axis AR.
 */
inline AnalysisConfig
blastAnalysis(const BlastTruth &truth, double train_fraction,
              double threshold_abs, long loc_begin = 1,
              long loc_end = 10, bool stop = false, long lag = -1)
{
    AnalysisConfig ac;
    ac.space = IterParam(loc_begin, loc_end, 1);
    const long total = truth.run.iterations;
    const long t_begin = std::max<long>(4, total / 20);
    const long t_end = std::max(
        t_begin + 8,
        static_cast<long>(train_fraction * static_cast<double>(total)));
    ac.time = IterParam(t_begin, t_end, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = threshold_abs;
    ac.searchEnd = truth.config.size;
    ac.minLocation = 1;
    ac.stopWhenConverged = stop;
    ac.ar.order = 3;
    ac.ar.lag = lag > 0 ? lag : std::max<long>(1, total / 20);
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 32;
    ac.ar.convergeTol = 0.1;
    ac.ar.convergePatience = 3;
    ac.ar.minBatches = 4;
    return ac;
}

/** FNV-1a offset basis (seed for fnv1a). */
constexpr std::uint64_t fnv1aBasis = 1469598103934665603ull;

/**
 * FNV-1a over @p count raw bytes, continuing from @p h (pass
 * fnv1aBasis to start a digest). The digest-equality gates hash
 * checkpoint payloads with this so the same constants govern every
 * bench's "digest" column.
 */
inline std::uint64_t
fnv1a(const void *data, std::size_t count,
      std::uint64_t h = fnv1aBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < count; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** FNV-1a over a byte string (checkpoint payloads). */
inline std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h = fnv1aBasis)
{
    return fnv1a(bytes.data(), bytes.size(), h);
}

/**
 * Fold every column of @p rec into an FNV-1a digest, in StoreSchema's
 * file order: the integer columns as int64, the double columns (the
 * coefficients included) as their bytes. Order- and value-sensitive,
 * so two record streams digest equal only if they are bitwise equal
 * record by record.
 */
inline std::uint64_t
fnv1aRecord(const FeatureRecord &rec, std::uint64_t h)
{
    StoreSchema schema;
    schema.coeffCount = rec.coeffs.size();
    for (std::size_t i = 0; i < schema.intColumns(); ++i) {
        const std::int64_t v = StoreSchema::intColumn(rec, i);
        h = fnv1a(&v, sizeof v, h);
    }
    for (std::size_t i = 0; i < schema.doubleColumns(); ++i)
        h = fnv1a(&StoreSchema::doubleColumn(rec, i), sizeof(double), h);
    return h;
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what, const std::string &scale_note)
{
    std::printf("== %s ==\n", what.c_str());
    std::printf("-- %s\n", scale_note.c_str());
}

/**
 * One benchmark measurement: a named record holding numeric metrics
 * (timings, speedups, digests) and free-form string notes.
 */
struct BenchRecord
{
    std::string name;
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> notes;
};

/**
 * Serialize benchmark results to a JSON file (the schema PERF.md
 * documents): `{"meta": {...}, "records": [{"name", "metrics",
 * "notes"}, ...]}`. Values are emitted with enough digits to
 * round-trip doubles, so baselines diff cleanly between runs.
 *
 * When @p metricsJson is non-empty it must be a complete JSON
 * document (obs::metricsSnapshotJson()) and is embedded verbatim as
 * a top-level "telemetry" member, so a BENCH_*.json carries the
 * counter evidence of the run that produced it.
 *
 * @return true when the file was written.
 */
inline bool
bench_to_json(const std::string &path,
              const std::map<std::string, std::string> &meta,
              const std::vector<BenchRecord> &records,
              const std::string &metricsJson = std::string())
{
    std::ofstream out(path);
    if (!out)
        return false;

    auto esc = [](const std::string &s) {
        std::string r;
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                r += '\\';
                r += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                // RFC 8259: control characters must be escaped.
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                r += buf;
            } else {
                r += c;
            }
        }
        return r;
    };
    auto num = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return std::string(buf);
    };

    out << "{\n  \"meta\": {";
    bool first = true;
    for (const auto &kv : meta) {
        out << (first ? "" : ",") << "\n    \"" << esc(kv.first)
            << "\": \"" << esc(kv.second) << "\"";
        first = false;
    }
    out << "\n  },\n  \"records\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const BenchRecord &r = records[i];
        out << (i ? "," : "") << "\n    {\n      \"name\": \""
            << esc(r.name) << "\",\n      \"metrics\": {";
        first = true;
        for (const auto &kv : r.metrics) {
            out << (first ? "" : ",") << "\n        \""
                << esc(kv.first) << "\": " << num(kv.second);
            first = false;
        }
        out << "\n      },\n      \"notes\": {";
        first = true;
        for (const auto &kv : r.notes) {
            out << (first ? "" : ",") << "\n        \""
                << esc(kv.first) << "\": \"" << esc(kv.second)
                << "\"";
            first = false;
        }
        out << "\n      }\n    }";
    }
    out << "\n  ]";
    if (!metricsJson.empty())
        out << ",\n  \"telemetry\": " << metricsJson;
    out << "\n}\n";
    return static_cast<bool>(out);
}

} // namespace bench

} // namespace tdfe

#endif // TDFE_BENCH_BENCH_COMMON_HH
