/**
 * @file
 * `tdfstool` — operator CLI of the feature trace store, in the
 * spirit of TrailDB's `tdb` utility:
 *
 *   tdfstool info   <store>            header/schema/block summary
 *   tdfstool verify <store>            CRC + full-decode walk
 *   tdfstool export <store> [--out f]  CSV dump (stdout default)
 *   tdfstool query  <store> [--iter a:b] [--analysis k] [--stop 0|1]
 *                   [--where col<op>v]... [--project cols]
 *                   [--agg count|min|max|mean]
 *                                      filtered scan (zone-map
 *                                      pushdown; see store/query.hh)
 *   tdfstool tail   <store> [filters] [--stall s] [--max n]
 *                                      follow a store being written,
 *                                      streaming each sealed record
 *                                      as CSV (see store/live.hh)
 *   tdfstool diff   <a> <b> [--ignore cols]
 *                                      record-wise comparison
 *   tdfstool recover <damaged> <out>   salvage a damaged store into
 *                                      a clean one
 *   tdfstool ckpt-info <file.tdck>     inspect a checkpoint envelope
 *                                      (CRCs fully verified)
 *   tdfstool metrics <file.json>       validate + pretty-print a
 *                                      --metrics-out snapshot
 *   tdfstool trace <file.json>         validate a --trace-out Chrome
 *                                      trace, per-span roll-up
 *   tdfstool help                      this text, to stdout, exit 0
 *
 * Every command exits 0 on success and 1 on any mismatch or
 * malformed input, so scripts (scripts/check_build.sh runs a
 * `verify` smoke, a `query` smoke, and a truncate/recover round
 * trip) can gate on it directly; usage errors print the usage text
 * to stderr and exit 1, while an explicit `help` / `--help` / `-h`
 * prints it to stdout and exits 0, as operators expect. `recover`
 * succeeds whenever the salvage scan ran — even when it recovered
 * zero records — because for an operator, "the file held nothing
 * recoverable" is an answer, not a tool failure; the record count
 * is printed for scripts that want to gate on it.
 */

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "obs/json.hh"
#include "par/store_merge.hh"
#include "store/live.hh"
#include "store/query.hh"
#include "store/reader.hh"

using tdfe::FeatureRecord;
using tdfe::FeatureStoreReader;

namespace
{

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: tdfstool <command> <store> [options]\n"
        "  info   <store>              print header, schema, and "
        "block index\n"
        "  verify <store>              check every block CRC and "
        "decode\n"
        "  export <store> [--out f]    dump records as CSV (stdout "
        "default)\n"
        "  query  <store> [filters]    filtered scan; non-matching "
        "blocks are\n"
        "                              skipped via the footer zone "
        "map\n"
        "         --iter a:b           iteration window [a, b) "
        "(either side\n"
        "                              may be empty for an open "
        "end)\n"
        "         --analysis k         only analysis id k\n"
        "         --stop 0|1           only records with that stop "
        "flag\n"
        "         --where col<op>v     metric predicate, e.g. "
        "mse<0.5 or\n"
        "                              wavefront>=12; repeatable "
        "(ANDed);\n"
        "                              columns: wall_time, "
        "wavefront,\n"
        "                              predicted, mse; ops: < <= > "
        ">= == !=\n"
        "                              (NaN values never match)\n"
        "         --project c,c        output only these columns\n"
        "         --agg count|min|max|mean\n"
        "                              aggregate instead of "
        "listing: count\n"
        "                              of matches, or the "
        "per-projected-column\n"
        "                              min/max/mean (NaNs "
        "excluded)\n"
        "  tail   <store> [filters]    follow a store being written, "
        "printing\n"
        "                              each sealed record as CSV "
        "(a block\n"
        "                              shows once the writer's "
        "durability\n"
        "                              policy pushes the bytes after "
        "it out);\n"
        "                              accepts the query filters "
        "and\n"
        "                              --project above, plus:\n"
        "         --stall s            exit after s seconds without "
        "progress\n"
        "                              (default 10; 0 waits "
        "forever)\n"
        "         --max n              exit after n records\n"
        "                              exits 0 when the writer "
        "finishes or\n"
        "                              is lost — the printed stream "
        "is a\n"
        "                              consistent sealed prefix "
        "either way\n"
        "  diff <a> <b> [--ignore c,c] compare two stores "
        "record-wise,\n"
        "                              skipping the named columns "
        "(e.g. wall_time)\n"
        "  recover <damaged> <out>     salvage the sealed-block "
        "prefix of a\n"
        "                              damaged store into a clean "
        "one\n"
        "  ckpt-info <file.tdck>       inspect a crash-safe "
        "checkpoint envelope\n"
        "                              (exit 1 when torn or "
        "corrupt)\n"
        "  metrics <file.json>         validate and pretty-print a "
        "--metrics-out\n"
        "                              snapshot (tdfe.metrics.v1; "
        "exit 1 when\n"
        "                              malformed)\n"
        "  trace <file.json>           validate a --trace-out "
        "Chrome trace and\n"
        "                              print a per-span roll-up "
        "(exit 1 when\n"
        "                              malformed)\n"
        "  help                        print this text and exit "
        "0\n");
}

int
usage()
{
    printUsage(stderr);
    return 1;
}

std::unique_ptr<FeatureStoreReader>
openOrComplain(const std::string &path)
{
    std::string error;
    auto reader = FeatureStoreReader::open(path, &error);
    if (!reader)
        std::fprintf(stderr, "tdfstool: %s\n", error.c_str());
    return reader;
}

int
cmdInfo(const std::string &path)
{
    const auto r = openOrComplain(path);
    if (!r)
        return 1;
    std::printf("store:        %s\n", path.c_str());
    std::printf("file bytes:   %zu\n", r->fileBytes());
    std::printf("records:      %zu\n", r->recordCount());
    std::printf("blocks:       %zu (capacity %zu records)\n",
                r->blockCount(), r->blockCapacity());
    std::printf("sorted:       %s\n",
                r->sortedByIteration() ? "yes (indexed range access)"
                                       : "no (rank-merged?)");
    std::printf("columns:      ");
    const auto &names = r->columnNames();
    for (std::size_t i = 0; i < names.size(); ++i)
        std::printf("%s%s", i ? "," : "", names[i].c_str());
    std::printf("\n");
    if (r->recordCount() > 0) {
        const double bpr = static_cast<double>(r->fileBytes()) /
                           static_cast<double>(r->recordCount());
        const double raw = 8.0 * static_cast<double>(
                                     r->schema().totalColumns());
        std::printf("bytes/record: %.2f (raw columnar %.0f, "
                    "%.2fx compression)\n",
                    bpr, raw, raw / bpr);
    }
    std::printf("block index (offset, bytes, records, iter "
                "range):\n");
    for (std::size_t b = 0; b < r->blockCount(); ++b) {
        const auto &info = r->blockInfo(b);
        std::printf("  #%-4zu %10" PRIu64 " %8" PRIu64 " %6" PRIu64
                    "   [%" PRId64 ", %" PRId64 "]\n",
                    b, info.offset, info.size, info.records,
                    info.firstIter, info.lastIter);
    }
    return 0;
}

int
cmdVerify(const std::string &path)
{
    const auto r = openOrComplain(path);
    if (!r)
        return 1;
    std::string detail;
    if (!r->verify(&detail)) {
        std::fprintf(stderr, "tdfstool: %s: %s\n", path.c_str(),
                     detail.c_str());
        return 1;
    }
    std::printf("%s: OK (%zu records in %zu blocks, all CRCs and "
                "decodes clean)\n",
                path.c_str(), r->recordCount(), r->blockCount());
    return 0;
}

int
cmdExport(const std::string &path, const std::string &out_path)
{
    const auto r = openOrComplain(path);
    if (!r)
        return 1;

    std::ofstream file;
    if (!out_path.empty()) {
        file.open(out_path);
        if (!file) {
            std::fprintf(stderr, "tdfstool: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
    }
    std::ostream &out = out_path.empty()
                            ? static_cast<std::ostream &>(std::cout)
                            : file;

    const auto &names = r->columnNames();
    for (std::size_t i = 0; i < names.size(); ++i)
        out << (i ? "," : "") << names[i];
    out << "\n";

    char buf[64];
    FeatureRecord rec;
    auto c = r->cursor();
    while (c.next(rec)) {
        out << rec.iteration << ',' << rec.analysis << ','
            << (rec.stop ? 1 : 0);
        const double fixed[] = {rec.wallTime, rec.wavefront,
                                rec.predicted, rec.mse};
        for (const double v : fixed) {
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            out << ',' << buf;
        }
        for (const double v : rec.coeffs) {
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            out << ',' << buf;
        }
        out << "\n";
    }
    if (!out.good()) {
        std::fprintf(stderr, "tdfstool: export write failed\n");
        return 1;
    }
    return 0;
}

/**
 * Resolve a projected column of @p rec by footer name. Integer
 * columns report @p integral so the CSV prints them without a
 * decimal point. @return false for a name the store does not have.
 */
bool
columnValue(const FeatureRecord &rec, const std::string &name,
            double &v, bool &integral)
{
    integral = true;
    if (name == "iteration") {
        v = static_cast<double>(rec.iteration);
        return true;
    }
    if (name == "analysis") {
        v = static_cast<double>(rec.analysis);
        return true;
    }
    if (name == "stop") {
        v = rec.stop ? 1.0 : 0.0;
        return true;
    }
    integral = false;
    if (tdfe::metricColumnValue(rec, tdfe::metricColumnIndex(name), v))
        return true;
    if (name.rfind("coef", 0) == 0) {
        char *end = nullptr;
        const long k = std::strtol(name.c_str() + 4, &end, 10);
        if (end != name.c_str() + 4 && *end == '\0' && k >= 0 &&
            static_cast<std::size_t>(k) < rec.coeffs.size()) {
            v = rec.coeffs[static_cast<std::size_t>(k)];
            return true;
        }
    }
    return false;
}

/** Parse all of @p text as a decimal integer. */
bool
parseInt(const std::string &text, long long &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(text.c_str(), &end, 10);
    return !text.empty() && *end == '\0' && errno == 0;
}

/** Parse all of @p text as a finite number. */
bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0' && errno == 0 &&
           std::isfinite(out);
}

/** Report a malformed flag value. @return -1. */
int
badValue(const char *flag, const char *want, const std::string &got)
{
    std::fprintf(stderr, "tdfstool: %s wants %s, got '%s'\n", flag,
                 want, got.c_str());
    return -1;
}

/**
 * Try to consume argv[@p i] (advancing @p i past any value) as one
 * of the filter/projection flags `query` and `tail` share: --iter,
 * --analysis, --stop, --where, --project.
 * @return 1 when consumed, 0 when the flag is not ours, -1 on a
 *         malformed value (message already printed).
 */
int
consumeFilterArg(int argc, char **argv, int &i,
                 tdfe::EventFilter &filter, std::string &project)
{
    const std::string arg = argv[i];
    if (arg == "--iter" && i + 1 < argc) {
        const std::string spec = argv[++i];
        const std::size_t colon = spec.find(':');
        if (colon == std::string::npos)
            return badValue("--iter", "a:b", spec);
        const std::string lo = spec.substr(0, colon);
        const std::string hi = spec.substr(colon + 1);
        long long begin = filter.iterBegin, end = 0;
        if ((!lo.empty() && !parseInt(lo, begin)) ||
            (!hi.empty() && !parseInt(hi, end)))
            return badValue("--iter", "a:b", spec);
        if (hi.empty())
            filter.iterBegin = begin;
        else
            filter.iterRange(begin, end);
        return 1;
    }
    if (arg == "--analysis" && i + 1 < argc) {
        long long id = 0;
        if (!parseInt(argv[++i], id))
            return badValue("--analysis", "an integer", argv[i]);
        filter.analysisIs(id);
        return 1;
    }
    if (arg == "--stop" && i + 1 < argc) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1")
            return badValue("--stop", "0 or 1", v);
        filter.stopIs(v == "1");
        return 1;
    }
    if (arg == "--where" && i + 1 < argc) {
        tdfe::MetricPredicate pred;
        std::string error;
        if (!tdfe::parseMetricPredicate(argv[++i], pred, &error)) {
            std::fprintf(stderr, "tdfstool: %s\n", error.c_str());
            return -1;
        }
        filter.where(pred);
        return 1;
    }
    if (arg == "--project" && i + 1 < argc) {
        project = argv[++i];
        return 1;
    }
    return 0;
}

/**
 * Resolve a --project list against @p known (footer column names):
 * empty @p project selects every column. @return false (message
 * printed) on an unknown or empty selection.
 */
bool
resolveColumns(const std::vector<std::string> &known,
               const std::string &project,
               std::vector<std::string> &cols)
{
    if (project.empty()) {
        cols = known;
        return true;
    }
    std::stringstream ss(project);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        if (std::find(known.begin(), known.end(), item) ==
            known.end()) {
            std::fprintf(stderr,
                         "tdfstool: store has no column '%s'\n",
                         item.c_str());
            return false;
        }
        cols.push_back(item);
    }
    if (cols.empty()) {
        std::fprintf(stderr,
                     "tdfstool: --project named no columns\n");
        return false;
    }
    return true;
}

/** Print one CSV row of @p rec projected to @p cols (export-format
 *  values: integral columns without a decimal point, doubles
 *  round-tripping at %.17g) — shared by `query` and `tail` so a
 *  tailed stream is textually a prefix of an export/query of the
 *  same records. */
void
printProjected(const FeatureRecord &rec,
               const std::vector<std::string> &cols)
{
    char buf[64];
    for (std::size_t c = 0; c < cols.size(); ++c) {
        double v = 0.0;
        bool integral = false;
        columnValue(rec, cols[c], v, integral);
        if (integral) {
            std::printf("%s%lld", c ? "," : "",
                        static_cast<long long>(v));
        } else {
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            std::printf("%s%s", c ? "," : "", buf);
        }
    }
    std::printf("\n");
}

int
cmdQuery(int argc, char **argv)
{
    const std::string path = argv[2];
    tdfe::EventFilter filter;
    std::string project;
    std::string agg;
    for (int i = 3; i < argc; ++i) {
        const int took =
            consumeFilterArg(argc, argv, i, filter, project);
        if (took < 0)
            return 1;
        if (took > 0)
            continue;
        const std::string arg = argv[i];
        if (arg == "--agg" && i + 1 < argc) {
            agg = argv[++i];
        } else {
            return usage();
        }
    }
    if (!agg.empty() && agg != "count" && agg != "min" &&
        agg != "max" && agg != "mean") {
        std::fprintf(stderr,
                     "tdfstool: --agg wants count, min, max, or "
                     "mean, got '%s'\n",
                     agg.c_str());
        return 1;
    }

    const auto r = openOrComplain(path);
    if (!r)
        return 1;

    std::vector<std::string> cols;
    if (!resolveColumns(r->columnNames(), project, cols))
        return 1;

    tdfe::QueryCursor cursor(*r, filter);
    FeatureRecord rec;
    char buf[64];

    if (agg == "count") {
        std::size_t n = 0;
        while (cursor.next(rec))
            ++n;
        std::printf("%zu\n", n);
        return 0;
    }

    if (!agg.empty()) {
        // Per-projected-column streaming aggregate; NaNs are
        // excluded, matching the query engine's predicate
        // semantics. A column with no non-NaN value prints "nan".
        std::vector<double> mins(cols.size(), 0.0);
        std::vector<double> maxs(cols.size(), 0.0);
        std::vector<double> sums(cols.size(), 0.0);
        std::vector<std::size_t> counts(cols.size(), 0);
        while (cursor.next(rec)) {
            for (std::size_t c = 0; c < cols.size(); ++c) {
                double v = 0.0;
                bool integral = false;
                columnValue(rec, cols[c], v, integral);
                if (std::isnan(v))
                    continue;
                if (counts[c] == 0 || v < mins[c])
                    mins[c] = v;
                if (counts[c] == 0 || v > maxs[c])
                    maxs[c] = v;
                sums[c] += v;
                ++counts[c];
            }
        }
        for (std::size_t c = 0; c < cols.size(); ++c)
            std::printf("%s%s", c ? "," : "", cols[c].c_str());
        std::printf("\n");
        for (std::size_t c = 0; c < cols.size(); ++c) {
            double v = std::numeric_limits<double>::quiet_NaN();
            if (counts[c] > 0) {
                v = agg == "min" ? mins[c]
                    : agg == "max"
                        ? maxs[c]
                        : sums[c] /
                              static_cast<double>(counts[c]);
            }
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            std::printf("%s%s", c ? "," : "", buf);
        }
        std::printf("\n");
        return 0;
    }

    for (std::size_t c = 0; c < cols.size(); ++c)
        std::printf("%s%s", c ? "," : "", cols[c].c_str());
    std::printf("\n");
    while (cursor.next(rec))
        printProjected(rec, cols);
    return 0;
}

int
cmdTail(int argc, char **argv)
{
    const std::string path = argv[2];
    tdfe::EventFilter filter;
    std::string project;
    double stall = 10.0;
    long max_records = -1;
    for (int i = 3; i < argc; ++i) {
        const int took =
            consumeFilterArg(argc, argv, i, filter, project);
        if (took < 0)
            return 1;
        if (took > 0)
            continue;
        const std::string arg = argv[i];
        if (arg == "--stall" && i + 1 < argc) {
            if (!parseNumber(argv[++i], stall) || stall < 0.0) {
                badValue("--stall", "seconds >= 0", argv[i]);
                return 1;
            }
        } else if (arg == "--max" && i + 1 < argc) {
            long long n = 0;
            if (!parseInt(argv[++i], n) || n < 0) {
                badValue("--max", "a count >= 0", argv[i]);
                return 1;
            }
            max_records = static_cast<long>(n);
        } else {
            return usage();
        }
    }

    tdfe::LiveViewOptions options;
    options.stallDeadlineSeconds = stall;
    tdfe::LiveStoreReader live(path, options);
    tdfe::TailCursor tail(live, filter);

    // First advance = attach: the column set is only known once the
    // data file's header (or footer) has been adopted.
    if (!live.attached())
        live.waitForAdvance();
    if (!live.attached()) {
        std::fprintf(stderr,
                     "tdfstool: %s: no live store appeared within "
                     "the stall deadline (%s)\n",
                     path.c_str(),
                     tdfe::liveStateName(live.state()));
        return 1;
    }

    std::vector<std::string> cols;
    if (!resolveColumns(live.view().reader().columnNames(), project,
                        cols))
        return 1;
    for (std::size_t c = 0; c < cols.size(); ++c)
        std::printf("%s%s", c ? "," : "", cols[c].c_str());
    std::printf("\n");

    FeatureRecord rec;
    long printed = 0;
    for (;;) {
        if (tail.next(rec)) {
            printProjected(rec, cols);
            // Line-buffered consumers (dashboards, the check_build
            // prefix gate) see each record as it seals.
            std::fflush(stdout);
            if (max_records >= 0 && ++printed >= max_records)
                break;
            continue;
        }
        if (tail.done())
            break;
        // Drained for now: block until the writer commits another
        // block, finishes, or the stall deadline degrades us to a static
        // view — the loop then drains that and done() ends it.
        live.waitForAdvance();
    }

    const tdfe::LiveState end_state = live.state();
    std::fprintf(stderr,
                 "tdfstool: tail of %s ended (%s, %zu records "
                 "delivered)\n",
                 path.c_str(), tdfe::liveStateName(end_state),
                 tail.recordsDelivered());
    // Both a finished writer and a lost one end the tail cleanly —
    // the records delivered are a consistent sealed prefix either
    // way. Only failing to ever see a store is an error (above).
    return 0;
}

int
cmdDiff(const std::string &path_a, const std::string &path_b,
        const std::string &ignore_list)
{
    const auto a = openOrComplain(path_a);
    const auto b = openOrComplain(path_b);
    if (!a || !b)
        return 1;

    std::set<std::string> ignored;
    {
        std::stringstream ss(ignore_list);
        std::string item;
        while (std::getline(ss, item, ','))
            if (!item.empty())
                ignored.insert(item);
    }
    const auto skip = [&ignored](const std::string &col) {
        return ignored.count(col) > 0;
    };

    if (a->schema() != b->schema()) {
        std::fprintf(stderr,
                     "schemas differ: %zu vs %zu coefficient "
                     "columns\n",
                     a->schema().coeffCount, b->schema().coeffCount);
        return 1;
    }
    if (a->recordCount() != b->recordCount()) {
        std::fprintf(stderr, "record counts differ: %zu vs %zu\n",
                     a->recordCount(), b->recordCount());
        return 1;
    }

    constexpr int maxReported = 10;
    int mismatches = 0;
    auto ca = a->cursor();
    auto cb = b->cursor();
    FeatureRecord ra, rb;
    std::size_t row = 0;
    auto report = [&](const std::string &col, double va, double vb) {
        if (++mismatches <= maxReported) {
            std::fprintf(stderr,
                         "record %zu: %s differs (%.17g vs "
                         "%.17g)\n",
                         row, col.c_str(), va, vb);
        }
    };
    while (ca.next(ra)) {
        if (!cb.next(rb))
            break;
        if (!skip("iteration") && ra.iteration != rb.iteration)
            report("iteration",
                   static_cast<double>(ra.iteration),
                   static_cast<double>(rb.iteration));
        if (!skip("analysis") && ra.analysis != rb.analysis)
            report("analysis", static_cast<double>(ra.analysis),
                   static_cast<double>(rb.analysis));
        if (!skip("stop") && ra.stop != rb.stop)
            report("stop", ra.stop, rb.stop);
        // Bitwise comparison through memcmp: NaNs compare equal to
        // themselves and +0.0 differs from -0.0, exactly what a
        // byte-level store diff should say.
        auto diff_bits = [](double x, double y) {
            return std::memcmp(&x, &y, sizeof(double)) != 0;
        };
        if (!skip("wall_time") && diff_bits(ra.wallTime, rb.wallTime))
            report("wall_time", ra.wallTime, rb.wallTime);
        if (!skip("wavefront") &&
            diff_bits(ra.wavefront, rb.wavefront))
            report("wavefront", ra.wavefront, rb.wavefront);
        if (!skip("predicted") &&
            diff_bits(ra.predicted, rb.predicted))
            report("predicted", ra.predicted, rb.predicted);
        if (!skip("mse") && diff_bits(ra.mse, rb.mse))
            report("mse", ra.mse, rb.mse);
        for (std::size_t k = 0; k < ra.coeffs.size(); ++k) {
            const std::string col = "coef" + std::to_string(k);
            if (!skip(col) && diff_bits(ra.coeffs[k], rb.coeffs[k]))
                report(col, ra.coeffs[k], rb.coeffs[k]);
        }
        ++row;
    }
    if (mismatches > maxReported) {
        std::fprintf(stderr, "... and %d more mismatches\n",
                     mismatches - maxReported);
    }
    if (mismatches == 0) {
        std::printf("stores match (%zu records%s)\n",
                    a->recordCount(),
                    ignored.empty() ? ""
                                    : ", ignored columns excluded");
        return 0;
    }
    return 1;
}

int
cmdRecover(const std::string &src, const std::string &dst)
{
    tdfe::SalvageReport report;
    if (!tdfe::salvageStore(src, dst, report)) {
        std::fprintf(stderr, "tdfstool: %s\n", report.error.c_str());
        return 1;
    }
    std::printf("%s: recovered %zu records in %zu blocks "
                "(%zu damaged/trailing bytes dropped) -> %s "
                "(%zu bytes)\n",
                src.c_str(), report.records, report.blocks,
                report.droppedBytes, dst.c_str(), report.bytes);
    return 0;
}

int
cmdCkptInfo(const std::string &path)
{
    const tdfe::ckpt::EnvelopeInfo info =
        tdfe::ckpt::inspectCheckpointFile(path);
    std::printf("checkpoint:    %s\n", path.c_str());
    std::printf("file bytes:    %" PRIu64 "\n", info.fileBytes);
    if (!info.valid) {
        std::printf("valid:         no\n");
        std::fprintf(stderr, "tdfstool: %s: %s\n", path.c_str(),
                     info.error.c_str());
        return 1;
    }
    std::printf("version:       %" PRIu32 "\n", info.version);
    std::printf("iteration:     %" PRIu64 "\n", info.iteration);
    std::printf("payload bytes: %" PRIu64 "\n", info.payloadBytes);
    std::printf("payload crc32: %08" PRIx32 "\n", info.payloadCrc);
    std::printf("valid:         yes (header and payload CRCs "
                "verified)\n");
    return 0;
}

int
cmdMetrics(const std::string &path)
{
    tdfe::obs::JsonValue doc;
    std::string error;
    if (!tdfe::obs::parseJsonFile(path, doc, error)) {
        std::fprintf(stderr, "tdfstool: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    if (!doc.isObject() ||
        doc.stringAt("schema") != "tdfe.metrics.v1") {
        std::fprintf(stderr,
                     "tdfstool: %s: not a tdfe.metrics.v1 "
                     "snapshot (schema \"%s\")\n",
                     path.c_str(), doc.stringAt("schema").c_str());
        return 1;
    }
    const tdfe::obs::JsonValue *counters = doc.find("counters");
    const tdfe::obs::JsonValue *gauges = doc.find("gauges");
    const tdfe::obs::JsonValue *hists = doc.find("histograms");
    if (!counters || !counters->isObject() || !gauges ||
        !gauges->isObject() || !hists || !hists->isObject()) {
        std::fprintf(stderr,
                     "tdfstool: %s: missing counters/gauges/"
                     "histograms sections\n",
                     path.c_str());
        return 1;
    }

    // Longest name first so the value column lines up.
    std::size_t width = 12;
    for (const auto &m : counters->members)
        width = std::max(width, m.first.size());
    for (const auto &m : gauges->members)
        width = std::max(width, m.first.size());
    for (const auto &m : hists->members)
        width = std::max(width, m.first.size());
    const int w = static_cast<int>(width);

    std::printf("metrics:    %s\n", path.c_str());
    std::printf("counters:   %zu\n", counters->members.size());
    for (const auto &m : counters->members) {
        if (!m.second.isNumber()) {
            std::fprintf(stderr,
                         "tdfstool: %s: counter %s is not a "
                         "number\n",
                         path.c_str(), m.first.c_str());
            return 1;
        }
        std::printf("  %-*s %15.0f\n", w, m.first.c_str(),
                    m.second.number);
    }
    std::printf("gauges:     %zu\n", gauges->members.size());
    for (const auto &m : gauges->members)
        std::printf("  %-*s %15g\n", w, m.first.c_str(),
                    m.second.number);
    std::printf("histograms: %zu\n", hists->members.size());
    for (const auto &m : hists->members) {
        const tdfe::obs::JsonValue &h = m.second;
        if (!h.isObject() || !h.find("count") || !h.find("sum")) {
            std::fprintf(stderr,
                         "tdfstool: %s: histogram %s is "
                         "malformed\n",
                         path.c_str(), m.first.c_str());
            return 1;
        }
        const double count = h.numberAt("count");
        std::printf("  %-*s %15.0f", w, m.first.c_str(), count);
        if (count > 0.0) {
            std::printf("  sum %.6g  min %.3g  max %.3g  mean "
                        "%.3g",
                        h.numberAt("sum"), h.numberAt("min"),
                        h.numberAt("max"),
                        h.numberAt("sum") / count);
        }
        std::printf("\n");
    }
    return 0;
}

int
cmdTrace(const std::string &path)
{
    tdfe::obs::JsonValue doc;
    std::string error;
    if (!tdfe::obs::parseJsonFile(path, doc, error)) {
        std::fprintf(stderr, "tdfstool: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    if (!doc.isObject() ||
        doc.stringAt("schema") != "tdfe.trace.v1") {
        std::fprintf(stderr,
                     "tdfstool: %s: not a tdfe.trace.v1 file "
                     "(schema \"%s\")\n",
                     path.c_str(), doc.stringAt("schema").c_str());
        return 1;
    }
    const tdfe::obs::JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr,
                     "tdfstool: %s: missing traceEvents array\n",
                     path.c_str());
        return 1;
    }

    // Per-span-name roll-up: count and total duration, plus the
    // thread set — enough to eyeball the overlap story without
    // opening Perfetto.
    struct SpanStat
    {
        std::size_t count = 0;
        double durUs = 0.0;
    };
    std::map<std::string, SpanStat> spans;
    std::set<double> tids;
    std::size_t instants = 0;
    for (const tdfe::obs::JsonValue &e : events->items) {
        if (!e.isObject() || e.stringAt("name").empty()) {
            std::fprintf(stderr,
                         "tdfstool: %s: malformed trace event\n",
                         path.c_str());
            return 1;
        }
        const std::string ph = e.stringAt("ph");
        if (ph != "X" && ph != "i") {
            std::fprintf(stderr,
                         "tdfstool: %s: unexpected event phase "
                         "\"%s\"\n",
                         path.c_str(), ph.c_str());
            return 1;
        }
        tids.insert(e.numberAt("tid"));
        if (ph == "i") {
            ++instants;
            continue;
        }
        SpanStat &s = spans[e.stringAt("name")];
        ++s.count;
        s.durUs += e.numberAt("dur");
    }

    std::size_t width = 12;
    for (const auto &m : spans)
        width = std::max(width, m.first.size());
    std::printf("trace:    %s\n", path.c_str());
    std::printf("events:   %zu (%zu spans, %zu instants) on %zu "
                "threads\n",
                events->items.size(),
                events->items.size() - instants, instants,
                tids.size());
    for (const auto &m : spans)
        std::printf("  %-*s %8zu x  %12.1f us total\n",
                    static_cast<int>(width), m.first.c_str(),
                    m.second.count, m.second.durUs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        printUsage(stdout);
        return 0;
    }
    if (argc < 3)
        return usage();

    if (cmd == "info")
        return cmdInfo(argv[2]);
    if (cmd == "verify")
        return cmdVerify(argv[2]);
    if (cmd == "export") {
        std::string out;
        for (int i = 3; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--out" && i + 1 < argc)
                out = argv[++i];
            else
                return usage();
        }
        return cmdExport(argv[2], out);
    }
    if (cmd == "query")
        return cmdQuery(argc, argv);
    if (cmd == "tail")
        return cmdTail(argc, argv);
    if (cmd == "diff") {
        if (argc < 4)
            return usage();
        std::string ignore;
        for (int i = 4; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--ignore" && i + 1 < argc)
                ignore = argv[++i];
            else
                return usage();
        }
        return cmdDiff(argv[2], argv[3], ignore);
    }
    if (cmd == "recover") {
        if (argc != 4)
            return usage();
        return cmdRecover(argv[2], argv[3]);
    }
    if (cmd == "ckpt-info") {
        if (argc != 3)
            return usage();
        return cmdCkptInfo(argv[2]);
    }
    if (cmd == "metrics") {
        if (argc != 3)
            return usage();
        return cmdMetrics(argv[2]);
    }
    if (cmd == "trace") {
        if (argc != 3)
            return usage();
        return cmdTrace(argv[2]);
    }
    return usage();
}
