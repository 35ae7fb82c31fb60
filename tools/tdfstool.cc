/**
 * @file
 * `tdfstool` — operator CLI of the feature trace store, in the
 * spirit of TrailDB's `tdb` utility:
 *
 *   tdfstool info   <store>            header/schema/block summary
 *   tdfstool verify <store>            CRC + full-decode walk
 *   tdfstool export <store> [--out f]  CSV dump (stdout default): the
 *                                      `query` listing with no filter
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
 * Column names, their order, and each record's values come from the
 * store's StoreSchema (store/feature_record.hh); every column flag
 * (--project, --ignore) resolves names through it, so an unknown
 * name is an error, never a silent no-op. `export`, `query` and
 * `tail` share one CSV printer, so their listings of the same
 * records are byte-identical.
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
#include <map>
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
using tdfe::StoreSchema;

namespace
{

void
printUsage(std::FILE *to)
{
    const auto metric = [](std::size_t k) {
        return StoreSchema::columnName(StoreSchema::numIntColumns + k);
    };
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
        "                              columns: %s, %s,\n"
        "                              %s, %s; ops: < <= > >= == !=\n"
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
        "0\n",
        metric(0).c_str(), metric(1).c_str(), metric(2).c_str(),
        metric(3).c_str());
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
    const auto names = r->schema().columnNames();
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

/** Column @p col (file order) of @p rec as a double. */
double
columnValue(const FeatureRecord &rec, std::size_t col)
{
    return col < StoreSchema::numIntColumns
               ? static_cast<double>(StoreSchema::intColumn(rec, col))
               : StoreSchema::doubleColumn(
                     rec, col - StoreSchema::numIntColumns);
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
 * Resolve the comma-separated column list @p list that @p flag
 * (--project, --ignore) named against @p schema into file-order
 * indices: an empty @p list selects every column. @return false
 * (message printed) on an unknown or empty selection.
 */
bool
resolveColumns(const StoreSchema &schema, const std::string &list,
               const char *flag, std::vector<std::size_t> &cols)
{
    if (list.empty()) {
        for (std::size_t c = 0; c < schema.totalColumns(); ++c)
            cols.push_back(c);
        return true;
    }
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        const std::size_t c = schema.columnIndex(item);
        if (c == static_cast<std::size_t>(-1)) {
            std::fprintf(stderr,
                         "tdfstool: store has no column '%s'\n",
                         item.c_str());
            return false;
        }
        cols.push_back(c);
    }
    if (cols.empty()) {
        std::fprintf(stderr, "tdfstool: %s named no columns\n", flag);
        return false;
    }
    return true;
}

/** Print the CSV header line naming @p cols. */
void
printHeader(std::FILE *out, const std::vector<std::size_t> &cols)
{
    for (std::size_t c = 0; c < cols.size(); ++c)
        std::fprintf(out, "%s%s", c ? "," : "",
                     StoreSchema::columnName(cols[c]).c_str());
    std::fputc('\n', out);
}

/** Print one CSV row of @p rec projected to @p cols (integer
 *  columns without a decimal point, doubles round-tripping at
 *  %.17g) — shared by `export`, `query` and `tail`, so a tailed
 *  stream is textually a prefix of an export/query of the same
 *  records. */
void
printRow(std::FILE *out, const FeatureRecord &rec,
         const std::vector<std::size_t> &cols)
{
    for (std::size_t c = 0; c < cols.size(); ++c) {
        const char *sep = c ? "," : "";
        if (cols[c] < StoreSchema::numIntColumns)
            std::fprintf(out, "%s%lld", sep,
                         static_cast<long long>(
                             StoreSchema::intColumn(rec, cols[c])));
        else
            std::fprintf(out, "%s%.17g", sep,
                         columnValue(rec, cols[c]));
    }
    std::fputc('\n', out);
}

/** Print the header and every record @p cursor yields, projected
 *  to @p cols. @return false when writing to @p out failed. */
bool
printRecords(std::FILE *out, tdfe::QueryCursor &cursor,
             const std::vector<std::size_t> &cols)
{
    printHeader(out, cols);
    FeatureRecord rec;
    while (cursor.next(rec))
        printRow(out, rec, cols);
    return std::fflush(out) == 0 && !std::ferror(out);
}

int
cmdExport(const std::string &path, const std::string &out_path)
{
    const auto r = openOrComplain(path);
    if (!r)
        return 1;
    std::FILE *out = stdout;
    if (!out_path.empty() &&
        !(out = std::fopen(out_path.c_str(), "w"))) {
        std::fprintf(stderr, "tdfstool: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::vector<std::size_t> cols; // every column: no --project
    resolveColumns(r->schema(), "", "--project", cols);
    auto cursor = r->cursor();
    bool ok = printRecords(out, cursor, cols);
    if (out != stdout)
        ok = std::fclose(out) == 0 && ok;
    if (!ok) {
        std::fprintf(stderr, "tdfstool: export write failed\n");
        return 1;
    }
    return 0;
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

    std::vector<std::size_t> cols;
    if (!resolveColumns(r->schema(), project, "--project", cols))
        return 1;

    tdfe::QueryCursor cursor(*r, filter);
    FeatureRecord rec;

    if (agg == "count") {
        std::size_t n = 0;
        while (cursor.next(rec))
            ++n;
        std::printf("%zu\n", n);
        return 0;
    }

    if (!agg.empty()) {
        // Per-projected-column streaming aggregate (a column with no
        // non-NaN value prints "nan").
        std::vector<tdfe::ColumnStats> stats(cols.size());
        while (cursor.next(rec))
            for (std::size_t c = 0; c < cols.size(); ++c)
                stats[c].add(columnValue(rec, cols[c]));
        printHeader(stdout, cols);
        for (std::size_t c = 0; c < cols.size(); ++c) {
            const tdfe::ColumnStats &s = stats[c];
            std::printf("%s%.17g", c ? "," : "",
                        agg == "min"   ? s.min
                        : agg == "max" ? s.max
                                       : s.mean());
        }
        std::printf("\n");
        return 0;
    }

    if (!printRecords(stdout, cursor, cols)) {
        std::fprintf(stderr, "tdfstool: query write failed\n");
        return 1;
    }
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

    std::vector<std::size_t> cols;
    if (!resolveColumns(live.view().reader().schema(), project,
                        "--project", cols))
        return 1;
    printHeader(stdout, cols);

    FeatureRecord rec;
    long printed = 0;
    for (;;) {
        if (tail.next(rec)) {
            printRow(stdout, rec, cols);
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

    if (a->schema() != b->schema()) {
        std::fprintf(stderr,
                     "schemas differ: %zu vs %zu coefficient "
                     "columns\n",
                     a->schema().coeffCount, b->schema().coeffCount);
        return 1;
    }
    const std::size_t n_cols = a->schema().totalColumns();
    std::vector<bool> ignored(n_cols, false);
    if (!ignore_list.empty()) {
        std::vector<std::size_t> cols;
        if (!resolveColumns(a->schema(), ignore_list, "--ignore", cols))
            return 1;
        for (const std::size_t c : cols)
            ignored[c] = true;
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
    while (ca.next(ra)) {
        if (!cb.next(rb))
            break;
        for (std::size_t c = 0; c < n_cols; ++c) {
            if (ignored[c])
                continue;
            const double va = columnValue(ra, c);
            const double vb = columnValue(rb, c);
            // Doubles compare bitwise: NaNs equal themselves and
            // +0.0 differs from -0.0, exactly what a byte-level
            // store diff should say.
            const bool differs =
                c < StoreSchema::numIntColumns
                    ? StoreSchema::intColumn(ra, c) !=
                          StoreSchema::intColumn(rb, c)
                    : std::memcmp(&va, &vb, sizeof(double)) != 0;
            if (differs && ++mismatches <= maxReported)
                std::fprintf(stderr,
                             "record %zu: %s differs (%.17g vs "
                             "%.17g)\n",
                             row, StoreSchema::columnName(c).c_str(),
                             va, vb);
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
                    ignore_list.empty() ? ""
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
