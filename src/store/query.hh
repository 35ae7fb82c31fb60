/**
 * @file
 * Read-side query engine of the feature trace store: a composable
 * record filter (iteration window × analysis id × stop flag ×
 * range predicates over the fixed metric columns) and a streaming
 * cursor that evaluates it with block pushdown — the one cursor
 * full scans, filtered queries and live tails all run through.
 * Every clause is
 * checked twice — once per block against the footer's zone map
 * (min/max per column), once per record against the decoded values
 * — and the block-level check is conservative: a block is decoded
 * unless the statistics *prove* no record in it can match. Blocks
 * the zone map rules out are never read off disk at all (the
 * reader fetches blocks on demand), which is where the selective-
 * scan speedup in PERF.md comes from.
 *
 * NaN semantics: a record whose metric value is NaN never matches
 * any predicate over that column, `!=` included. This mirrors the
 * zone map, which excludes NaNs from min/max — the two layers must
 * agree or pushdown would change query results. Callers who want
 * NaN rows query without a predicate on that column and inspect
 * the records themselves.
 */

#ifndef TDFE_STORE_QUERY_HH
#define TDFE_STORE_QUERY_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "store/feature_record.hh"

namespace tdfe
{

class FeatureStoreReader;

/** Comparison operator of a metric predicate. */
enum class PredOp
{
    Lt, ///< <
    Le, ///< <=
    Gt, ///< >
    Ge, ///< >=
    Eq, ///< ==
    Ne, ///< !=
};

/**
 * One range predicate over a fixed metric (double) column:
 * `column <op> value`. Coefficient columns are not addressable —
 * no zone statistics exist for them (see format.hh).
 */
struct MetricPredicate
{
    /** Fixed double column index (see metricColumnIndex). */
    std::size_t column = 0;
    PredOp op = PredOp::Lt;
    double value = 0.0;

    /** Record-level test. NaN @p v never matches (see file doc). */
    bool matches(double v) const;

    /**
     * Block-level test against the zone interval [@p lo, @p hi]
     * (NaN-free by construction; lo > hi encodes the empty
     * interval). @return false only when no value in the interval
     * can satisfy the predicate — then the block is skipped.
     */
    bool feasible(double lo, double hi) const;
};

/** @return fixed metric column index of @p name ("wall_time",
 *  "wavefront", "predicted", "mse"), or SIZE_MAX when unknown. */
std::size_t metricColumnIndex(const std::string &name);

/** Read metric column @p column (see metricColumnIndex) of @p r
 *  into @p v. @return false for an unknown column. */
bool metricColumnValue(const FeatureRecord &r, std::size_t column,
                       double &v);

/**
 * Parse "col<op>value" (e.g. "mse<0.5", "wavefront>=12") into
 * @p out. Accepted operators: <= >= < > == != (and = for ==).
 * @return false with a diagnostic in @p error on bad input.
 */
bool parseMetricPredicate(const std::string &text,
                          MetricPredicate &out,
                          std::string *error = nullptr);

/**
 * Conjunction of filter clauses; default-constructed matches every
 * record. Build fluently:
 *
 *   EventFilter f = EventFilter()
 *       .iterRange(1000, 2000)
 *       .analysisIs(3)
 *       .where({metricColumnIndex("mse"), PredOp::Lt, 1e-3});
 */
struct EventFilter
{
    /** Iteration window [iterBegin, iterLast], both ends inclusive
     *  so that the default holds every iteration. @{ */
    std::int64_t iterBegin = std::numeric_limits<std::int64_t>::min();
    std::int64_t iterLast = std::numeric_limits<std::int64_t>::max();
    /** @} */
    /** Exact analysis id (active when hasAnalysis). @{ */
    bool hasAnalysis = false;
    std::int64_t analysis = 0;
    /** @} */
    /** Exact stop-flag value (active when hasStop). @{ */
    bool hasStop = false;
    bool stop = false;
    /** @} */
    /** Metric predicates, ANDed. */
    std::vector<MetricPredicate> predicates;

    EventFilter &
    iterRange(std::int64_t begin, std::int64_t end)
    {
        // Half-open [begin, end). end - 1 would overflow at
        // INT64_MIN, where the window is empty: so is [1, 0].
        const bool none = end == std::numeric_limits<std::int64_t>::min();
        iterBegin = none ? 1 : begin;
        iterLast = none ? 0 : end - 1;
        return *this;
    }

    EventFilter &
    analysisIs(std::int64_t id)
    {
        hasAnalysis = true;
        analysis = id;
        return *this;
    }

    EventFilter &
    stopIs(bool v)
    {
        hasStop = true;
        stop = v;
        return *this;
    }

    EventFilter &
    where(MetricPredicate p)
    {
        predicates.push_back(p);
        return *this;
    }

    /** Record-level evaluation (the reference semantics every
     *  pushdown path must agree with). */
    bool matches(const FeatureRecord &r) const;
};

/**
 * Streaming filtered scan over one reader. Decodes a block only
 * when the filter's block-level checks cannot rule it out: the
 * iteration window prunes via the tightest known per-block bounds,
 * and on zone-mapped stores (v2 footers, any salvaged store) the
 * analysis/stop/metric clauses prune via the per-column min/max.
 * On an iteration-sorted store the scan also stops at the first
 * block past the window.
 *
 * Results are exactly the records of the scanned blocks that
 * EventFilter::matches accepts, in store order. Not
 * thread-safe; create one QueryCursor per thread (the shared
 * reader is safe to scan concurrently). The reader must outlive
 * the cursor.
 */
class QueryCursor
{
  public:
    /** Scan @p reader's blocks from @p first_block on (past the end:
     *  exhausted) for records matching @p filter. Sealed blocks are
     *  immutable, so a tail resumes a newer snapshot at its first
     *  unconsumed block. */
    QueryCursor(const FeatureStoreReader &reader, EventFilter filter,
                std::size_t first_block = 0);

    /** Decode the next matching record into @p out. @return false
     *  once the store is exhausted. Fatal on a corrupt block. */
    bool next(FeatureRecord &out);

    /** @return blocks this cursor decoded so far (its share of the
     *  reader's blocksDecoded()). */
    std::size_t blocksDecoded() const { return decoded_; }

  private:
    /** @return true unless block @p b provably holds no match. */
    bool blockMayMatch(std::size_t b) const;

    const FeatureStoreReader *reader_;
    EventFilter filter_;
    std::size_t block_;     ///< next block to consider
    std::size_t pos_ = 0;   ///< next record within the scratch
    std::size_t count_ = 0; ///< records in the scratch
    std::size_t decoded_ = 0;
    std::vector<std::uint8_t> raw_;
    std::vector<std::vector<std::int64_t>> ints_;
    std::vector<std::vector<double>> dbls_;
};

} // namespace tdfe

#endif // TDFE_STORE_QUERY_HH
