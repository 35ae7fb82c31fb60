#include "store/query.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"
#include "obs/metrics.hh"
#include "store/reader.hh"

namespace tdfe
{

bool
MetricPredicate::matches(double v) const
{
    if (std::isnan(v))
        return false;
    switch (op) {
      case PredOp::Lt:
        return v < value;
      case PredOp::Le:
        return v <= value;
      case PredOp::Gt:
        return v > value;
      case PredOp::Ge:
        return v >= value;
      case PredOp::Eq:
        return v == value;
      case PredOp::Ne:
        return v != value;
    }
    return false;
}

bool
MetricPredicate::feasible(double lo, double hi) const
{
    if (lo > hi)
        return false; // empty interval: only NaNs in the block
    switch (op) {
      case PredOp::Lt:
        return lo < value;
      case PredOp::Le:
        return lo <= value;
      case PredOp::Gt:
        return hi > value;
      case PredOp::Ge:
        return hi >= value;
      case PredOp::Eq:
        return lo <= value && value <= hi;
      case PredOp::Ne:
        // Infeasible only when every value in the block equals the
        // predicate's — i.e. a constant column at exactly `value`.
        return !(lo == hi && lo == value);
    }
    return true;
}

std::size_t
metricColumnIndex(const std::string &name)
{
    for (std::size_t c = 0; c < StoreSchema::numFixedDoubleColumns;
         ++c)
        if (name == StoreSchema().doubleColumnName(c))
            return c;
    return static_cast<std::size_t>(-1);
}

bool
metricColumnValue(const FeatureRecord &r, std::size_t column,
                  double &v)
{
    switch (column) {
      case 0:
        v = r.wallTime;
        return true;
      case 1:
        v = r.wavefront;
        return true;
      case 2:
        v = r.predicted;
        return true;
      case 3:
        v = r.mse;
        return true;
    }
    return false;
}

bool
parseMetricPredicate(const std::string &text, MetricPredicate &out,
                     std::string *error)
{
    auto reject = [&](const std::string &msg) {
        if (error)
            *error = "bad predicate '" + text + "': " + msg;
        return false;
    };

    // Two-character operators first so "<=" never parses as "<".
    struct OpToken
    {
        const char *token;
        PredOp op;
    };
    static const OpToken ops[] = {
        {"<=", PredOp::Le}, {">=", PredOp::Ge}, {"==", PredOp::Eq},
        {"!=", PredOp::Ne}, {"<", PredOp::Lt},  {">", PredOp::Gt},
        {"=", PredOp::Eq},
    };
    std::size_t at = std::string::npos;
    const OpToken *found = nullptr;
    for (const OpToken &o : ops) {
        const std::size_t p = text.find(o.token);
        if (p != std::string::npos && (at == std::string::npos ||
                                       p < at)) {
            at = p;
            found = &o;
        }
    }
    if (!found)
        return reject("no comparison operator (<, <=, >, >=, ==, !=)");

    const std::string col = text.substr(0, at);
    const std::string val =
        text.substr(at + std::strlen(found->token));
    out.column = metricColumnIndex(col);
    if (out.column == static_cast<std::size_t>(-1))
        return reject("unknown metric column '" + col +
                      "' (wall_time, wavefront, predicted, mse)");
    if (val.empty())
        return reject("missing value");
    char *end = nullptr;
    out.value = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0')
        return reject("cannot parse value '" + val + "'");
    out.op = found->op;
    return true;
}

bool
EventFilter::matches(const FeatureRecord &r) const
{
    const std::int64_t iter = r.iteration;
    if (iter < iterBegin || iter > iterLast)
        return false;
    if (hasAnalysis && r.analysis != analysis)
        return false;
    if (hasStop && r.stop != stop)
        return false;
    for (const MetricPredicate &p : predicates) {
        double v = 0.0;
        // An unknown column matches nothing.
        if (!metricColumnValue(r, p.column, v) || !p.matches(v))
            return false;
    }
    return true;
}

QueryCursor
FeatureStoreReader::cursor() const
{
    return QueryCursor(*this, EventFilter());
}

QueryCursor::QueryCursor(const FeatureStoreReader &reader,
                         EventFilter filter, std::size_t first_block)
    : reader_(&reader), filter_(std::move(filter)),
      block_(first_block)
{
}

bool
QueryCursor::blockMayMatch(std::size_t b) const
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    if (reader_->blockIterBounds(b, lo, hi) &&
        (hi < filter_.iterBegin || lo > filter_.iterLast))
        return false;
    const store::BlockZone *z = reader_->zone(b);
    if (!z)
        return true; // no statistics: must decode
    if (filter_.hasAnalysis &&
        (filter_.analysis < z->intMin[1] ||
         filter_.analysis > z->intMax[1]))
        return false;
    if (filter_.hasStop) {
        const std::int64_t want = filter_.stop ? 1 : 0;
        if (want < z->intMin[2] || want > z->intMax[2])
            return false;
    }
    for (const MetricPredicate &p : filter_.predicates) {
        if (p.column >= store::zoneDoubleColumns)
            return false; // matches() rejects every record too
        if (!p.feasible(z->dblMin[p.column], z->dblMax[p.column]))
            return false;
    }
    return true;
}

bool
QueryCursor::next(FeatureRecord &out)
{
    for (;;) {
        while (pos_ < count_) {
            const std::size_t i = pos_++;
            const std::int64_t iter = ints_[0][i];
            if (iter < filter_.iterBegin || iter > filter_.iterLast)
                continue;
            if (filter_.hasAnalysis &&
                ints_[1][i] != filter_.analysis)
                continue;
            if (filter_.hasStop &&
                (ints_[2][i] != 0) != filter_.stop)
                continue;
            bool good = true;
            for (const MetricPredicate &p : filter_.predicates) {
                if (p.column >= store::zoneDoubleColumns ||
                    !p.matches(dbls_[p.column][i])) {
                    good = false;
                    break;
                }
            }
            if (!good)
                continue;
            out.iteration = static_cast<long>(iter);
            out.analysis = static_cast<long>(ints_[1][i]);
            out.stop = ints_[2][i] != 0;
            out.wallTime = dbls_[0][i];
            out.wavefront = dbls_[1][i];
            out.predicted = dbls_[2][i];
            out.mse = dbls_[3][i];
            const std::size_t n_coeffs = reader_->schema().coeffCount;
            out.coeffs.resize(n_coeffs);
            for (std::size_t k = 0; k < n_coeffs; ++k)
                out.coeffs[k] =
                    dbls_[StoreSchema::numFixedDoubleColumns + k][i];
            return true;
        }

        // Find the next block the filter cannot rule out.
        for (;;) {
            if (block_ >= reader_->blockCount())
                return false;
            const std::size_t b = block_++;
            std::int64_t lo = 0;
            std::int64_t hi = 0;
            if (reader_->sortedByIteration() &&
                reader_->blockIterBounds(b, lo, hi) &&
                lo > filter_.iterLast) {
                // Sorted store: every later block is even later.
                block_ = reader_->blockCount();
                return false;
            }
            if (!blockMayMatch(b)) {
                static obs::Counter skipped(
                    "store.reader.blocks_zone_skipped_total");
                skipped.add();
                continue;
            }
            std::string detail;
            if (!reader_->decodeBlock(b, raw_, ints_, dbls_,
                                      &detail))
                TDFE_FATAL("corrupt feature store: ", detail);
            ++decoded_;
            count_ = ints_[0].size();
            pos_ = 0;
            break;
        }
    }
}

} // namespace tdfe
