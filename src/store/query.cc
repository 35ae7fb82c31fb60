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
    const std::size_t c = StoreSchema().columnIndex(name);
    if (c < StoreSchema::numIntColumns ||
        c >= StoreSchema::numIntColumns +
                 StoreSchema::numFixedDoubleColumns)
        return static_cast<std::size_t>(-1);
    return c - StoreSchema::numIntColumns;
}

void
ColumnStats::add(double v)
{
    if (std::isnan(v))
        return;
    if (count == 0 || v < min)
        min = v;
    if (count == 0 || v > max)
        max = v;
    sum += v;
    ++count;
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
    if (out.column == static_cast<std::size_t>(-1)) {
        std::string known;
        for (std::size_t c = 0; c < StoreSchema::numFixedDoubleColumns;
             ++c)
            known += (c ? ", " : "") +
                     StoreSchema::columnName(StoreSchema::numIntColumns +
                                             c);
        return reject("unknown metric column '" + col + "' (" + known +
                      ")");
    }
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
        // An unknown column matches nothing.
        if (p.column >= StoreSchema::numFixedDoubleColumns ||
            !p.matches(StoreSchema::doubleColumn(r, p.column)))
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
        if (p.column >= StoreSchema::numFixedDoubleColumns)
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
                if (p.column >= StoreSchema::numFixedDoubleColumns ||
                    !p.matches(dbls_[p.column][i])) {
                    good = false;
                    break;
                }
            }
            if (!good)
                continue;
            for (std::size_t c = 0; c < StoreSchema::numIntColumns; ++c)
                StoreSchema::setIntColumn(out, c, ints_[c][i]);
            out.coeffs.resize(reader_->schema().coeffCount);
            for (std::size_t c = 0; c < dbls_.size(); ++c)
                StoreSchema::doubleColumn(out, c) = dbls_[c][i];
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
