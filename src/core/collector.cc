#include "core/collector.hh"

#include "base/serial.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace tdfe
{

namespace
{

/** Lowest sampled location for the given configuration. */
long
computeLatticeBegin(const IterParam &space, const ArConfig &cfg,
                    long min_location)
{
    if (cfg.axis == LagAxis::Time)
        return space.begin;
    // Space mode: extend downward so the first in-window target has
    // its `order` spatially-preceding regressors on the lattice.
    const long extended =
        space.begin - static_cast<long>(cfg.order) * space.step;
    if (extended >= min_location)
        return extended;
    // Clamp onto the lattice of space.begin - k*step points.
    long lo = space.begin;
    while (lo - space.step >= min_location)
        lo -= space.step;
    return lo;
}

/** First iteration whose samples are needed as lag sources. */
long
computeStoreBegin(const IterParam &time, const ArConfig &cfg)
{
    const long span = cfg.axis == LagAxis::Time
        ? static_cast<long>(cfg.order) * cfg.lag
        : cfg.lag;
    return std::max<long>(0, time.begin - span);
}

} // namespace

DataCollector::DataCollector(const IterParam &space,
                             const IterParam &time,
                             const ArConfig &config, long min_location)
    : space(space), time(time), cfg(config),
      storeBegin(computeStoreBegin(time, config)),
      series(computeLatticeBegin(space, config, min_location),
             space.step,
             static_cast<std::size_t>(
                 (space.end -
                  computeLatticeBegin(space, config, min_location)) /
                 space.step) + 1,
             storeBegin, time.end),
      batch_(config.batchSize, config.order)
{
    rowScratch.resize(series.locCount(), 0.0);
    lagScratch.resize(cfg.order, 0.0);
}

void
DataCollector::collect(long iter, const SampleFn &sample)
{
    if (snapshot(iter, sample))
        digest(iter);
}

bool
DataCollector::snapshot(long iter, const SampleFn &sample)
{
    if (iter < storeBegin)
        return false;
    for (std::size_t i = 0; i < series.locCount(); ++i) {
        const long loc =
            series.locBegin() + static_cast<long>(i) * series.locStep();
        rowScratch[i] = sample(loc);
    }
    return true;
}

void
DataCollector::digest(long iter)
{
    TDFE_ASSERT(iter == series.iterEnd(),
                "iterations must arrive consecutively: got ", iter,
                ", expected ", series.iterEnd());

    for (std::size_t i = 0; i < series.locCount(); ++i) {
        if (std::isfinite(rowScratch[i]))
            continue;
        // A solver hiccup (NaN pressure, overflowed kernel) must
        // not poison the running statistics: hold the location's
        // previous value, or its quiescent zero before any.
        const long loc =
            series.locBegin() + static_cast<long>(i) * series.locStep();
        rowScratch[i] = series.iterCount() > 0
            ? series.at(loc, series.iterEnd() - 1)
            : 0.0;
        if (++nonFinite == 1) {
            TDFE_WARN("non-finite sample at location ", loc,
                      ", iteration ", iter,
                      "; holding the previous value (further "
                      "occurrences counted silently)");
        }
    }
    series.appendRow(rowScratch);

    if (time.contains(iter))
        emitPairs(iter);
}

void
DataCollector::emitPairs(long iter)
{
    auto push = [&](const double *lags, double target) {
        if (batch_.full()) {
            TDFE_ASSERT(batchSink,
                        "mini-batch overflowed with no sink installed");
            batchSink(batch_);
            TDFE_ASSERT(!batch_.full(),
                        "batch sink must clear the mini-batch");
        }
        batch_.push(lags, target);
        ++emitted;
        if (batch_.full() && batchSink) {
            batchSink(batch_);
            TDFE_ASSERT(!batch_.full(),
                        "batch sink must clear the mini-batch");
        }
    };

    // Lag gathering runs on zero-copy views of the series store
    // instead of per-element at() calls: the target iteration's
    // profile is one contiguous row, the lag sources are either a
    // second row (Space axis) or a strided column (Time axis).
    const SeriesView cur = series.profileView(iter);
    const long loc0 = series.locBegin();
    const long lstep = series.locStep();

    if (cfg.axis == LagAxis::Space) {
        const long src_iter = iter - cfg.lag;
        if (!series.hasIter(src_iter))
            return;
        const SeriesView src = series.profileView(src_iter);
        const double *__restrict src_row = src.data();
        double *__restrict lags = lagScratch.data();
        for (long l = space.begin; l <= space.end; l += space.step) {
            const long deepest =
                l - static_cast<long>(cfg.order) * space.step;
            if (deepest < loc0)
                continue;
            const std::size_t li =
                static_cast<std::size_t>((l - loc0) / lstep);
            // The order spatial predecessors are the li-1 .. li-order
            // entries of the lagged row: a descending stride-1 walk.
            for (std::size_t i = 0; i < cfg.order; ++i)
                lags[i] = src_row[li - 1 - i];
            push(lags, cur[li]);
        }
    } else {
        const long deepest =
            iter - static_cast<long>(cfg.order) * cfg.lag;
        if (deepest < storeBegin)
            return;
        const long row = iter - series.iterBegin();
        double *__restrict lags = lagScratch.data();
        for (long l = space.begin; l <= space.end; l += space.step) {
            const std::size_t li =
                static_cast<std::size_t>((l - loc0) / lstep);
            // The order temporal predecessors form a strided column
            // walk at this location.
            const SeriesView col = series.seriesView(l);
            for (std::size_t i = 0; i < cfg.order; ++i) {
                const std::size_t src_row = static_cast<std::size_t>(
                    row - static_cast<long>(i + 1) * cfg.lag);
                lags[i] = col[src_row];
            }
            push(lags, cur[li]);
        }
    }
}


void
DataCollector::save(BinaryWriter &w) const
{
    series.save(w);
    batch_.save(w);
    w.writeU64(emitted);
    w.writeU64(nonFinite);
}

void
DataCollector::load(BinaryReader &r)
{
    series.load(r);
    batch_.load(r);
    emitted = static_cast<std::size_t>(r.readU64());
    nonFinite = static_cast<std::size_t>(r.readU64());
}

} // namespace tdfe
