#include "core/observed_series.hh"

#include "base/serial.hh"

#include "base/logging.hh"

#include <algorithm>

namespace tdfe
{

ObservedSeries::ObservedSeries(long loc_begin, long loc_step,
                               std::size_t n_locs, long iter_begin,
                               long iter_last)
    : locBegin_(loc_begin), locStep_(loc_step), nLocs(n_locs),
      iterBegin_(iter_begin)
{
    TDFE_ASSERT(loc_step > 0, "location step must be positive");
    TDFE_ASSERT(n_locs > 0, "need at least one location");
    const std::size_t max_rows =
        reserveCeilingBytes / (n_locs * sizeof(double));
    if (iter_last < iter_begin || max_rows == 0)
        return;
    // iter_last - iter_begin in unsigned arithmetic: exact for any
    // pair of longs, where the signed difference can overflow.
    const unsigned long span = static_cast<unsigned long>(iter_last) -
                               static_cast<unsigned long>(iter_begin);
    reserveValues =
        (std::min<unsigned long>(span, max_rows - 1) + 1) * n_locs;
}

void
ObservedSeries::appendRow(const std::vector<double> &values)
{
    TDFE_ASSERT(values.size() == nLocs,
                "row has ", values.size(), " values, expected ",
                nLocs);
    if (data.capacity() == 0)
        data.reserve(reserveValues);
    data.insert(data.end(), values.begin(), values.end());
    ++rows;
}

bool
ObservedSeries::hasIter(long iter) const
{
    return iter >= iterBegin_ &&
           iter < iterBegin_ + static_cast<long>(rows);
}

bool
ObservedSeries::hasLoc(long loc) const
{
    if (loc < locBegin_ || loc > locEnd())
        return false;
    return (loc - locBegin_) % locStep_ == 0;
}

long
ObservedSeries::locEnd() const
{
    return locBegin_ + static_cast<long>(nLocs - 1) * locStep_;
}

long
ObservedSeries::iterEnd() const
{
    return iterBegin_ + static_cast<long>(rows);
}

std::size_t
ObservedSeries::locIndex(long loc) const
{
    TDFE_ASSERT(hasLoc(loc), "location ", loc, " not sampled");
    return static_cast<std::size_t>((loc - locBegin_) / locStep_);
}

double
ObservedSeries::at(long loc, long iter) const
{
    TDFE_ASSERT(hasIter(iter), "iteration ", iter, " not recorded");
    const std::size_t row =
        static_cast<std::size_t>(iter - iterBegin_);
    return data[row * nLocs + locIndex(loc)];
}

std::vector<double>
ObservedSeries::seriesAt(long loc) const
{
    const SeriesView v = seriesView(loc);
    std::vector<double> out(v.size());
    for (std::size_t r = 0; r < v.size(); ++r)
        out[r] = v[r];
    return out;
}

std::vector<double>
ObservedSeries::profileAt(long iter) const
{
    const SeriesView v = profileView(iter);
    return std::vector<double>(v.data(), v.data() + v.size());
}

SeriesView
ObservedSeries::seriesView(long loc) const
{
    const std::size_t li = locIndex(loc);
    return SeriesView(rows > 0 ? data.data() + li : nullptr, rows,
                      nLocs);
}

SeriesView
ObservedSeries::profileView(long iter) const
{
    TDFE_ASSERT(hasIter(iter), "iteration ", iter, " not recorded");
    const std::size_t row =
        static_cast<std::size_t>(iter - iterBegin_);
    return SeriesView(data.data() + row * nLocs, nLocs, 1);
}

std::size_t
ObservedSeries::memoryBytes() const
{
    return data.size() * sizeof(double);
}

std::size_t
ObservedSeries::reservedBytes() const
{
    return data.capacity() * sizeof(double);
}


void
ObservedSeries::save(BinaryWriter &w) const
{
    w.writeI64(locBegin_);
    w.writeI64(locStep_);
    w.writeU64(nLocs);
    w.writeI64(iterBegin_);
    w.writeU64(rows);
    w.writeVec(data);
}

void
ObservedSeries::load(BinaryReader &r)
{
    const long lb = static_cast<long>(r.readI64());
    const long ls = static_cast<long>(r.readI64());
    const std::uint64_t nl = r.readU64();
    const long ib = static_cast<long>(r.readI64());
    if (!r.ok())
        return; // damaged stream: values are zeros, caller checks ok()
    if (lb != locBegin_ || ls != locStep_ || nl != nLocs ||
        ib != iterBegin_) {
        TDFE_FATAL("observed-series checkpoint lattice mismatch "
                   "(was the analysis reconfigured?)");
    }
    rows = static_cast<std::size_t>(r.readU64());
    data.reserve(reserveValues); // the rows are read into it
    r.readVec(data);
    if (!r.ok()) {
        rows = 0;
        data.clear();
        return;
    }
    if (data.size() != rows * nLocs)
        TDFE_FATAL("observed-series checkpoint shape mismatch");
}

} // namespace tdfe
