/**
 * @file
 * Dense store of the in-situ samples actually collected: a growing
 * (iteration x location) matrix restricted to the user's spatial
 * window. This *is* the "reduced dataset" of the in-situ method —
 * a handful of probes per iteration instead of the full field.
 */

#ifndef TDFE_CORE_OBSERVED_SERIES_HH
#define TDFE_CORE_OBSERVED_SERIES_HH

#include <cstddef>
#include <vector>

namespace tdfe
{

class BinaryReader;
class BinaryWriter;

/**
 * Zero-copy strided view into the observed-series store: element i
 * lives at data()[i * stride()]. A spatial profile (one iteration's
 * row) is contiguous (stride 1); a location's time series is a
 * column (stride = locCount()). Views are invalidated by the next
 * appendRow(), exactly like iterators into the backing vector.
 */
class SeriesView
{
  public:
    SeriesView(const double *data, std::size_t size,
               std::size_t stride)
        : p(data), n(size), step(stride)
    {
    }

    /** @return element @p i (0 <= i < size()). */
    double operator[](std::size_t i) const { return p[i * step]; }

    /** @return number of elements. */
    std::size_t size() const { return n; }

    /** @return true when the view covers no elements. */
    bool empty() const { return n == 0; }

    /** @return last element (size() > 0). */
    double back() const { return p[(n - 1) * step]; }

    /** @return element spacing in the backing store. */
    std::size_t stride() const { return step; }

    /**
     * @return raw pointer to the first element. Only stride() == 1
     * views are contiguous; callers doing pointer arithmetic must
     * respect the stride.
     */
    const double *data() const { return p; }

  private:
    const double *p;
    std::size_t n;
    std::size_t step;
};

/**
 * Row-per-iteration value store over a fixed location lattice
 * {locBegin, locBegin+locStep, ...} with nLocs entries. Iterations
 * must be appended in order starting at iterBegin.
 *
 * The history is reserved for the window at construction: the
 * constructor sizes the rows iterBegin..iterLast (at most
 * reserveCeilingBytes), and the first append or load allocates them
 * in one piece, so appending them never copies the history. Taking
 * the allocation there rather than in the constructor keeps it out
 * of a region's setup. Rows past the reservation grow the vector
 * geometrically. A run that stops early leaves the reservation's
 * tail untouched, which costs address space but no resident pages.
 */
class ObservedSeries
{
  public:
    /** Largest reservation of one history, in bytes. */
    static constexpr std::size_t reserveCeilingBytes =
        std::size_t(32) << 20;

    /**
     * @param loc_begin First sampled location.
     * @param loc_step Spacing of the location lattice.
     * @param n_locs Number of sampled locations.
     * @param iter_begin First iteration that will be appended.
     * @param iter_last Last iteration the window needs (may be
     *        LONG_MAX for an open-ended window); rows up to it are
     *        reserved, capped at reserveCeilingBytes.
     */
    ObservedSeries(long loc_begin, long loc_step, std::size_t n_locs,
                   long iter_begin, long iter_last);

    /** Append the sample row for the next iteration. */
    void appendRow(const std::vector<double> &values);

    /** @return true iff @p iter has been recorded. */
    bool hasIter(long iter) const;

    /** @return true iff @p loc is on the sampled lattice. */
    bool hasLoc(long loc) const;

    /** @return recorded value at (loc, iter); panics if absent. */
    double at(long loc, long iter) const;

    /** @return the full series at one location, oldest first. */
    std::vector<double> seriesAt(long loc) const;

    /** @return the spatial profile recorded at one iteration. */
    std::vector<double> profileAt(long iter) const;

    /**
     * Zero-copy view of the full series at one location, oldest
     * first (stride = locCount()). Same elements as seriesAt()
     * without materializing a vector; invalidated by appendRow().
     */
    SeriesView seriesView(long loc) const;

    /**
     * Zero-copy contiguous view of the spatial profile recorded at
     * one iteration (stride 1). Same elements as profileAt();
     * invalidated by appendRow().
     */
    SeriesView profileView(long iter) const;

    long locBegin() const { return locBegin_; }
    long locStep() const { return locStep_; }
    long locEnd() const;
    std::size_t locCount() const { return nLocs; }

    long iterBegin() const { return iterBegin_; }
    /** @return one past the last recorded iteration. */
    long iterEnd() const;
    std::size_t iterCount() const { return rows; }

    /**
     * @return bytes of the rows held (the in-situ memory footprint
     * of the collected data). The reservation's unused tail is not
     * counted.
     */
    std::size_t memoryBytes() const;

    /** @return bytes allocated for the history: the rows held plus
     *  the reservation's unused tail (0 before the first append or
     *  load). */
    std::size_t reservedBytes() const;

    /** Checkpoint the collected rows. @{ */
    void save(BinaryWriter &w) const;
    void load(BinaryReader &r);
    /** @} */

  private:
    std::size_t locIndex(long loc) const;

    long locBegin_;
    long locStep_;
    std::size_t nLocs;
    long iterBegin_;
    std::size_t rows = 0;
    /** Values the first append or load reserves. */
    std::size_t reserveValues = 0;
    std::vector<double> data;
};

} // namespace tdfe

#endif // TDFE_CORE_OBSERVED_SERIES_HH
