/**
 * @file
 * Full-fidelity trace recording — the traditional post-analysis
 * pipeline the paper compares against. The trace stores every probe
 * value at every iteration, can be dumped to and loaded from disk
 * (the I/O cost the in-situ method avoids), and feeds the offline
 * fit and ground-truth extractors.
 */

#ifndef TDFE_POSTPROC_TRACE_HH
#define TDFE_POSTPROC_TRACE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace tdfe
{

/** Dense (iteration x location) record of a diagnostic variable. */
class FullTrace
{
  public:
    /** @param n_locs Probe count per iteration (fatal when 0). */
    explicit FullTrace(std::size_t n_locs);

    /** Append one iteration's probe row. A row whose size differs
     *  from locCount() is a fatal user error (silent truncation or
     *  padding would corrupt every later index computation). */
    void appendRow(const std::vector<double> &row);

    /** @return locations per row. */
    std::size_t locCount() const { return nLocs; }

    /** @return recorded iterations. */
    std::size_t iterCount() const
    {
        return nLocs == 0 ? 0 : values.size() / nLocs;
    }

    /** Value at (iteration, location index); fatal out of range. */
    double at(std::size_t iter, std::size_t loc) const;

    /** Full time series at one location index. */
    std::vector<double> seriesAt(std::size_t loc) const;

    /** Peak over time at each location index. */
    std::vector<double> peakProfile() const;

    /** In-memory footprint in bytes. */
    std::size_t memoryBytes() const
    {
        return values.size() * sizeof(double);
    }

    /**
     * Write the trace to @p path through base/serial (tagged
     * little-endian binary, shared portability guard with the
     * feature store; see base/portable.hh): built in memory, written
     * once. A failed open or write is fatal, including one the
     * stream only reports when the file is closed (a full disk).
     * @return bytes written.
     */
    std::size_t dump(const std::string &path) const;

    /** Read a trace written by dump(). A truncated, overlong or
     *  malformed file is a fatal error naming the trace file, never
     *  a partially-filled trace. */
    static FullTrace load(const std::string &path);

  private:
    std::size_t nLocs;
    std::vector<double> values;
};

} // namespace tdfe

#endif // TDFE_POSTPROC_TRACE_HH
