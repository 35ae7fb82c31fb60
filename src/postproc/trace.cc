#include "postproc/trace.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>

#include "base/logging.hh"
#include "base/portable.hh"
#include "base/serial.hh"
#include "store/file.hh"

namespace tdfe
{

namespace
{

/** Magic tag + version of the serial-routed dump format. */
const char traceTag[] = "TDFETRACE";
constexpr std::uint64_t traceVersion = 2;

} // namespace

FullTrace::FullTrace(std::size_t n_locs) : nLocs(n_locs)
{
    if (n_locs == 0)
        TDFE_FATAL("trace needs at least one location");
}

void
FullTrace::appendRow(const std::vector<double> &row)
{
    // User-supplied data: an explicit fatal, not an internal
    // assertion — a mismatched row would silently shear every later
    // (iteration, location) index.
    if (row.size() != nLocs)
        TDFE_FATAL("trace row size ", row.size(), " != ", nLocs);
    values.insert(values.end(), row.begin(), row.end());
}

double
FullTrace::at(std::size_t iter, std::size_t loc) const
{
    if (iter >= iterCount() || loc >= nLocs)
        TDFE_FATAL("trace index (", iter, ", ", loc,
                   ") out of range (", iterCount(), " x ", nLocs,
                   ")");
    return values[iter * nLocs + loc];
}

std::vector<double>
FullTrace::seriesAt(std::size_t loc) const
{
    if (loc >= nLocs)
        TDFE_FATAL("trace location ", loc, " out of range (", nLocs,
                   ")");
    std::vector<double> out(iterCount());
    for (std::size_t r = 0; r < out.size(); ++r)
        out[r] = values[r * nLocs + loc];
    return out;
}

std::vector<double>
FullTrace::peakProfile() const
{
    std::vector<double> peaks(nLocs, 0.0);
    for (std::size_t r = 0; r < iterCount(); ++r)
        for (std::size_t l = 0; l < nLocs; ++l)
            peaks[l] = std::max(peaks[l], values[r * nLocs + l]);
    return peaks;
}

std::size_t
FullTrace::dump(const std::string &path) const
{
    std::string bytes;
    BinaryWriter w(bytes);
    w.writeTag(traceTag);
    w.writeU64(traceVersion);
    w.writeU64(nLocs);
    w.writeU64(iterCount());
    w.writeVec(values);

    std::ofstream out(path, std::ios::binary);
    if (!out)
        TDFE_FATAL("cannot open trace file for writing: ", path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    // The stream buffers its tail until close: only then does a
    // failed final write (a full disk) show.
    out.close();
    if (out.fail())
        TDFE_FATAL("trace write failed: ", path);
    return bytes.size();
}

FullTrace
FullTrace::load(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    const store::IoError io = store::readWholeFile(
        {}, path, std::numeric_limits<std::uint64_t>::max(), bytes);
    if (!io.ok())
        TDFE_FATAL("cannot read trace file ", path, ": ", io.message);

    // A pre-v2 raw dump or a foreign file fails the tag check; a cut
    // or overlong file fails the reader or the trailing-byte check,
    // never loading as a partially-filled trace.
    BinaryReader r(bytes.data(), bytes.size());
    r.expectTag(traceTag);
    const std::uint64_t version = r.readU64();
    if (r.ok() && version != traceVersion)
        TDFE_FATAL("unsupported trace version ", version, ": ", path);
    const std::uint64_t n_locs = r.readU64();
    const std::uint64_t n_iters = r.readU64();
    std::vector<double> values;
    r.readVec(values);
    if (r.ok() && r.remaining() != 0)
        r.fail(std::to_string(r.remaining()) + " trailing bytes");
    if (!r.ok())
        TDFE_FATAL("corrupt ", traceTag, " dump ", path, ": ",
                   r.error());
    if (n_locs == 0)
        TDFE_FATAL("corrupt trace header: zero locations");
    if (values.size() / n_locs != n_iters ||
        values.size() % n_locs != 0)
        TDFE_FATAL("corrupt trace payload: ", values.size(),
                   " values, header promises ", n_locs, " x ",
                   n_iters);

    FullTrace trace(static_cast<std::size_t>(n_locs));
    trace.values = std::move(values);
    return trace;
}

} // namespace tdfe
