#include "base/serial.hh"

#include <string_view>

#include "base/logging.hh"
// Compile-time guard: every raw little-endian IEEE-754 payload the
// serial layer writes shares these assumptions with the feature
// store and the trace dump.
#include "base/portable.hh"

namespace tdfe
{

void
BinaryWriter::put(const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    if (buf)
        buf->append(p, n);
    else
        stream->write(p, static_cast<std::streamsize>(n));
}

void
BinaryWriter::writeBool(bool v)
{
    const std::uint8_t b = v ? 1 : 0;
    put(&b, sizeof(b));
}

void
BinaryWriter::writeVec(const std::vector<double> &v)
{
    writeU64(v.size());
    put(v.data(), v.size() * sizeof(double));
}

void
BinaryWriter::writeTag(const std::string &tag)
{
    writeU64(tag.size());
    put(tag.data(), tag.size());
}

void
BinaryReader::fail(const std::string &message)
{
    if (!ok_)
        return;
    ok_ = false;
    error_ = message;
}

bool
BinaryReader::have(std::size_t n)
{
    if (ok_ && remaining() < n) {
        fail("payload truncated: wanted " + std::to_string(n) +
             " bytes, " + std::to_string(remaining()) + " remain");
    }
    return ok_;
}

double
BinaryReader::readF64()
{
    double v = 0.0;
    if (have(sizeof(v)))
        in.bytes(&v, sizeof(v));
    return v;
}

bool
BinaryReader::readBool()
{
    std::uint8_t b = 0;
    if (have(sizeof(b)))
        in.bytes(&b, sizeof(b));
    return b != 0;
}

std::uint64_t
BinaryReader::readLength(std::size_t unit, const std::string &what)
{
    const std::uint64_t n = readU64();
    // Divide rather than multiply: n * unit wraps for a corrupt n.
    if (ok_ && n > remaining() / unit) {
        fail("payload corrupt: " + what + " length " +
             std::to_string(n) + " exceeds the " +
             std::to_string(remaining()) + " bytes remaining");
    }
    return ok_ ? n : 0;
}

std::vector<double>
BinaryReader::readVec()
{
    std::vector<double> v(readLength(sizeof(double), "vector"));
    if (!v.empty())
        in.bytes(v.data(), v.size() * sizeof(double));
    return v;
}

void
BinaryReader::readVecInto(std::vector<double> &dst, const char *what)
{
    const std::uint64_t n = readLength(sizeof(double), what);
    if (!ok_)
        return;
    if (n != dst.size()) {
        TDFE_FATAL(what, " checkpoint has ", n, " values, configured "
                   "for ", dst.size());
    }
    if (n > 0)
        in.bytes(dst.data(), dst.size() * sizeof(double));
}

void
BinaryReader::expectTag(const std::string &tag)
{
    const std::uint64_t n =
        readLength(1, "tag (expected section '" + tag + "')");
    if (!ok_)
        return;
    const std::string_view got(
        reinterpret_cast<const char *>(in.cursor()), n);
    in.skip(n);
    if (got != tag) {
        fail("payload section mismatch: expected '" + tag +
             "', found '" + std::string(got) + "'");
    }
}

} // namespace tdfe
