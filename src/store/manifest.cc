#include "store/manifest.hh"

#include <cstring>

#include "store/codec.hh"

namespace tdfe
{

namespace store
{

std::string
manifestPathFor(const std::string &store_path)
{
    return store_path + ".live";
}

void
encodeManifest(const LiveManifest &m, std::vector<std::uint8_t> &out)
{
    out.clear();
    out.insert(out.end(), manifestMagic, manifestMagic + 8);
    putU32(out, manifestVersion);
    putU64(out, m.generation);
    putU32(out, m.flags);
    putU64(out, m.dataBytes);
    out.insert(out.end(), m.footer.begin(), m.footer.end());
    putU32(out, crc32(out.data(), out.size()));
}

namespace
{

bool
reject(std::string *error, const std::string &msg)
{
    if (error)
        *error = "live manifest: " + msg;
    return false;
}

} // namespace

bool
decodeManifest(const std::uint8_t *data, std::size_t n,
               LiveManifest &out, std::string *error)
{
    if (n < 8 + 4 || std::memcmp(data, manifestMagic, 8) != 0)
        return reject(error, "bad magic");
    ByteReader crc_r(data + n - 4, 4);
    if (crc32(data, n - 4) != crc_r.u32())
        return reject(error, "CRC mismatch (torn publication?)");
    ByteReader r(data + 8, n - 8 - 4);
    const std::uint32_t framing = r.u32();
    if (framing != manifestVersion)
        return reject(error, "unsupported manifest version " +
                                 std::to_string(framing));
    out.generation = r.u64();
    out.flags = r.u32();
    out.dataBytes = r.u64();
    if (!r.ok())
        return reject(error, "truncated frame");
    out.footer.assign(r.cursor(), r.cursor() + r.remaining());
    return true;
}

} // namespace store

} // namespace tdfe
