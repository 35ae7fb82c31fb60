/**
 * @file
 * Column encodings of the feature store, TrailDB-style: integer
 * columns are delta + zigzag LEB128 varints (iteration numbers are
 * near-consecutive, so deltas are tiny), double columns use
 * Gorilla-style XOR packing (consecutive feature values share most
 * mantissa bits, so the XOR is mostly zeros), and every block is
 * sealed with a CRC-32 so corruption is detected instead of decoded.
 *
 * All encodings are bit-exact: decoding returns the original 64-bit
 * patterns, including NaN payloads and signed zeros. Byte order is
 * little-endian (see base/portable.hh).
 *
 * Bit-packed sections (the Gorilla double column and the dictionary
 * index section) are one MSB-first bitstream: a field's most
 * significant bit comes first, bits fill each byte from its high bit
 * down, and the last byte is zero-padded. A decoder rejects a
 * bitstream that runs short, that has a whole byte after the one
 * holding its last bit, or whose padding bits are not zero, so each
 * valid column has exactly one encoding.
 */

#ifndef TDFE_STORE_CODEC_HH
#define TDFE_STORE_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "store/format.hh"

namespace tdfe
{

namespace store
{

/**
 * CRC-32 (IEEE 802.3, reflected poly 0xEDB88320, the zlib checksum)
 * of @p n bytes, eight bytes per step (slicing-by-8). Not CRC-32C:
 * the SSE4.2 crc32 instruction would change every stored checksum.
 */
std::uint32_t crc32(const void *data, std::size_t n);

/** Zigzag mapping: small-magnitude signed -> small unsigned. @{ */
inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
zigzagDecode(std::uint64_t u)
{
    return static_cast<std::int64_t>(u >> 1) ^
           -static_cast<std::int64_t>(u & 1);
}
/** @} */

/** Little-endian scalar appends used by block/footer builders. @{ */
void putU32(std::vector<std::uint8_t> &out, std::uint32_t v);
void putU64(std::vector<std::uint8_t> &out, std::uint64_t v);
void putI64(std::vector<std::uint8_t> &out, std::int64_t v);
void putVarint(std::vector<std::uint8_t> &out, std::uint64_t v);
/** @} */

/**
 * Bounds-checked sequential reader over an in-memory byte range.
 * Every accessor returns a defined value (zero) once a read has run
 * past the end and latches ok() false — callers validate once at the
 * end of a parse instead of after every field, and truncated files
 * turn into a clean error instead of UB.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : p(data), end(data + size)
    {
    }

    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    std::uint64_t varint();

    /** Copy @p n raw bytes into @p dst (zeros past the end). */
    void bytes(void *dst, std::size_t n);

    /** Skip @p n bytes. */
    void skip(std::size_t n);

    /** @return bytes left before the end. */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - p);
    }

    /** @return current read position pointer. */
    const std::uint8_t *cursor() const { return p; }

    /** @return false once any read ran past the end. */
    bool ok() const { return ok_; }

  private:
    const std::uint8_t *p;
    const std::uint8_t *end;
    bool ok_ = true;
};

/**
 * Delta + zigzag + varint encode @p n integers, appended to @p out.
 * The first value is stored as zigzag(v0); each later one as
 * zigzag(v[i] - v[i-1]).
 */
void encodeIntColumn(const std::int64_t *vals, std::size_t n,
                     std::vector<std::uint8_t> &out);

/**
 * Decode @p n integers from @p len bytes at @p data into @p out.
 * @return false when the bytes are malformed (short or overlong).
 */
bool decodeIntColumn(const std::uint8_t *data, std::size_t len,
                     std::size_t n, std::int64_t *out);

/**
 * Dictionary encoding (v2): varint dictionary size, the sorted
 * distinct values delta-varint encoded, then one bit-packed index
 * per record (ceil(log2(size)) bits, 0 bits for a constant
 * column). Only worthwhile — and only considered by the codec
 * selector — for low-cardinality columns. The decoder rejects an
 * empty or oversized dictionary, an index past its end, and an
 * index section that is not exactly ceil(n * bits / 8) bytes with
 * zero padding. @{
 */
void encodeIntColumnDict(const std::int64_t *vals, std::size_t n,
                         std::vector<std::uint8_t> &out);
bool decodeIntColumnDict(const std::uint8_t *data, std::size_t len,
                         std::size_t n, std::int64_t *out);
/** @} */

/**
 * Run-length encoding (v2): (zigzag varint value, varint run
 * length) pairs until @p n records are covered. @{
 */
void encodeIntColumnRle(const std::int64_t *vals, std::size_t n,
                        std::vector<std::uint8_t> &out);
bool decodeIntColumnRle(const std::uint8_t *data, std::size_t len,
                        std::size_t n, std::int64_t *out);
/** @} */

/**
 * v2 integer column encode: size every candidate codec exactly
 * (dictionary only for at most 256 distinct values), then append
 * [u8 codec id][smallest payload] to @p out, encoding only the
 * winner. Ties break toward the lower codec id, so the choice is
 * deterministic and files stay byte-identical across runs and flush
 * modes.
 */
void encodeIntColumnTagged(const std::int64_t *vals, std::size_t n,
                           std::vector<std::uint8_t> &out);

/**
 * Decode a v2 [codec id][payload] integer column. @return false on
 * an unknown codec id or malformed payload.
 */
bool decodeIntColumnTagged(const std::uint8_t *data,
                           std::size_t len, std::size_t n,
                           std::int64_t *out);

/**
 * Min/max of the zone-mapped columns of one block, computed from
 * columnar values (staged by the writer or decoded by salvage /
 * verify). Requires at least zoneIntColumns integer columns and
 * zoneDoubleColumns double columns, each non-empty. Doubles skip
 * NaNs; an all-NaN column yields the empty interval (+inf, -inf),
 * which no range predicate overlaps. One shared implementation so
 * the footer entry the writer seals, the entry salvage rebuilds,
 * and the entry verify recomputes can never drift apart.
 */
BlockZone computeBlockZone(
    const std::vector<std::vector<std::int64_t>> &ints,
    const std::vector<std::vector<double>> &dbls);

/**
 * Gorilla-style XOR packing of @p n doubles, appended to @p out:
 * the first value is 64 raw bits; each later value XORs against its
 * predecessor — a '0' bit for identical values, otherwise the
 * meaningful (non-zero) window of the XOR, reusing the previous
 * window's bounds when it still fits.
 */
void encodeDoubleColumn(const double *vals, std::size_t n,
                        std::vector<std::uint8_t> &out);

/**
 * Decode @p n doubles from @p len bytes at @p data into @p out
 * (bit-exact). @return false when the bitstream is malformed: it
 * runs short, reuses a window before defining one, describes a
 * window past bit 63, or breaks the bitstream end rule above
 * (@p len must be exactly the bytes the encoder wrote).
 */
bool decodeDoubleColumn(const std::uint8_t *data, std::size_t len,
                        std::size_t n, double *out);

} // namespace store

} // namespace tdfe

#endif // TDFE_STORE_CODEC_HH
