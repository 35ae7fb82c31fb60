#include "store/codec.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "base/portable.hh"

namespace tdfe
{

namespace store
{

namespace
{

/** Slicing-by-8 tables for the reflected IEEE polynomial:
 *  t[0] is the bytewise table, and t[k][b] is the CRC of byte b
 *  followed by k zero bytes, so one 8-byte step is eight lookups.
 *  Built at compile time. */
struct CrcTables
{
    std::uint32_t t[8][256];
};

constexpr CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        tables.t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t c = tables.t[k - 1][i];
            tables.t[k][i] = (c >> 8) ^ tables.t[0][c & 0xFFu];
        }
    return tables;
}

constexpr CrcTables crcTables = makeCrcTables();

inline std::uint64_t
doubleBits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

inline double
bitsDouble(std::uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

/**
 * MSB-first bit appender over a byte vector. Bits collect in a
 * 64-bit accumulator (the low `used` bits are pending; anything
 * above them is stale and shifts out before it is emitted) and
 * leave as whole 8-byte big-endian words.
 */
class BitWriter
{
  public:
    explicit BitWriter(std::vector<std::uint8_t> &out) : out(out) {}

    void writeBit(unsigned b) { writeBits(b, 1); }

    /** Append the lowest @p n bits of @p v (n in [0, 64]), most
     *  significant first. */
    void
    writeBits(std::uint64_t v, unsigned n)
    {
        if (n < 64)
            v &= (std::uint64_t{1} << n) - 1;
        const unsigned room = 64 - used; // in [1, 64]
        if (n < room) {
            acc = (acc << n) | v;
            used += n;
            return;
        }
        // Fill the word with v's top `room` bits, emit it, and keep
        // the other n - room bits pending.
        const unsigned rest = n - room; // in [0, 63]
        const std::uint64_t word =
            (room == 64 ? 0 : acc << room) | (v >> rest);
        emit(word, 8);
        acc = v;
        used = rest;
    }

    /** Flush the pending bits, the last byte zero-padded. */
    void
    finish()
    {
        if (used > 0)
            emit(acc << (64 - used), (used + 7) / 8);
        acc = 0;
        used = 0;
    }

  private:
    /** Append the top @p bytes bytes of @p word, high byte first. */
    void
    emit(std::uint64_t word, unsigned bytes)
    {
        std::uint8_t buf[8];
        for (unsigned i = 0; i < 8; ++i)
            buf[i] = static_cast<std::uint8_t>(word >> (56 - 8 * i));
        out.insert(out.end(), buf, buf + bytes);
    }

    std::vector<std::uint8_t> &out;
    std::uint64_t acc = 0;
    unsigned used = 0; // in [0, 63]
};

/**
 * MSB-first bit reader over a byte range. A read of n bits is one
 * bounds check and one 8-byte big-endian load (bytewise within the
 * last 8 bytes), plus one more byte when the n bits straddle the
 * word. A read past the end returns 0, consumes the rest, and
 * latches !ok().
 */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::size_t size)
        : p(data), size(size), nbits(std::uint64_t{size} * 8)
    {
    }

    unsigned readBit() { return static_cast<unsigned>(readBits(1)); }

    /** Read @p n bits (n in [0, 64]), the first read most
     *  significant. */
    std::uint64_t
    readBits(unsigned n)
    {
        if (nbits - pos < n) {
            ok_ = false;
            pos = nbits;
            return 0;
        }
        if (n == 0)
            return 0;
        const std::size_t byte = static_cast<std::size_t>(pos >> 3);
        const unsigned skip = static_cast<unsigned>(pos & 7);
        std::uint64_t v = loadWord(byte) << skip;
        // The check above guarantees byte + 8 exists when n bits run
        // past the loaded word (skip > 0 there, so no shift by 8).
        if (skip + n > 64)
            v |= p[byte + 8] >> (8 - skip);
        pos += n;
        return v >> (64 - n);
    }

    /**
     * @return true when every read stayed in range, the reads ended
     * in the last byte (no whole trailing byte), and the bits after
     * them in that byte are zero — exactly what BitWriter::finish
     * leaves.
     */
    bool
    atCleanEnd() const
    {
        if (!ok_ || (pos + 7) / 8 != size)
            return false;
        const unsigned tail = static_cast<unsigned>(pos & 7);
        return tail == 0 || (p[size - 1] & (0xFFu >> tail)) == 0;
    }

    bool ok() const { return ok_; }

  private:
    /** Big-endian 8 bytes from @p byte, zeros past the end. */
    std::uint64_t
    loadWord(std::size_t byte) const
    {
        std::uint64_t w = 0;
        if (size - byte >= 8) {
            std::memcpy(&w, p + byte, 8);
            return __builtin_bswap64(w);
        }
        for (std::size_t i = 0; byte + i < size; ++i)
            w |= std::uint64_t{p[byte + i]} << (56 - 8 * i);
        return w;
    }

    const std::uint8_t *p;
    std::size_t size;
    std::uint64_t nbits;
    std::uint64_t pos = 0;
    bool ok_ = true;
};

/** LEB128 length of @p v in bytes, as putVarint writes it. */
inline std::size_t
varintBytes(std::uint64_t v)
{
    return 1 + static_cast<std::size_t>(63 - __builtin_clzll(v | 1)) / 7;
}

/** Index width for a dictionary of @p size entries. */
inline unsigned
dictIndexBits(std::uint64_t size)
{
    unsigned bits = 0;
    while ((std::uint64_t{1} << bits) < size)
        ++bits;
    return bits;
}

/**
 * Visit the dictionary's stored varints in order: the first entry
 * zigzags against 0, later ones store the (positive, sorted) gap
 * to the previous entry, taken in unsigned — a signed gap overflows
 * across the full range.
 */
template <typename F>
void
forEachDictVarint(const std::vector<std::int64_t> &dict, F &&f)
{
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < dict.size(); ++i) {
        const auto v = static_cast<std::uint64_t>(dict[i]);
        f(i == 0 ? zigzagEncode(dict[0]) : v - prev);
        prev = v;
    }
}

/** Dict payload of @p vals against its sorted distinct @p dict. */
void
encodeDictWith(const std::int64_t *vals, std::size_t n,
               const std::vector<std::int64_t> &dict,
               std::vector<std::uint8_t> &out)
{
    putVarint(out, dict.size());
    forEachDictVarint(dict, [&](std::uint64_t v) { putVarint(out, v); });
    const unsigned bits = dictIndexBits(dict.size());
    if (bits == 0)
        return; // constant column: the dictionary alone decodes it
    BitWriter bw(out);
    for (std::size_t i = 0; i < n; ++i) {
        const auto it =
            std::lower_bound(dict.begin(), dict.end(), vals[i]);
        bw.writeBits(
            static_cast<std::uint64_t>(it - dict.begin()), bits);
    }
    bw.finish();
}

/** Exact byte count encodeDictWith would append. */
std::size_t
dictBytes(std::size_t n, const std::vector<std::int64_t> &dict)
{
    std::size_t bytes = varintBytes(dict.size());
    forEachDictVarint(dict,
                      [&](std::uint64_t v) { bytes += varintBytes(v); });
    return bytes + (n * dictIndexBits(dict.size()) + 7) / 8;
}

/** Replace @p dict by the sorted distinct values of @p vals. */
void
sortedDistinct(const std::int64_t *vals, std::size_t n,
               std::vector<std::int64_t> &dict)
{
    dict.assign(vals, vals + n);
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto &t = crcTables.t;
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
        // Little-endian host (base/portable.hh): lo's low byte is
        // p[0], the byte the reflected CRC consumes first.
        std::uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= c;
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putI64(std::vector<std::uint8_t> &out, std::int64_t v)
{
    putU64(out, static_cast<std::uint64_t>(v));
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80u) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t
ByteReader::u32()
{
    std::uint32_t v = 0;
    if (remaining() < 4) {
        ok_ = false;
        p = end;
        return 0;
    }
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    return v;
}

std::uint64_t
ByteReader::u64()
{
    std::uint64_t v = 0;
    if (remaining() < 8) {
        ok_ = false;
        p = end;
        return 0;
    }
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    return v;
}

std::int64_t
ByteReader::i64()
{
    return static_cast<std::int64_t>(u64());
}

std::uint64_t
ByteReader::varint()
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (p == end) {
            ok_ = false;
            return 0;
        }
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
        if ((b & 0x80u) == 0)
            return v;
    }
    ok_ = false; // overlong encoding
    return 0;
}

void
ByteReader::bytes(void *dst, std::size_t n)
{
    if (remaining() < n) {
        ok_ = false;
        p = end;
        std::memset(dst, 0, n);
        return;
    }
    std::memcpy(dst, p, n);
    p += n;
}

void
ByteReader::skip(std::size_t n)
{
    if (remaining() < n) {
        ok_ = false;
        p = end;
        return;
    }
    p += n;
}

void
encodeIntColumn(const std::int64_t *vals, std::size_t n,
                std::vector<std::uint8_t> &out)
{
    // Difference in unsigned, as the decoder accumulates: a signed
    // vals[i] - prev overflows (UB) on e.g. INT64_MIN -> INT64_MAX,
    // and the wrapped two's-complement bytes are the same.
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // First value deltas against 0, so one code path covers all.
        const auto v = static_cast<std::uint64_t>(vals[i]);
        putVarint(out, zigzagEncode(static_cast<std::int64_t>(v - prev)));
        prev = v;
    }
}

bool
decodeIntColumn(const std::uint8_t *data, std::size_t len,
                std::size_t n, std::int64_t *out)
{
    ByteReader r(data, len);
    // Accumulate in unsigned so crafted deltas wrap (defined)
    // instead of overflowing signed arithmetic (UB) — this path
    // must survive hostile input gracefully.
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        prev += static_cast<std::uint64_t>(
            zigzagDecode(r.varint()));
        out[i] = static_cast<std::int64_t>(prev);
    }
    return r.ok() && r.remaining() == 0;
}

void
encodeIntColumnDict(const std::int64_t *vals, std::size_t n,
                    std::vector<std::uint8_t> &out)
{
    std::vector<std::int64_t> dict;
    sortedDistinct(vals, n, dict);
    encodeDictWith(vals, n, dict, out);
}

bool
decodeIntColumnDict(const std::uint8_t *data, std::size_t len,
                    std::size_t n, std::int64_t *out)
{
    ByteReader r(data, len);
    const std::uint64_t dict_n = r.varint();
    if (!r.ok() || dict_n == 0 || dict_n > n)
        return false;
    std::vector<std::int64_t> dict(
        static_cast<std::size_t>(dict_n));
    // Unsigned accumulation: crafted gaps wrap instead of UB.
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < dict.size(); ++i) {
        prev = i == 0 ? static_cast<std::uint64_t>(
                            zigzagDecode(r.varint()))
                      : prev + r.varint();
        dict[i] = static_cast<std::int64_t>(prev);
    }
    if (!r.ok())
        return false;
    const unsigned bits = dictIndexBits(dict_n);
    if (bits == 0) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = dict[0];
        return r.remaining() == 0;
    }
    if (r.remaining() != (n * bits + 7) / 8)
        return false; // short or trailing-garbage index section
    BitReader br(r.cursor(), r.remaining());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t idx = br.readBits(bits);
        if (!br.ok() || idx >= dict_n)
            return false;
        out[i] = dict[static_cast<std::size_t>(idx)];
    }
    return br.atCleanEnd();
}

void
encodeIntColumnRle(const std::int64_t *vals, std::size_t n,
                   std::vector<std::uint8_t> &out)
{
    for (std::size_t i = 0; i < n;) {
        std::size_t run = 1;
        while (i + run < n && vals[i + run] == vals[i])
            ++run;
        putVarint(out, zigzagEncode(vals[i]));
        putVarint(out, run);
        i += run;
    }
}

bool
decodeIntColumnRle(const std::uint8_t *data, std::size_t len,
                   std::size_t n, std::int64_t *out)
{
    ByteReader r(data, len);
    std::size_t filled = 0;
    while (filled < n) {
        const std::int64_t v = zigzagDecode(r.varint());
        const std::uint64_t run = r.varint();
        if (!r.ok() || run == 0 || run > n - filled)
            return false;
        for (std::uint64_t k = 0; k < run; ++k)
            out[filled++] = v;
    }
    return r.ok() && r.remaining() == 0;
}

void
encodeIntColumnTagged(const std::int64_t *vals, std::size_t n,
                      std::vector<std::uint8_t> &out)
{
    // Size every candidate exactly, then encode only the smallest.
    // One pass prices delta-varint and RLE; ties break toward the
    // lower codec id, so the choice is deterministic and files stay
    // byte-identical across runs and flush modes.
    std::size_t delta_bytes = 0, rle_bytes = 0, run_start = 0;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto v = static_cast<std::uint64_t>(vals[i]);
        delta_bytes += varintBytes(
            zigzagEncode(static_cast<std::int64_t>(v - prev)));
        prev = v;
        if (i + 1 == n || vals[i + 1] != vals[i]) { // a run ends here
            rle_bytes += varintBytes(zigzagEncode(vals[i])) +
                         varintBytes(i + 1 - run_start);
            run_start = i + 1;
        }
    }

    IntCodec best = IntCodec::DeltaVarint;
    std::size_t best_bytes = delta_bytes;

    // Dictionary only pays off (and only stays cheap to index) on
    // genuinely low-cardinality columns.
    constexpr std::size_t maxDictValues = 256;
    // Reused across calls, so sealing a block stays off the heap.
    thread_local std::vector<std::int64_t> dict;
    if (n > 0) {
        sortedDistinct(vals, n, dict);
        if (dict.size() <= maxDictValues) {
            const std::size_t bytes = dictBytes(n, dict);
            if (bytes < best_bytes) {
                best = IntCodec::Dict;
                best_bytes = bytes;
            }
        }
    }
    if (rle_bytes < best_bytes)
        best = IntCodec::Rle;

    out.push_back(static_cast<std::uint8_t>(best));
    switch (best) {
      case IntCodec::DeltaVarint:
        encodeIntColumn(vals, n, out);
        break;
      case IntCodec::Dict:
        encodeDictWith(vals, n, dict, out);
        break;
      case IntCodec::Rle:
        encodeIntColumnRle(vals, n, out);
        break;
    }
}

bool
decodeIntColumnTagged(const std::uint8_t *data, std::size_t len,
                      std::size_t n, std::int64_t *out)
{
    if (len < 1)
        return false;
    const std::uint8_t codec = data[0];
    ++data;
    --len;
    switch (static_cast<IntCodec>(codec)) {
      case IntCodec::DeltaVarint:
        return decodeIntColumn(data, len, n, out);
      case IntCodec::Dict:
        return decodeIntColumnDict(data, len, n, out);
      case IntCodec::Rle:
        return decodeIntColumnRle(data, len, n, out);
    }
    return false;
}

BlockZone
computeBlockZone(const std::vector<std::vector<std::int64_t>> &ints,
                 const std::vector<std::vector<double>> &dbls)
{
    BlockZone z;
    for (std::size_t c = 0; c < StoreSchema::numIntColumns; ++c) {
        const std::vector<std::int64_t> &col = ints[c];
        z.intMin[c] = col[0];
        z.intMax[c] = col[0];
        for (const std::int64_t v : col) {
            if (v < z.intMin[c])
                z.intMin[c] = v;
            if (v > z.intMax[c])
                z.intMax[c] = v;
        }
    }
    for (std::size_t c = 0; c < StoreSchema::numFixedDoubleColumns;
         ++c) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (const double v : dbls[c]) {
            if (std::isnan(v))
                continue;
            if (v < lo)
                lo = v;
            if (v > hi)
                hi = v;
        }
        z.dblMin[c] = lo;
        z.dblMax[c] = hi;
    }
    return z;
}

void
encodeDoubleColumn(const double *vals, std::size_t n,
                   std::vector<std::uint8_t> &out)
{
    BitWriter bw(out);
    std::uint64_t prev = 0;
    unsigned winLz = 0, winLen = 0;
    bool haveWindow = false;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t bits = doubleBits(vals[i]);
        if (i == 0) {
            bw.writeBits(bits, 64);
            prev = bits;
            continue;
        }
        const std::uint64_t x = bits ^ prev;
        prev = bits;
        if (x == 0) {
            bw.writeBit(0);
            continue;
        }
        bw.writeBit(1);
        unsigned lz =
            static_cast<unsigned>(__builtin_clzll(x));
        const unsigned tz =
            static_cast<unsigned>(__builtin_ctzll(x));
        if (lz > 31)
            lz = 31; // 5-bit field; a longer prefix is just stored
        const unsigned winTz = 64 - winLz - winLen;
        if (haveWindow && lz >= winLz && tz >= winTz) {
            // The previous window still covers every meaningful bit.
            bw.writeBit(0);
            bw.writeBits(x >> winTz, winLen);
        } else {
            const unsigned len = 64 - lz - tz;
            bw.writeBit(1);
            bw.writeBits(lz, 5);
            bw.writeBits(len - 1, 6); // len in [1, 64]
            bw.writeBits(x >> tz, len);
            winLz = lz;
            winLen = len;
            haveWindow = true;
        }
    }
    bw.finish();
}

bool
decodeDoubleColumn(const std::uint8_t *data, std::size_t len,
                   std::size_t n, double *out)
{
    BitReader br(data, len);
    std::uint64_t prev = 0;
    unsigned winLz = 0, winLen = 0;
    bool haveWindow = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (i == 0) {
            prev = br.readBits(64);
            out[0] = bitsDouble(prev);
            continue;
        }
        if (br.readBit() == 0) {
            out[i] = bitsDouble(prev);
            continue;
        }
        if (br.readBit() != 0) {
            winLz = static_cast<unsigned>(br.readBits(5));
            winLen = static_cast<unsigned>(br.readBits(6)) + 1;
            haveWindow = true;
        } else if (!haveWindow) {
            return false; // window reuse before any window defined
        }
        if (winLz + winLen > 64)
            return false;
        const std::uint64_t meaningful = br.readBits(winLen);
        prev ^= meaningful << (64 - winLz - winLen);
        out[i] = bitsDouble(prev);
    }
    // The column ends in the byte holding its last bit, and the
    // padding after that bit is zero.
    return br.atCleanEnd();
}

} // namespace store

} // namespace tdfe
