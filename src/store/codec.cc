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

/** Lazily-built CRC-32 lookup table (reflected polynomial). */
const std::uint32_t *
crcTable()
{
    static std::uint32_t table[256];
    static const bool built = [] {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        return true;
    }();
    (void)built;
    return table;
}

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

/** MSB-first bit appender over a byte vector. */
class BitWriter
{
  public:
    explicit BitWriter(std::vector<std::uint8_t> &out) : out(out) {}

    void
    writeBit(unsigned b)
    {
        cur = static_cast<std::uint8_t>((cur << 1) | (b & 1u));
        if (++used == 8) {
            out.push_back(cur);
            cur = 0;
            used = 0;
        }
    }

    /** Append the lowest @p n bits of @p v, most significant first. */
    void
    writeBits(std::uint64_t v, unsigned n)
    {
        for (unsigned i = n; i-- > 0;)
            writeBit(static_cast<unsigned>((v >> i) & 1u));
    }

    /** Flush the trailing partial byte (zero-padded). */
    void
    finish()
    {
        if (used > 0) {
            out.push_back(
                static_cast<std::uint8_t>(cur << (8 - used)));
            cur = 0;
            used = 0;
        }
    }

  private:
    std::vector<std::uint8_t> &out;
    std::uint8_t cur = 0;
    int used = 0;
};

/** MSB-first bit reader; latches !ok() past the end. */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::size_t size)
        : p(data), end(data + size)
    {
    }

    unsigned
    readBit()
    {
        if (used == 0) {
            if (p == end) {
                ok_ = false;
                return 0;
            }
            cur = *p++;
            used = 8;
        }
        --used;
        return static_cast<unsigned>((cur >> used) & 1u);
    }

    std::uint64_t
    readBits(unsigned n)
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v = (v << 1) | readBit();
        return v;
    }

    bool ok() const { return ok_; }

  private:
    const std::uint8_t *p;
    const std::uint8_t *end;
    std::uint8_t cur = 0;
    int used = 0;
    bool ok_ = true;
};

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const std::uint32_t *table = crcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
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
    // Dictionary-build pass: sorted distinct values, then each
    // record as a fixed-width index into them.
    std::vector<std::int64_t> dict(vals, vals + n);
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());

    putVarint(out, dict.size());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < dict.size(); ++i) {
        // First entry zigzags against 0; later ones store the
        // (positive, sorted) gap to the previous entry, taken in
        // unsigned — a signed gap overflows across the full range.
        const auto v = static_cast<std::uint64_t>(dict[i]);
        putVarint(out, i == 0 ? zigzagEncode(dict[0]) : v - prev);
        prev = v;
    }

    unsigned bits = 0;
    while ((std::size_t{1} << bits) < dict.size())
        ++bits;
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
    unsigned bits = 0;
    while ((std::uint64_t{1} << bits) < dict_n)
        ++bits;
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
    return br.ok();
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
    // Trial-encode every candidate and keep the smallest payload.
    // The extra encodes cost microseconds per sealed block; the
    // store is orders of magnitude smaller than the trace it
    // replaces, so the write path can afford to shop around.
    std::vector<std::uint8_t> delta;
    encodeIntColumn(vals, n, delta);

    IntCodec best = IntCodec::DeltaVarint;
    const std::vector<std::uint8_t> *best_bytes = &delta;

    // Dictionary only pays off (and only stays cheap to build) on
    // genuinely low-cardinality columns; a quick bounded distinct
    // count guards the sort in encodeIntColumnDict.
    std::vector<std::uint8_t> dict;
    constexpr std::size_t maxDictValues = 256;
    if (n > 0) {
        std::vector<std::int64_t> probe(vals, vals + n);
        std::sort(probe.begin(), probe.end());
        const std::size_t distinct = static_cast<std::size_t>(
            std::unique(probe.begin(), probe.end()) -
            probe.begin());
        if (distinct <= maxDictValues) {
            encodeIntColumnDict(vals, n, dict);
            if (dict.size() < best_bytes->size()) {
                best = IntCodec::Dict;
                best_bytes = &dict;
            }
        }
    }

    std::vector<std::uint8_t> rle;
    encodeIntColumnRle(vals, n, rle);
    if (rle.size() < best_bytes->size()) {
        best = IntCodec::Rle;
        best_bytes = &rle;
    }

    out.push_back(static_cast<std::uint8_t>(best));
    out.insert(out.end(), best_bytes->begin(), best_bytes->end());
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
    for (std::size_t c = 0; c < zoneIntColumns; ++c) {
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
    for (std::size_t c = 0; c < zoneDoubleColumns; ++c) {
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
    // Trailing padding must fit in the flushed partial byte.
    return br.ok();
}

} // namespace store

} // namespace tdfe
