/**
 * @file
 * Feature trace store tests: bit-exact round trips across block
 * boundaries (including NaN/inf/denormal payloads), byte-identical
 * files across 1/2/4 pool threads, truncated-file and corrupted-CRC
 * rejection, a writer resumed at a checkpoint commit ending
 * byte-identical to an uninterrupted one, iteration-range queries
 * against a brute-force scan, and the codec primitives, checked against bit-at-a-time reference
 * encoders/decoders and a bitwise CRC-32 kept in this file.
 *
 * Fault battery (label fault_smoke via --gtest_filter=StoreFault.*):
 * the crash-point sweep writes through a FaultyFile that tears the
 * file at every interesting byte-offset class and proves salvage
 * recovers exactly the sealed-block prefix; the retry tests inject
 * transient EIO (heals, file byte-identical) and persistent ENOSPC
 * (sticky degrade, no abort, prefix salvageable).
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "base/serial.hh"
#include "base/thread_pool.hh"
#include "store/codec.hh"
#include "store/file.hh"
#include "store/query.hh"
#include "store/reader.hh"
#include "store/writer.hh"
#include "tests/test_util.hh"

namespace
{

using namespace tdfe;
using test::bitsEqual;
using test::expectRecordsBitwise;
using test::tempPath;

/** Deterministic record stream with awkward bit patterns mixed in. */
FeatureRecord
makeRecord(std::size_t i, std::size_t n_coeffs)
{
    FeatureRecord rec;
    rec.iteration = static_cast<long>(i);
    rec.analysis = static_cast<long>(i % 3);
    rec.stop = i % 17 == 16;
    rec.wallTime = 1e-3 * static_cast<double>(i);
    rec.wavefront = static_cast<double>(1 + i / 7);
    rec.predicted =
        10.0 * std::exp(-0.01 * static_cast<double>(i)) +
        std::sin(0.3 * static_cast<double>(i));
    rec.mse = 1.0 / (1.0 + static_cast<double>(i));
    rec.coeffs.resize(n_coeffs);
    for (std::size_t k = 0; k < n_coeffs; ++k)
        rec.coeffs[k] = 0.25 * static_cast<double>(k) -
                        1e-6 * static_cast<double>(i);
    switch (i % 41) {
      case 7:
        rec.predicted = std::numeric_limits<double>::quiet_NaN();
        break;
      case 13:
        rec.mse = std::numeric_limits<double>::infinity();
        break;
      case 19:
        rec.wavefront = -0.0;
        break;
      case 23:
        rec.predicted = std::numeric_limits<double>::denorm_min();
        break;
      default:
        break;
    }
    return rec;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
writeStore(const std::string &path, std::size_t records,
           std::size_t n_coeffs, const StoreOptions &opts)
{
    StoreSchema schema;
    schema.coeffCount = n_coeffs;
    FeatureStoreWriter w(path, schema, opts);
    for (std::size_t i = 0; i < records; ++i)
        w.append(makeRecord(i, n_coeffs));
    EXPECT_EQ(w.recordCount(), records);
    EXPECT_GT(w.finish(), 0u);
}

TEST(StoreCodec, IntColumnRoundTrip)
{
    const std::vector<std::int64_t> vals = {
        0,  1,  2,  3,  100,  99,          -5,
        -6, -6, -6, 1LL << 40, -(1LL << 40), 0};
    std::vector<std::uint8_t> bytes;
    store::encodeIntColumn(vals.data(), vals.size(), bytes);
    std::vector<std::int64_t> out(vals.size());
    ASSERT_TRUE(store::decodeIntColumn(bytes.data(), bytes.size(),
                                       vals.size(), out.data()));
    EXPECT_EQ(out, vals);
    // Consecutive integers cost ~1 byte each.
    std::vector<std::int64_t> seq(1000);
    for (std::size_t i = 0; i < seq.size(); ++i)
        seq[i] = static_cast<std::int64_t>(i);
    bytes.clear();
    store::encodeIntColumn(seq.data(), seq.size(), bytes);
    EXPECT_LE(bytes.size(), seq.size() + 8);
}

TEST(StoreCodec, DoubleColumnRoundTripBitExact)
{
    std::vector<double> vals;
    for (std::size_t i = 0; i < 300; ++i)
        vals.push_back(makeRecord(i, 0).predicted);
    vals.push_back(std::numeric_limits<double>::quiet_NaN());
    vals.push_back(-std::numeric_limits<double>::infinity());
    vals.push_back(-0.0);
    vals.push_back(0.0);
    vals.push_back(std::numeric_limits<double>::denorm_min());

    std::vector<std::uint8_t> bytes;
    store::encodeDoubleColumn(vals.data(), vals.size(), bytes);
    std::vector<double> out(vals.size());
    ASSERT_TRUE(store::decodeDoubleColumn(bytes.data(), bytes.size(),
                                          vals.size(), out.data()));
    for (std::size_t i = 0; i < vals.size(); ++i)
        EXPECT_TRUE(bitsEqual(vals[i], out[i])) << "value " << i;

    // Constant series compress to ~1 bit per value.
    std::vector<double> flat(4096, 3.25);
    bytes.clear();
    store::encodeDoubleColumn(flat.data(), flat.size(), bytes);
    EXPECT_LE(bytes.size(), 8 + flat.size() / 8 + 8);
}

TEST(StoreCodec, Crc32KnownAnswer)
{
    // IEEE 802.3 check value of "123456789".
    EXPECT_EQ(store::crc32("123456789", 9), 0xCBF43926u);
}

/**
 * Bit-at-a-time MSB-first writer and reader: the reference the
 * codec's word-at-a-time bit I/O must match byte for byte.
 */
struct RefBitWriter
{
    std::vector<std::uint8_t> bytes;
    std::size_t bits = 0;

    void
    put(unsigned b)
    {
        if (bits % 8 == 0)
            bytes.push_back(0);
        if (b & 1u)
            bytes.back() |= static_cast<std::uint8_t>(0x80u >> (bits % 8));
        ++bits;
    }

    void
    put(std::uint64_t v, unsigned n)
    {
        for (unsigned i = n; i-- > 0;)
            put(static_cast<unsigned>((v >> i) & 1u));
    }
};

struct RefBitReader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;
    bool ok = true;

    unsigned
    get()
    {
        if (pos >= size * 8) {
            ok = false;
            return 0;
        }
        const unsigned b = (data[pos / 8] >> (7 - pos % 8)) & 1u;
        ++pos;
        return b;
    }

    std::uint64_t
    get(unsigned n)
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v = (v << 1) | get();
        return v;
    }

    /** Consumed to the last byte exactly, with zero padding. */
    bool
    cleanEnd() const
    {
        if (!ok || (pos + 7) / 8 != size)
            return false;
        for (std::size_t b = pos; b < size * 8; ++b)
            if ((data[b / 8] >> (7 - b % 8)) & 1u)
                return false;
        return true;
    }
};

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Reference Gorilla encoder; also reports the bit count. */
std::vector<std::uint8_t>
refEncodeDoubles(const std::vector<double> &vals,
                 std::size_t *bit_count = nullptr)
{
    RefBitWriter bw;
    std::uint64_t prev = 0;
    unsigned winLz = 0, winLen = 0;
    bool haveWindow = false;
    for (std::size_t i = 0; i < vals.size(); ++i) {
        const std::uint64_t bits = bitsOf(vals[i]);
        if (i == 0) {
            bw.put(bits, 64);
            prev = bits;
            continue;
        }
        const std::uint64_t x = bits ^ prev;
        prev = bits;
        if (x == 0) {
            bw.put(0u);
            continue;
        }
        bw.put(1u);
        const unsigned lz = std::min(
            31u, static_cast<unsigned>(__builtin_clzll(x)));
        const unsigned tz = static_cast<unsigned>(__builtin_ctzll(x));
        if (haveWindow && lz >= winLz && tz >= 64 - winLz - winLen) {
            bw.put(0u);
            bw.put(x >> (64 - winLz - winLen), winLen);
        } else {
            const unsigned len = 64 - lz - tz;
            bw.put(1u);
            bw.put(lz, 5);
            bw.put(len - 1, 6);
            bw.put(x >> tz, len);
            winLz = lz;
            winLen = len;
            haveWindow = true;
        }
    }
    if (bit_count)
        *bit_count = bw.bits;
    return bw.bytes;
}

/** Reference Gorilla decoder with the codec's reject rules. */
bool
refDecodeDoubles(const std::uint8_t *data, std::size_t len,
                 std::size_t n, std::vector<double> &out)
{
    RefBitReader br{data, len};
    out.assign(n, 0.0);
    std::uint64_t prev = 0;
    unsigned winLz = 0, winLen = 0;
    bool haveWindow = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (i == 0) {
            prev = br.get(64);
        } else if (br.get() == 1) {
            if (br.get() == 1) {
                winLz = static_cast<unsigned>(br.get(5));
                winLen = static_cast<unsigned>(br.get(6)) + 1;
                haveWindow = true;
            } else if (!haveWindow) {
                return false;
            }
            if (winLz + winLen > 64)
                return false;
            prev ^= br.get(winLen) << (64 - winLz - winLen);
        }
        std::memcpy(&out[i], &prev, sizeof(prev));
    }
    return br.cleanEnd();
}

/** Reference dictionary encoder: library varints, reference bits. */
std::vector<std::uint8_t>
refEncodeDict(const std::vector<std::int64_t> &vals)
{
    std::vector<std::int64_t> dict(vals);
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    std::vector<std::uint8_t> out;
    store::putVarint(out, dict.size());
    for (std::size_t i = 0; i < dict.size(); ++i)
        store::putVarint(
            out, i == 0 ? store::zigzagEncode(dict[0])
                        : static_cast<std::uint64_t>(dict[i]) -
                              static_cast<std::uint64_t>(dict[i - 1]));
    unsigned bits = 0;
    while ((std::size_t{1} << bits) < dict.size())
        ++bits;
    if (bits == 0)
        return out;
    RefBitWriter bw;
    for (const std::int64_t v : vals)
        bw.put(static_cast<std::uint64_t>(
                   std::lower_bound(dict.begin(), dict.end(), v) -
                   dict.begin()),
               bits);
    out.insert(out.end(), bw.bytes.begin(), bw.bytes.end());
    return out;
}

/** Reference v2 selector: build every candidate, keep the smallest
 *  (ties to the lower codec id). */
std::vector<std::uint8_t>
refEncodeTagged(const std::vector<std::int64_t> &vals)
{
    const std::size_t n = vals.size();
    std::vector<std::uint8_t> best, cand;
    store::encodeIntColumn(vals.data(), n, best);
    std::uint8_t id = 0;
    std::vector<std::int64_t> distinct(vals);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (n > 0 && distinct.size() <= 256) {
        cand = refEncodeDict(vals);
        if (cand.size() < best.size()) {
            best.swap(cand);
            id = 1;
        }
    }
    cand.clear();
    store::encodeIntColumnRle(vals.data(), n, cand);
    if (cand.size() < best.size()) {
        best.swap(cand);
        id = 2;
    }
    best.insert(best.begin(), id);
    return best;
}

/** Bitwise (table-free) CRC-32, IEEE reflected polynomial. */
std::uint32_t
refCrc32(const std::uint8_t *p, std::size_t n)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

enum class ColumnKind
{
    Smooth,
    Constant,
    Repeated,
    RawBits
};

/** Seeded double column of one kind; RawBits mixes in NaN
 *  payloads, infinities, signed zeros and denormals. */
std::vector<double>
randomDoubles(ColumnKind kind, std::size_t n, std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<double> v(n);
    double x = 100.0 * u(rng);
    const double levels[3] = {u(rng), 1e6 * u(rng), -0.0};
    for (std::size_t i = 0; i < n; ++i) {
        switch (kind) {
          case ColumnKind::Smooth:
            x += 1e-3 * std::sin(0.05 * static_cast<double>(i)) +
                 1e-9 * u(rng);
            v[i] = x;
            break;
          case ColumnKind::Constant:
            v[i] = levels[0];
            break;
          case ColumnKind::Repeated:
            v[i] = levels[(i / 7 + rng() % 2) % 3];
            break;
          case ColumnKind::RawBits: {
            std::uint64_t b = rng();
            switch (rng() % 8) {
              case 0:
                b |= 0x7FF0000000000000ull; // NaN (or inf) payload
                break;
              case 1:
                b = (b & 0x8000000000000000ull) |
                    0x7FF0000000000000ull; // +-inf
                break;
              case 2:
                b &= 0x800FFFFFFFFFFFFFull; // denormal or +-0
                break;
              default:
                break;
            }
            std::memcpy(&v[i], &b, sizeof(b));
            break;
          }
        }
    }
    return v;
}

/** Seeded int column: iteration-like, constant, low-cardinality
 *  runs, analysis-id cycle, or full-range random. */
std::vector<std::int64_t>
randomInts(int kind, std::size_t n, std::mt19937_64 &rng)
{
    std::vector<std::int64_t> v(n);
    std::int64_t it = static_cast<std::int64_t>(rng() % 100000);
    for (std::size_t i = 0; i < n; ++i) {
        switch (kind) {
          case 0:
            it += static_cast<std::int64_t>(rng() % 3);
            v[i] = it;
            break;
          case 1:
            v[i] = -42;
            break;
          case 2:
            v[i] = static_cast<std::int64_t>((i / 50) % 2);
            break;
          case 3:
            v[i] = static_cast<std::int64_t>(i % 4);
            break;
          default:
            v[i] = static_cast<std::int64_t>(rng());
            break;
        }
    }
    return v;
}

TEST(StoreCodec, DoubleColumnMatchesBitwiseReference)
{
    std::mt19937_64 rng(20230);
    const ColumnKind kinds[] = {ColumnKind::Smooth, ColumnKind::Constant,
                                ColumnKind::Repeated,
                                ColumnKind::RawBits};
    for (const ColumnKind kind : kinds)
        for (const std::size_t n : {0, 1, 2, 37, 256})
            for (int rep = 0; rep < 4; ++rep) {
                const std::vector<double> vals =
                    randomDoubles(kind, n, rng);
                SCOPED_TRACE("kind " +
                             std::to_string(static_cast<int>(kind)) +
                             " n " + std::to_string(n));
                std::vector<std::uint8_t> bytes;
                store::encodeDoubleColumn(vals.data(), n, bytes);
                ASSERT_EQ(bytes, refEncodeDoubles(vals));

                std::vector<double> out(n), ref;
                ASSERT_TRUE(store::decodeDoubleColumn(
                    bytes.data(), bytes.size(), n, out.data()));
                ASSERT_TRUE(refDecodeDoubles(bytes.data(),
                                             bytes.size(), n, ref));
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_TRUE(bitsEqual(out[i], vals[i])) << i;
                    EXPECT_TRUE(bitsEqual(ref[i], vals[i])) << i;
                }
                for (std::size_t t = 0; t < bytes.size(); ++t)
                    EXPECT_FALSE(store::decodeDoubleColumn(
                        bytes.data(), t, n, out.data()))
                        << "truncated to " << t;
            }
}

TEST(StoreCodec, DoubleColumnRejectsTrailingBytesAndPadBits)
{
    // 3.25 then 42 repeats: 64 + 42 bits, so 14 bytes, 6 pad bits.
    std::vector<double> vals(43, 3.25);
    std::size_t bits = 0;
    const std::vector<std::uint8_t> bytes =
        refEncodeDoubles(vals, &bits);
    ASSERT_EQ(bytes.size(), 14u);
    ASSERT_EQ(bits % 8, 2u);
    std::vector<double> out(vals.size());
    ASSERT_TRUE(store::decodeDoubleColumn(bytes.data(), bytes.size(),
                                          vals.size(), out.data()));

    std::vector<std::uint8_t> longer(bytes);
    longer.push_back(0);
    longer.push_back(0);
    EXPECT_FALSE(store::decodeDoubleColumn(
        longer.data(), longer.size(), vals.size(), out.data()));
    EXPECT_FALSE(store::decodeDoubleColumn(
        longer.data(), bytes.size() + 1, vals.size(), out.data()));

    for (unsigned pad = 0; pad < 8 - bits % 8; ++pad) {
        std::vector<std::uint8_t> dirty(bytes);
        dirty.back() |= static_cast<std::uint8_t>(1u << pad);
        EXPECT_FALSE(store::decodeDoubleColumn(
            dirty.data(), dirty.size(), vals.size(), out.data()))
            << "pad bit " << pad;
    }

    // No values: only the empty column decodes.
    const std::uint8_t junk[1] = {0};
    EXPECT_TRUE(store::decodeDoubleColumn(junk, 0, 0, out.data()));
    EXPECT_FALSE(store::decodeDoubleColumn(junk, 1, 0, out.data()));
}

TEST(StoreCodec, TaggedIntColumnMatchesTrialSelector)
{
    std::mt19937_64 rng(5150);
    int chosen[3] = {0, 0, 0};
    for (int kind = 0; kind < 5; ++kind)
        for (const std::size_t n : {0, 1, 2, 37, 256})
            for (int rep = 0; rep < 4; ++rep) {
                const std::vector<std::int64_t> vals =
                    randomInts(kind, n, rng);
                SCOPED_TRACE("kind " + std::to_string(kind) + " n " +
                             std::to_string(n));
                std::vector<std::uint8_t> bytes;
                store::encodeIntColumnTagged(vals.data(), n, bytes);
                ASSERT_EQ(bytes, refEncodeTagged(vals));
                ++chosen[bytes[0]];

                std::vector<std::int64_t> out(n);
                ASSERT_TRUE(store::decodeIntColumnTagged(
                    bytes.data(), bytes.size(), n, out.data()));
                EXPECT_EQ(out, vals);
                for (std::size_t t = 0; t < bytes.size(); ++t)
                    EXPECT_FALSE(store::decodeIntColumnTagged(
                        bytes.data(), t, n, out.data()))
                        << "truncated to " << t;
            }
    // The column mix exercises every codec.
    EXPECT_GT(chosen[0], 0);
    EXPECT_GT(chosen[1], 0);
    EXPECT_GT(chosen[2], 0);
}

TEST(StoreCodec, DictIndexWidthsOneToEightRoundTrip)
{
    std::mt19937_64 rng(77);
    for (unsigned width = 1; width <= 8; ++width)
        for (const std::size_t size :
             {(std::size_t{1} << (width - 1)) + 1,
              std::size_t{1} << width}) {
            SCOPED_TRACE("width " + std::to_string(width) + " size " +
                         std::to_string(size));
            // Every dictionary entry appears; 251 records leave
            // padding at every width but 8.
            std::vector<std::int64_t> vals(251);
            for (std::size_t i = 0; i < vals.size(); ++i)
                vals[i] = 1000 * static_cast<std::int64_t>(
                                     i < size ? i : rng() % size) -
                          7;
            std::vector<std::uint8_t> bytes;
            store::encodeIntColumnDict(vals.data(), vals.size(),
                                       bytes);
            ASSERT_EQ(bytes, refEncodeDict(vals));
            std::vector<std::int64_t> out(vals.size());
            ASSERT_TRUE(store::decodeIntColumnDict(
                bytes.data(), bytes.size(), vals.size(), out.data()));
            EXPECT_EQ(out, vals);
            for (std::size_t t = 0; t < bytes.size(); ++t)
                EXPECT_FALSE(store::decodeIntColumnDict(
                    bytes.data(), t, vals.size(), out.data()));
        }
}

TEST(StoreCodec, DictIndexSectionRejectsPadBits)
{
    // Five records over a 5-entry dictionary: 3-bit indices, 15
    // bits, so the index section is 2 bytes with 1 pad bit.
    const std::vector<std::int64_t> vals = {0, 1, 2, 3, 4};
    std::vector<std::uint8_t> bytes;
    store::encodeIntColumnDict(vals.data(), vals.size(), bytes);
    std::vector<std::int64_t> out(vals.size());
    ASSERT_TRUE(store::decodeIntColumnDict(bytes.data(), bytes.size(),
                                           vals.size(), out.data()));
    EXPECT_EQ(out, vals);
    bytes.back() |= 1u;
    EXPECT_FALSE(store::decodeIntColumnDict(
        bytes.data(), bytes.size(), vals.size(), out.data()));
}

TEST(StoreCodec, Crc32MatchesBitwiseReference)
{
    std::mt19937_64 rng(99);
    std::vector<std::uint8_t> buf(67 + 8);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng());
    for (std::size_t start = 0; start < 8; ++start)
        for (std::size_t len = 0; len <= 67; ++len)
            ASSERT_EQ(store::crc32(buf.data() + start, len),
                      refCrc32(buf.data() + start, len))
                << "start " << start << " len " << len;

    // The size of a blast_stop rank-0 checkpoint payload.
    std::vector<std::uint8_t> big(846 * 1024);
    for (std::uint8_t &b : big)
        b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(store::crc32(big.data(), big.size()),
              refCrc32(big.data(), big.size()));
}

TEST(FeatureStore, RoundTripAcrossBlockBoundaries)
{
    const std::string path = tempPath("roundtrip.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 8; // 83 records -> 11 blocks, partial tail
    writeStore(path, 83, 3, opts);

    std::string error;
    const auto r = FeatureStoreReader::open(path, &error);
    ASSERT_TRUE(r) << error;
    EXPECT_EQ(r->recordCount(), 83u);
    EXPECT_EQ(r->blockCount(), 11u);
    EXPECT_EQ(r->schema().coeffCount, 3u);
    EXPECT_TRUE(r->verify(&error)) << error;
    EXPECT_TRUE(r->sortedByIteration());

    auto c = r->cursor();
    FeatureRecord rec;
    std::size_t i = 0;
    while (c.next(rec))
        expectRecordsBitwise(rec, makeRecord(i++, 3));
    EXPECT_EQ(i, 83u);
    std::remove(path.c_str());
}

TEST(FeatureStore, ResumeAtACommitIsByteIdentical)
{
    StoreOptions opts;
    opts.blockCapacity = 8; // 83 records -> 11 blocks, partial tail
    StoreSchema schema;
    schema.coeffCount = 3;
    const std::string ref_path = tempPath("resume_ref.tdfs");
    writeStore(ref_path, 83, 3, opts);
    const std::string ref = fileBytes(ref_path);

    // Commit after 45 records (five sealed blocks, five staged), go
    // on to 60 and seal, as a crashed attempt past its checkpoint
    // leaves the file.
    const std::string path = tempPath("resume.tdfs");
    std::string commit;
    {
        FeatureStoreWriter w(path, schema, opts);
        for (std::size_t i = 0; i < 45; ++i)
            w.append(makeRecord(i, 3));
        BinaryWriter cw(commit);
        w.saveCommit(cw);
        for (std::size_t i = 45; i < 60; ++i)
            w.append(makeRecord(i, 3));
        ASSERT_GT(w.finish(), 0u);
    }
    const std::string crashed = fileBytes(path);

    const auto resume = [&](const std::string &bytes,
                            const StoreSchema &want,
                            std::string *error) {
        BinaryReader r(bytes);
        return FeatureStoreWriter::resume(path, want, opts, r, error);
    };
    std::string error;

    // Refused, with the file left as it was: a commit cut short, a
    // schema that differs, a file shorter than the extent, a block
    // inside the prefix that fails its CRC.
    EXPECT_FALSE(resume(commit.substr(0, commit.size() - 3), schema,
                        &error));
    EXPECT_FALSE(error.empty());
    StoreSchema wider = schema;
    wider.coeffCount = 4;
    EXPECT_FALSE(resume(commit, wider, &error));
    EXPECT_EQ(fileBytes(path), crashed);
    {
        BinaryReader r(commit);
        const std::uint64_t extent = r.readU64();
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << crashed.substr(0, extent - 1);
        EXPECT_FALSE(resume(commit, schema, &error));
        EXPECT_NE(error.find("extent"), std::string::npos) << error;
        std::string damaged = crashed;
        damaged[store::headerBytes + 20] ^= 0x40;
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << damaged;
        EXPECT_FALSE(resume(commit, schema, &error));
        EXPECT_EQ(fileBytes(path), damaged);
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << crashed;
    }

    // Resumed at the commit, the writer ends byte-identical to one
    // that was never interrupted.
    auto w = resume(commit, schema, &error);
    ASSERT_TRUE(w) << error;
    EXPECT_EQ(w->recordCount(), 45u);
    EXPECT_EQ(w->blocksSealed(), 5u);
    for (std::size_t i = 45; i < 83; ++i)
        w->append(makeRecord(i, 3));
    ASSERT_GT(w->finish(), 0u);
    EXPECT_EQ(fileBytes(path), ref);
    std::remove(path.c_str());
    std::remove(ref_path.c_str());
}

TEST(FeatureStore, EmptyAndPartialStores)
{
    const std::string path = tempPath("tiny.tdfs");
    writeStore(path, 0, 2, StoreOptions());
    {
        std::string error;
        const auto r = FeatureStoreReader::open(path, &error);
        ASSERT_TRUE(r) << error;
        EXPECT_EQ(r->recordCount(), 0u);
        EXPECT_EQ(r->blockCount(), 0u);
        EXPECT_TRUE(r->verify());
        auto c = r->cursor();
        FeatureRecord rec;
        EXPECT_FALSE(c.next(rec));
    }
    writeStore(path, 5, 2, StoreOptions()); // single partial block
    {
        const auto r = FeatureStoreReader::open(path);
        ASSERT_TRUE(r);
        EXPECT_EQ(r->recordCount(), 5u);
        EXPECT_EQ(r->blockCount(), 1u);
        auto c = r->cursor();
        FeatureRecord rec;
        std::size_t i = 0;
        while (c.next(rec))
            expectRecordsBitwise(rec, makeRecord(i++, 2));
        EXPECT_EQ(i, 5u);
    }
    std::remove(path.c_str());
}

TEST(FeatureStore, ThreadSweepByteIdentical)
{
    const std::string ref_path = tempPath("ref.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 16;
    writeStore(ref_path, 200, 4, opts);
    const std::string ref = fileBytes(ref_path);
    ASSERT_FALSE(ref.empty());

    for (const int threads : {1, 2, 4}) {
        setGlobalThreadCount(threads);
        const std::string path = tempPath("sweep.tdfs");
        writeStore(path, 200, 4, opts);
        EXPECT_EQ(fileBytes(path), ref) << "threads=" << threads;
        std::remove(path.c_str());
    }
    setGlobalThreadCount(1);
    std::remove(ref_path.c_str());
}

TEST(FeatureStore, TruncatedFilesRejected)
{
    const std::string path = tempPath("trunc.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 16;
    writeStore(path, 100, 2, opts);
    const std::string full = fileBytes(path);

    // Cut everywhere interesting: inside the header, inside a
    // block, inside the footer, and inside the trailer.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{10}, std::size_t{23},
          full.size() / 3, full.size() / 2, full.size() - 30,
          full.size() - 5, full.size() - 1}) {
        const std::string cut_path = tempPath("cut.tdfs");
        std::ofstream out(cut_path, std::ios::binary);
        out.write(full.data(),
                  static_cast<std::streamsize>(keep));
        out.close();
        std::string error;
        EXPECT_EQ(FeatureStoreReader::open(cut_path, &error),
                  nullptr)
            << "keep=" << keep;
        EXPECT_FALSE(error.empty());
        std::remove(cut_path.c_str());
    }
    std::remove(path.c_str());
}

TEST(FeatureStore, CorruptedBlockRejected)
{
    const std::string path = tempPath("corrupt.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 32;
    writeStore(path, 100, 2, opts);

    // Flip one byte in the middle of block 1's payload.
    std::string bytes = fileBytes(path);
    std::size_t victim;
    {
        const auto r = FeatureStoreReader::open(path);
        ASSERT_TRUE(r);
        ASSERT_GE(r->blockCount(), 2u);
        victim = static_cast<std::size_t>(r->blockInfo(1).offset) +
                 static_cast<std::size_t>(r->blockInfo(1).size) / 2;
    }
    bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    // open() succeeds (footer intact), verify() pinpoints the
    // block, and decoding through a cursor dies loudly instead of
    // returning garbage.
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    std::string detail;
    EXPECT_FALSE(r->verify(&detail));
    EXPECT_NE(detail.find("block 1"), std::string::npos) << detail;
    auto scan_all = [&r] {
        auto c = r->cursor();
        FeatureRecord rec;
        while (c.next(rec)) {
        }
    };
    EXPECT_DEATH(scan_all(), "corrupt feature store");

    // Corrupting the footer itself is caught at open.
    std::string footer_broken = bytes;
    footer_broken[footer_broken.size() - 20] ^= 0x01;
    {
        std::ofstream out(path, std::ios::binary);
        out.write(footer_broken.data(),
                  static_cast<std::streamsize>(footer_broken.size()));
    }
    std::string error;
    EXPECT_EQ(FeatureStoreReader::open(path, &error), nullptr);

    // So is a footer with a valid CRC whose block 0 claims 2^64 - 8
    // bytes, wrapping its end offset to 16, with block 1 running
    // from there to block 2: the blocks still appear to tile, and
    // accepting them would hand the decoder a 2^64 - 8 byte block.
    std::string wrapped = bytes;
    auto put = [&wrapped](std::size_t at, std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i)
            wrapped[at + static_cast<std::size_t>(i)] =
                static_cast<char>(v >> (8 * i));
    };
    const std::size_t footer_off =
        static_cast<std::size_t>(r->blockInfo(3).offset +
                                 r->blockInfo(3).size);
    put(footer_off + 8 + 8, ~std::uint64_t{0} - 7, 8); // block 0 size
    put(footer_off + 8 + 40, 16, 8);                   // block 1 offset
    put(footer_off + 8 + 48, r->blockInfo(2).offset - 16, 8);
    const std::size_t crc_at = wrapped.size() - store::trailerBytes - 4;
    put(crc_at,
        store::crc32(wrapped.data() + footer_off, crc_at - footer_off),
        4);
    {
        std::ofstream out(path, std::ios::binary);
        out.write(wrapped.data(),
                  static_cast<std::streamsize>(wrapped.size()));
    }
    EXPECT_EQ(FeatureStoreReader::open(path, &error), nullptr);
    EXPECT_NE(error.find("block index entry out of range"),
              std::string::npos)
        << error;

    // And so is a footer with a valid CRC that names a column other
    // than the schema does: column names are the schema's.
    std::string renamed = bytes;
    const std::size_t name_at = renamed.find("wavefront", footer_off);
    ASSERT_NE(name_at, std::string::npos);
    renamed[name_at + 6] = 'u';
    const std::uint32_t crc = store::crc32(renamed.data() + footer_off,
                                           crc_at - footer_off);
    for (int i = 0; i < 4; ++i)
        renamed[crc_at + static_cast<std::size_t>(i)] =
            static_cast<char>(crc >> (8 * i));
    {
        std::ofstream out(path, std::ios::binary);
        out.write(renamed.data(),
                  static_cast<std::streamsize>(renamed.size()));
    }
    EXPECT_EQ(FeatureStoreReader::open(path, &error), nullptr);
    EXPECT_NE(error.find("'wavefrunt'"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(FeatureStore, RangeQueriesMatchBruteForce)
{
    const std::string path = tempPath("range.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 32;
    const std::size_t n = 1000;
    writeStore(path, n, 2, opts);
    const auto r = FeatureStoreReader::open(path);
    ASSERT_TRUE(r);
    ASSERT_TRUE(r->sortedByIteration());

    // Brute force: scan everything once.
    std::vector<FeatureRecord> all;
    {
        auto c = r->cursor();
        FeatureRecord rec;
        while (c.next(rec))
            all.push_back(rec);
    }
    ASSERT_EQ(all.size(), n);

    const std::pair<long, long> windows[] = {
        {0, 1},    {0, 1000}, {123, 457}, {500, 500},
        {31, 33},  {992, 2000}, {-10, 5},  {1500, 1600}};
    for (const auto &[lo, hi] : windows) {
        QueryCursor q(*r, EventFilter().iterRange(lo, hi));
        std::vector<FeatureRecord> got;
        FeatureRecord rec;
        while (q.next(rec))
            got.push_back(rec);
        std::vector<const FeatureRecord *> want;
        for (const FeatureRecord &rec : all)
            if (rec.iteration >= lo && rec.iteration < hi)
                want.push_back(&rec);
        ASSERT_EQ(got.size(), want.size())
            << "[" << lo << ", " << hi << ")";
        for (std::size_t i = 0; i < got.size(); ++i)
            expectRecordsBitwise(got[i], *want[i]);
    }
    std::remove(path.c_str());
}

TEST(FeatureStore, WriterGuardsMisuse)
{
    const std::string path = tempPath("guard.tdfs");
    StoreSchema schema;
    schema.coeffCount = 2;
    {
        FeatureStoreWriter w(path, schema);
        FeatureRecord bad = makeRecord(0, 3); // wrong coeff count
        EXPECT_DEATH(w.append(bad), "coefficients");
        w.append(makeRecord(0, 2));
        w.finish();
        EXPECT_DEATH(w.append(makeRecord(1, 2)), "finished");
    }
    std::remove(path.c_str());
}

/** Writer over a FaultyFile with the given plan. */
std::unique_ptr<FeatureStoreWriter>
faultyWriter(const std::string &path, std::size_t n_coeffs,
             StoreOptions opts, store::FaultPlan plan)
{
    store::IoError err;
    auto os = store::openOsFile(path, &err);
    EXPECT_TRUE(os) << err.message;
    StoreSchema schema;
    schema.coeffCount = n_coeffs;
    return std::make_unique<FeatureStoreWriter>(
        std::make_unique<store::FaultyFile>(std::move(os), plan),
        schema, opts);
}

/** Expect the salvage of @p path to hold records 0..n-1 of the
 *  makeRecord stream, bit for bit. */
void
expectSalvagePrefix(const std::string &path, std::size_t n,
                    std::size_t n_coeffs)
{
    std::string error;
    const auto r = FeatureStoreReader::salvage(path, &error);
    ASSERT_TRUE(r) << error;
    EXPECT_TRUE(r->salvaged());
    EXPECT_EQ(r->recordCount(), n);
    auto c = r->cursor();
    FeatureRecord rec;
    std::size_t i = 0;
    while (c.next(rec))
        expectRecordsBitwise(rec, makeRecord(i++, n_coeffs));
    EXPECT_EQ(i, n);
}

TEST(StoreFault, CrashPointSweepRecoversSealedPrefix)
{
    constexpr std::size_t kRecords = 200;
    constexpr std::size_t kCoeffs = 2;
    StoreOptions opts;
    opts.blockCapacity = 16;

    // Honest reference: full bytes plus the block layout that
    // defines the interesting crash offsets.
    const std::string ref_path = tempPath("crash_ref.tdfs");
    writeStore(ref_path, kRecords, kCoeffs, opts);
    const std::string ref = fileBytes(ref_path);
    std::vector<store::BlockInfo> blocks;
    {
        const auto r = FeatureStoreReader::open(ref_path);
        ASSERT_TRUE(r);
        for (std::size_t b = 0; b < r->blockCount(); ++b)
            blocks.push_back(r->blockInfo(b));
    }
    ASSERT_GE(blocks.size(), 3u);
    const store::BlockInfo &last = blocks.back();
    const std::size_t footer_off =
        static_cast<std::size_t>(last.offset + last.size);

    // One representative crash byte per offset class.
    const std::size_t crash_points[] = {
        std::size_t{10},                                // mid-header
        static_cast<std::size_t>(blocks[0].offset) +
            static_cast<std::size_t>(blocks[0].size) / 2,
        static_cast<std::size_t>(blocks[1].offset),     // boundary
        static_cast<std::size_t>(last.offset) +
            static_cast<std::size_t>(last.size) - 1,    // mid-last
        footer_off + 5,                                 // mid-footer
        ref.size() - 8,                                 // mid-trailer
    };

    for (const std::size_t at : crash_points) {
        const std::string cut_path = tempPath("crash_cut.tdfs");
        {
            store::FaultPlan plan;
            plan.kind = store::FaultPlan::Kind::Crash;
            plan.atByte = at;
            auto w = faultyWriter(cut_path, kCoeffs, opts, plan);
            for (std::size_t i = 0; i < kRecords; ++i)
                w->append(makeRecord(i, kCoeffs));
            // The lying kernel never reports the loss; the writer
            // believes it finished a complete store.
            EXPECT_TRUE(w->ok()) << "at=" << at;
            w->finish();
        }

        // The torn file is the byte-exact honest prefix.
        EXPECT_EQ(fileBytes(cut_path), ref.substr(0, at))
            << "at=" << at;

        // Salvage recovers exactly the blocks sealed wholly below
        // the crash point, bit for bit.
        std::size_t sealed = 0;
        for (const store::BlockInfo &b : blocks)
            if (b.offset + b.size <= at)
                sealed += static_cast<std::size_t>(b.records);
        if (at < store::headerBytes) {
            std::string error;
            EXPECT_EQ(FeatureStoreReader::salvage(cut_path, &error),
                      nullptr);
            EXPECT_FALSE(error.empty());
        } else {
            expectSalvagePrefix(cut_path, sealed, kCoeffs);

            // And a recovered rewrite equals the store an honest
            // writer produces for the same record prefix.
            const std::string rec_path =
                tempPath("crash_rec.tdfs");
            const auto r = FeatureStoreReader::salvage(cut_path);
            ASSERT_TRUE(r);
            StoreOptions rec_opts;
            rec_opts.blockCapacity = r->blockCapacity();
            {
                FeatureStoreWriter w(rec_path, r->schema(),
                                     rec_opts);
                FeatureRecord rec;
                auto c = r->cursor();
                while (c.next(rec))
                    w.append(rec);
                EXPECT_GT(w.finish(), 0u);
            }
            const std::string honest_path =
                tempPath("crash_honest.tdfs");
            writeStore(honest_path, sealed, kCoeffs, opts);
            EXPECT_EQ(fileBytes(rec_path), fileBytes(honest_path))
                << "at=" << at;
            std::remove(rec_path.c_str());
            std::remove(honest_path.c_str());
        }
        std::remove(cut_path.c_str());
    }
    std::remove(ref_path.c_str());
}

TEST(StoreFault, TransientEioRetriesAndHeals)
{
    constexpr std::size_t kRecords = 120;
    constexpr std::size_t kCoeffs = 3;
    StoreOptions opts;
    opts.blockCapacity = 16;
    opts.retryBackoffUs = 0; // no sleeping in tests
    const std::string ref_path = tempPath("eio_ref.tdfs");
    writeStore(ref_path, kRecords, kCoeffs, opts);
    const std::string ref = fileBytes(ref_path);
    std::size_t block2_off;
    {
        const auto r = FeatureStoreReader::open(ref_path);
        ASSERT_TRUE(r);
        ASSERT_GE(r->blockCount(), 3u);
        block2_off = static_cast<std::size_t>(r->blockInfo(2).offset);
    }

    // Two EIO failures (with a torn short write landing a prefix)
    // at block 2, then the file heals: the retry loop truncates
    // back and rewrites, and the result is byte-identical to the
    // clean run.
    const std::string path = tempPath("eio.tdfs");
    store::FaultPlan plan;
    plan.kind = store::FaultPlan::Kind::ErrorAt;
    plan.atByte = block2_off + 7;
    plan.errCode = EIO;
    plan.failCount = 2;
    plan.shortWrite = true;
    {
        auto w = faultyWriter(path, kCoeffs, opts, plan);
        for (std::size_t i = 0; i < kRecords; ++i)
            EXPECT_TRUE(w->append(makeRecord(i, kCoeffs)));
        EXPECT_TRUE(w->ok()) << w->status().message;
        EXPECT_GT(w->finish(), 0u);
        EXPECT_EQ(w->droppedRecords(), 0u);
    }
    EXPECT_EQ(fileBytes(path), ref);
    std::remove(path.c_str());
    std::remove(ref_path.c_str());
}

TEST(StoreFault, PersistentEnospcDegradesWithoutAborting)
{
    constexpr std::size_t kRecords = 100;
    constexpr std::size_t kCoeffs = 2;
    StoreOptions opts;
    opts.blockCapacity = 16;
    opts.retryBackoffUs = 0;
    const std::string ref_path = tempPath("enospc_ref.tdfs");
    writeStore(ref_path, kRecords, kCoeffs, opts);
    std::size_t block2_off;
    {
        const auto r = FeatureStoreReader::open(ref_path);
        ASSERT_TRUE(r);
        block2_off = static_cast<std::size_t>(r->blockInfo(2).offset);
    }
    std::remove(ref_path.c_str());

    const std::string path = tempPath("enospc.tdfs");
    store::FaultPlan plan;
    plan.kind = store::FaultPlan::Kind::ErrorAt;
    plan.atByte = block2_off + 3;
    plan.errCode = ENOSPC; // non-transient: no retry burn
    {
        auto w = faultyWriter(path, kCoeffs, opts, plan);
        std::size_t accepted = 0;
        for (std::size_t i = 0; i < kRecords; ++i)
            if (w->append(makeRecord(i, kCoeffs)))
                ++accepted;
        // The writer degraded instead of dying; the sticky status
        // names ENOSPC and the failing offset.
        EXPECT_FALSE(w->ok());
        EXPECT_LT(accepted, kRecords);
        const store::IoError err = w->status();
        EXPECT_EQ(err.code, ENOSPC);
        EXPECT_NE(err.message.find("offset"), std::string::npos)
            << err.message;
        EXPECT_EQ(w->finish(), 0u);
        // Every record is either salvageable or counted lost.
        EXPECT_EQ(w->droppedRecords() + 2 * 16, kRecords);
    }
    // The two sealed blocks below the failure survive exactly.
    expectSalvagePrefix(path, 2 * 16, kCoeffs);
    std::remove(path.c_str());
}

TEST(StoreFault, SalvageMatchesFooterReaderOnIntactStore)
{
    const std::string path = tempPath("salvage_eq.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 8;
    writeStore(path, 83, 3, opts);

    std::string error;
    const auto a = FeatureStoreReader::open(path, &error);
    ASSERT_TRUE(a) << error;
    const auto b = FeatureStoreReader::salvage(path, &error);
    ASSERT_TRUE(b) << error;
    EXPECT_FALSE(a->salvaged());
    EXPECT_TRUE(b->salvaged());
    EXPECT_EQ(a->recordCount(), b->recordCount());
    EXPECT_EQ(a->blockCount(), b->blockCount());
    EXPECT_EQ(a->schema(), b->schema());
    EXPECT_EQ(a->sortedByIteration(), b->sortedByIteration());
    // The scan stops exactly where the footer starts.
    EXPECT_EQ(b->droppedTailBytes(),
              a->fileBytes() -
                  static_cast<std::size_t>(
                      a->blockInfo(a->blockCount() - 1).offset +
                      a->blockInfo(a->blockCount() - 1).size));

    auto ca = a->cursor();
    auto cb = b->cursor();
    FeatureRecord ra, rb;
    while (ca.next(ra)) {
        ASSERT_TRUE(cb.next(rb));
        expectRecordsBitwise(ra, rb);
    }
    EXPECT_FALSE(cb.next(rb));
    std::remove(path.c_str());
}

TEST(StoreFault, ReadFaultsFailOpenGracefullyThenHeal)
{
    const std::string path = tempPath("readfault.tdfs");
    StoreOptions opts;
    opts.blockCapacity = 16;
    writeStore(path, 100, 2, opts);

    // Persistent EIO from byte 0: the header read fails and open()
    // reports it as a value, never a fatal.
    auto with_fault = [](std::uint64_t at) {
        return [at](const std::string &p,
                    store::IoError *err)
                   -> std::unique_ptr<store::ReadFile> {
            auto f = store::openOsReadFile(p, err);
            if (!f)
                return nullptr;
            store::ReadFaultPlan plan;
            plan.kind = store::ReadFaultPlan::Kind::ErrorAt;
            plan.atByte = at;
            plan.errCode = EIO;
            return std::make_unique<store::FaultyReadFile>(
                std::move(f), plan);
        };
    };
    std::string error;
    EXPECT_EQ(FeatureStoreReader::open(path, &error, with_fault(0)),
              nullptr);
    EXPECT_NE(error.find("header read failed"), std::string::npos)
        << error;

    // A fault inside the trailer window kills only the footer path;
    // salvage (which stops reading below it) still recovers every
    // sealed block.
    const std::size_t file_size = fileBytes(path).size();
    error.clear();
    EXPECT_EQ(FeatureStoreReader::open(path, &error,
                                       with_fault(file_size - 10)),
              nullptr);
    EXPECT_NE(error.find("read failed"), std::string::npos) << error;

    // A mid-file fault with a short read (the torn-tail race): the
    // salvage slurp fails as a value too.
    {
        auto factory = [file_size](const std::string &p,
                                   store::IoError *err)
            -> std::unique_ptr<store::ReadFile> {
            auto f = store::openOsReadFile(p, err);
            if (!f)
                return nullptr;
            store::ReadFaultPlan plan;
            plan.kind = store::ReadFaultPlan::Kind::ErrorAt;
            plan.atByte = file_size / 2;
            plan.errCode = EIO;
            plan.shortRead = true;
            return std::make_unique<store::FaultyReadFile>(
                std::move(f), plan);
        };
        error.clear();
        EXPECT_EQ(FeatureStoreReader::salvage(path, &error, factory),
                  nullptr);
        EXPECT_FALSE(error.empty());
    }

    // Transient fault budget: two opens fail, the third heals and
    // the healed reader verifies and streams every record.
    int budget = 2;
    auto healing = [&budget](const std::string &p,
                             store::IoError *err)
        -> std::unique_ptr<store::ReadFile> {
        auto f = store::openOsReadFile(p, err);
        if (!f || budget-- <= 0)
            return f;
        store::ReadFaultPlan plan;
        plan.kind = store::ReadFaultPlan::Kind::ErrorAt;
        plan.atByte = 0;
        plan.errCode = EIO;
        return std::make_unique<store::FaultyReadFile>(std::move(f),
                                                       plan);
    };
    EXPECT_EQ(FeatureStoreReader::open(path, &error, healing),
              nullptr);
    EXPECT_EQ(FeatureStoreReader::open(path, &error, healing),
              nullptr);
    const auto r = FeatureStoreReader::open(path, &error, healing);
    ASSERT_TRUE(r) << error;
    EXPECT_TRUE(r->verify(&error)) << error;
    auto c = r->cursor();
    FeatureRecord rec;
    std::size_t i = 0;
    while (c.next(rec))
        expectRecordsBitwise(rec, makeRecord(i++, 2));
    EXPECT_EQ(i, 100u);
    std::remove(path.c_str());
}

TEST(StoreFault, FaultyReadFileCountsDownAndHeals)
{
    const std::string path = tempPath("countdown.tdfs");
    writeStore(path, 10, 1, StoreOptions());
    store::IoError err;
    auto inner = store::openOsReadFile(path, &err);
    ASSERT_TRUE(inner) << err.message;
    store::ReadFaultPlan plan;
    plan.kind = store::ReadFaultPlan::Kind::ErrorAt;
    plan.atByte = 4;
    plan.errCode = EIO;
    plan.failCount = 2;
    store::FaultyReadFile f(std::move(inner), plan);

    std::uint8_t buf[8];
    // Reads below the mark never fault.
    EXPECT_TRUE(f.readAt(0, buf, 4).ok());
    EXPECT_EQ(f.remainingFaults(), 2);
    // Reads crossing it burn the budget...
    EXPECT_EQ(f.readAt(0, buf, 8).code, EIO);
    EXPECT_EQ(f.readAt(4, buf, 4).code, EIO);
    EXPECT_EQ(f.remainingFaults(), 0);
    // ...then the file heals.
    EXPECT_TRUE(f.readAt(0, buf, 8).ok());
    EXPECT_EQ(std::memcmp(buf, store::headerMagic, 8), 0);
    std::remove(path.c_str());
}

TEST(StoreFault, MissingFileErrorNamesThePathOnce)
{
    const std::string path = tempPath("missing.tdfs");
    std::remove(path.c_str());
    const auto occurrences = [&path](const std::string &text) {
        std::size_t n = 0;
        for (std::size_t at = text.find(path); at != std::string::npos;
             at = text.find(path, at + path.size()))
            ++n;
        return n;
    };
    for (const bool salvage : {false, true}) {
        std::string error;
        const auto r = salvage
                           ? FeatureStoreReader::salvage(path, &error)
                           : FeatureStoreReader::open(path, &error);
        EXPECT_EQ(r, nullptr);
        EXPECT_EQ(occurrences(error), 1u) << error;
        EXPECT_NE(error.find(std::strerror(ENOENT)), std::string::npos)
            << error;
        EXPECT_EQ(error.find("at offset"), std::string::npos) << error;
    }
}

TEST(StoreFault, UnopenablePathDegradesInsteadOfAborting)
{
    StoreSchema schema;
    schema.coeffCount = 1;
    FeatureStoreWriter w("/nonexistent-dir/sub/x.tdfs", schema);
    EXPECT_FALSE(w.ok());
    EXPECT_NE(w.status().code, 0);
    EXPECT_FALSE(w.append(makeRecord(0, 1)));
    EXPECT_EQ(w.finish(), 0u);
    EXPECT_EQ(w.droppedRecords(), 1u);
}

} // namespace
