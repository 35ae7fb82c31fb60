#include "store/reader.hh"

#include <cerrno>
#include <cstring>

#include "base/portable.hh"
#include "obs/metrics.hh"
#include "store/codec.hh"

namespace tdfe
{

namespace
{

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

double
bitsToDouble(std::uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

} // namespace

bool
FeatureStoreReader::loadAndCheckHeader(
    const std::string &path, std::string *error,
    const store::ReadFileFactory &file_factory, bool *absent)
{
    auto reject = [&](const std::string &msg) {
        return fail(error, path + ": " + msg);
    };

    store::IoError io;
    file_ = store::openReadFileVia(file_factory, path, &io);
    if (absent)
        *absent = file_ ? file_->size() < store::headerBytes
                        : io.code == ENOENT;
    // An open failure already names the path.
    if (!file_)
        return fail(error, io.ok() ? path + ": cannot open" : io.message);
    if (file_->size() < store::headerBytes)
        return reject("truncated: shorter than the header");
    std::uint8_t header[store::headerBytes];
    io = file_->readAt(0, header, store::headerBytes);
    if (!io.ok())
        return reject("header read failed: " + io.message);

    if (std::memcmp(header, store::headerMagic, 8) != 0)
        return reject("bad header magic (not a feature store)");
    store::ByteReader h(header + 8, store::headerBytes - 8);
    version_ = h.u32();
    if (version_ < store::minSupportedFormatVersion ||
        version_ > store::formatVersion)
        return reject(
            "unsupported format version " + std::to_string(version_) +
            " (this build reads " +
            std::to_string(store::minSupportedFormatVersion) + ".." +
            std::to_string(store::formatVersion) + ")");
    capacity_ = h.u32();
    const std::uint32_t n_int = h.u32();
    const std::uint32_t n_dbl = h.u32();
    // File-supplied counts bound every later loop and allocation,
    // so cap them here: a corrupt header must be rejected, not
    // obeyed.
    if (capacity_ == 0 || capacity_ > store::maxBlockCapacity ||
        n_int != StoreSchema::numIntColumns ||
        n_dbl < StoreSchema::numFixedDoubleColumns ||
        n_dbl > store::maxDoubleColumns)
        return reject("implausible header column/capacity counts");
    schema_.coeffCount = n_dbl - StoreSchema::numFixedDoubleColumns;
    return true;
}

bool
FeatureStoreReader::parseFooter(const std::uint8_t *footer,
                                std::size_t n, std::uint64_t data_end,
                                std::string *error)
{
    if (n < 4)
        return fail(error, "footer too small");
    store::ByteReader crc_r(footer + n - 4, 4);
    if (store::crc32(footer, n - 4) != crc_r.u32())
        return fail(error, "footer CRC mismatch");
    store::ByteReader r(footer, n - 4);
    const std::uint64_t n_blocks = r.u64();
    // Divide instead of multiplying: n_blocks is file-supplied and
    // a product could wrap past the check.
    if (n_blocks > n / store::indexEntryBytes)
        return fail(error, "footer block count implausible");
    index.resize(static_cast<std::size_t>(n_blocks));
    std::uint64_t record_sum = 0;
    std::uint64_t prev_end = store::headerBytes;
    for (store::BlockInfo &b : index) {
        b.offset = r.u64();
        b.size = r.u64();
        b.records = r.u64();
        b.firstIter = r.i64();
        b.lastIter = r.i64();
        // b.records also bounds decodeBlock's scratch resize, so
        // tie it to the block's actual byte size: the iteration
        // column alone costs >= 1 varint byte per record. The size
        // is compared by subtraction: offset + size could wrap.
        if (b.offset != prev_end || b.offset > data_end ||
            b.size < 8 || b.size > data_end - b.offset ||
            b.records == 0 || b.records > capacity_ ||
            b.records > b.size)
            return fail(error, "block index entry out of range");
        prev_end = b.offset + b.size;
        record_sum += b.records;
    }
    if (prev_end != data_end)
        return fail(error, "blocks do not tile the data section");
    records_ = static_cast<std::size_t>(r.u64());
    if (records_ != record_sum)
        return fail(error, "footer record count disagrees with index");
    sorted_ = r.u32() != 0;
    if (r.u32() != schema_.intColumns() ||
        r.u32() != schema_.doubleColumns())
        return fail(error, "footer schema disagrees with header");
    if (r.u64() != schema_.coeffCount)
        return fail(error, "coefficient count disagrees with columns");
    for (std::size_t i = 0; i < schema_.totalColumns(); ++i) {
        const std::uint32_t len = r.u32();
        if (!r.ok() || len > r.remaining())
            return fail(error, "column name overruns footer");
        std::string name(len, '\0');
        r.bytes(name.data(), len);
        if (name != StoreSchema::columnName(i))
            return fail(error, "footer column " + std::to_string(i) +
                                   " is '" + name + "', schema has '" +
                                   StoreSchema::columnName(i) + "'");
    }
    if (version_ >= 2) {
        zones_.resize(index.size());
        for (store::BlockZone &z : zones_) {
            for (std::size_t c = 0; c < StoreSchema::numIntColumns;
                 ++c) {
                z.intMin[c] = r.i64();
                z.intMax[c] = r.i64();
            }
            for (std::size_t c = 0;
                 c < StoreSchema::numFixedDoubleColumns; ++c) {
                z.dblMin[c] = bitsToDouble(r.u64());
                z.dblMax[c] = bitsToDouble(r.u64());
            }
        }
    }
    if (!r.ok())
        return fail(error, "footer truncated");

    // Belt and braces: the footer flag must agree with the block
    // boundaries it implies.
    for (std::size_t b = 1; b < index.size(); ++b)
        if (index[b].firstIter < index[b - 1].lastIter)
            sorted_ = false;
    return true;
}

bool
FeatureStoreReader::loadFooter(std::string *error, bool *untrailed)
{
    if (untrailed)
        *untrailed = false;
    const std::uint64_t file_size = file_->size();
    if (file_size < store::headerBytes + store::trailerBytes) {
        if (untrailed)
            *untrailed = true;
        return fail(error, "truncated: shorter than header + trailer");
    }

    // Trailer -> footer window. Everything open() needs lives in
    // [footer offset, end); one read fetches it — block data stays
    // on disk until a cursor asks.
    const std::uint64_t tr = file_size - store::trailerBytes;
    std::uint8_t trailer[store::trailerBytes];
    store::IoError io = file_->readAt(tr, trailer, store::trailerBytes);
    if (!io.ok())
        return fail(error, "trailer read failed: " + io.message);
    if (std::memcmp(trailer + 8, store::trailerMagic, 8) != 0) {
        if (untrailed)
            *untrailed = true;
        return fail(error, "bad trailer magic (truncated store?)");
    }
    store::ByteReader t(trailer, 8);
    const std::uint64_t footer_off = t.u64();
    if (footer_off < store::headerBytes || footer_off > tr)
        return fail(error, "footer offset out of range");
    std::vector<std::uint8_t> footer(
        static_cast<std::size_t>(tr - footer_off));
    io = file_->readAt(footer_off, footer.data(), footer.size());
    if (!io.ok())
        return fail(error, "footer read failed: " + io.message);
    return parseFooter(footer.data(), footer.size(), footer_off, error);
}

std::unique_ptr<FeatureStoreReader>
FeatureStoreReader::open(const std::string &path, std::string *error,
                         const store::ReadFileFactory &file_factory)
{
    auto reader =
        std::unique_ptr<FeatureStoreReader>(new FeatureStoreReader());
    if (!reader->loadAndCheckHeader(path, error, file_factory))
        return nullptr;
    std::string why;
    if (!reader->loadFooter(&why)) {
        fail(error, path + ": " + why);
        return nullptr;
    }
    return reader;
}

std::unique_ptr<FeatureStoreReader>
FeatureStoreReader::salvage(const std::string &path,
                            std::string *error,
                            const store::ReadFileFactory &file_factory)
{
    auto reader =
        std::unique_ptr<FeatureStoreReader>(new FeatureStoreReader());
    if (!reader->loadAndCheckHeader(path, error, file_factory))
        return nullptr;
    reader->salvaged_ = true;
    const std::uint64_t file_size = reader->fileBytes();
    std::uint64_t stop = 0;
    std::string why;
    if (!reader->scanBlocks(store::headerBytes, file_size, stop, &why)) {
        fail(error, path + ": " + why);
        return nullptr;
    }
    reader->droppedTail_ = static_cast<std::size_t>(file_size - stop);
    return reader;
}

void
FeatureStoreReader::startScan(const FeatureStoreReader &prefix)
{
    index = prefix.index;
    zones_ = prefix.zones_;
    records_ = prefix.records_;
    sorted_ = prefix.sorted_;
}

bool
FeatureStoreReader::scanBlocks(std::uint64_t from, std::uint64_t end,
                               std::uint64_t &stop, std::string *error)
{
    stop = from;
    if (end <= from)
        return true;
    // Block extents are unknown until parsed, so the range is read
    // once and walked in memory.
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(end - from));
    const store::IoError io = file_->readAt(from, bytes.data(), bytes.size());
    if (!io.ok())
        return fail(error, "block scan read failed: " + io.message);

    // Keep accepting blocks while the bytes at the cursor parse,
    // CRC-check, AND fully decode as one; everything accepted is
    // trusted exactly as much as a footer-backed block (same CRC,
    // same decoders).
    const std::size_t n_cols = schema_.totalColumns();
    std::vector<std::vector<std::int64_t>> ints;
    std::vector<std::vector<double>> dbls;
    std::size_t off = 0; // relative to bytes
    for (;;) {
        store::ByteReader r(bytes.data() + off, bytes.size() - off);
        const std::uint32_t count = r.u32();
        if (!r.ok() || count == 0 || count > capacity_)
            break;
        bool shaped = true;
        for (std::size_t c = 0; c < n_cols && shaped; ++c) {
            const std::uint32_t len = r.u32();
            if (!r.ok() || len > r.remaining())
                shaped = false;
            else
                r.skip(len);
        }
        if (!shaped || r.remaining() < 4)
            break;
        const std::size_t size = (r.cursor() - (bytes.data() + off)) + 4;

        store::BlockInfo info;
        info.offset = from + off;
        info.size = size;
        info.records = count;
        index.push_back(info);
        if (!decodeBlockBytes(index.size() - 1, bytes.data() + off, ints,
                              dbls, nullptr)) {
            index.pop_back();
            break;
        }
        store::BlockInfo &accepted = index.back();
        accepted.firstIter = ints[0].front();
        accepted.lastIter = ints[0].back();
        zones_.push_back(store::computeBlockZone(ints, dbls));
        std::int64_t last =
            index.size() > 1 ? index[index.size() - 2].lastIter
                             : accepted.firstIter;
        for (const std::int64_t it : ints[0]) {
            if (it < last)
                sorted_ = false;
            last = it;
        }
        records_ += count;
        off += size;
    }
    stop = from + off;
    return true;
}

std::unique_ptr<FeatureStoreReader>
FeatureStoreReader::openOrSalvage(
    const std::string &path, std::string *error, bool *was_salvaged,
    const store::ReadFileFactory &file_factory)
{
    std::string open_error;
    auto reader = open(path, &open_error, file_factory);
    if (reader && reader->verify(&open_error)) {
        if (was_salvaged)
            *was_salvaged = false;
        return reader;
    }
    // Footer missing/corrupt, or a footer-indexed block does not
    // decode: fall back to the prefix scan so whatever does decode
    // is still usable (and a cursor cannot hit the fatal path).
    auto recovered = salvage(path, error, file_factory);
    if (!recovered && error && !open_error.empty())
        *error = open_error + "; " + *error;
    if (recovered && was_salvaged)
        *was_salvaged = true;
    return recovered;
}

bool
FeatureStoreReader::decodeBlock(
    std::size_t b, std::vector<std::uint8_t> &raw,
    std::vector<std::vector<std::int64_t>> &ints,
    std::vector<std::vector<double>> &dbls,
    std::string *detail) const
{
    const store::BlockInfo &info = index[b];
    raw.resize(static_cast<std::size_t>(info.size));
    const store::IoError io =
        file_->readAt(info.offset, raw.data(), raw.size());
    if (!io.ok())
        return fail(detail, "block " + std::to_string(b) +
                                ": read failed: " + io.message);
    static obs::Counter reads("store.reader.blocks_read_total");
    reads.add();
    return decodeBlockBytes(b, raw.data(), ints, dbls, detail);
}

bool
FeatureStoreReader::decodeBlockBytes(
    std::size_t b, const std::uint8_t *raw,
    std::vector<std::vector<std::int64_t>> &ints,
    std::vector<std::vector<double>> &dbls,
    std::string *detail) const
{
    const store::BlockInfo &info = index[b];
    const std::size_t size = static_cast<std::size_t>(info.size);
    const std::string where = "block " + std::to_string(b);

    store::ByteReader crc_r(raw + size - 4, 4);
    if (store::crc32(raw, size - 4) != crc_r.u32())
        return fail(detail, where + ": CRC mismatch");

    store::ByteReader r(raw, size - 4);
    const std::uint32_t n = r.u32();
    if (n != info.records)
        return fail(detail,
                    where + ": record count disagrees with index");

    ints.resize(schema_.intColumns());
    dbls.resize(schema_.doubleColumns());
    for (std::size_t c = 0; c < schema_.intColumns(); ++c) {
        const std::uint32_t len = r.u32();
        if (len > r.remaining())
            return fail(detail, where + ": column overruns block");
        ints[c].resize(n);
        const bool good =
            version_ >= 2
                ? store::decodeIntColumnTagged(r.cursor(), len, n,
                                               ints[c].data())
                : store::decodeIntColumn(r.cursor(), len, n,
                                         ints[c].data());
        if (!good)
            return fail(detail, where + ": bad integer column " +
                                    std::to_string(c));
        r.skip(len);
    }
    for (std::size_t c = 0; c < schema_.doubleColumns(); ++c) {
        const std::uint32_t len = r.u32();
        if (len > r.remaining())
            return fail(detail, where + ": column overruns block");
        dbls[c].resize(n);
        if (!store::decodeDoubleColumn(r.cursor(), len, n,
                                       dbls[c].data()))
            return fail(detail, where + ": bad double column " +
                                    std::to_string(c));
        r.skip(len);
    }
    if (!r.ok() || r.remaining() != 0)
        return fail(detail, where + ": trailing bytes after columns");
    blocksDecoded_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter decodes("store.reader.blocks_decoded_total");
    decodes.add();
    return true;
}

bool
FeatureStoreReader::blockIterBounds(std::size_t b, std::int64_t &lo,
                                    std::int64_t &hi) const
{
    if (const store::BlockZone *z = zone(b)) {
        lo = z->intMin[0];
        hi = z->intMax[0];
        return true;
    }
    if (sorted_) {
        lo = index[b].firstIter;
        hi = index[b].lastIter;
        return true;
    }
    return false;
}

bool
FeatureStoreReader::verify(std::string *detail) const
{
    std::vector<std::uint8_t> raw;
    std::vector<std::vector<std::int64_t>> ints;
    std::vector<std::vector<double>> dbls;
    for (std::size_t b = 0; b < index.size(); ++b) {
        if (!decodeBlock(b, raw, ints, dbls, detail))
            return false;
        if (ints[0].front() != index[b].firstIter ||
            ints[0].back() != index[b].lastIter)
            return fail(detail,
                        "block " + std::to_string(b) +
                            ": iteration bounds disagree with index");
        if (const store::BlockZone *z = zone(b)) {
            // The zone map is derived data; recompute and compare
            // so a corrupt or stale entry cannot silently drop
            // blocks from filtered queries. Plain == suffices for
            // the doubles: entries never hold NaN (the empty
            // interval is (+inf, -inf)), and the writer computes
            // them with the same helper from the same values.
            const store::BlockZone want =
                store::computeBlockZone(ints, dbls);
            bool same = true;
            for (std::size_t c = 0; c < StoreSchema::numIntColumns; ++c)
                same = same && z->intMin[c] == want.intMin[c] &&
                       z->intMax[c] == want.intMax[c];
            for (std::size_t c = 0;
                 c < StoreSchema::numFixedDoubleColumns; ++c)
                same = same && z->dblMin[c] == want.dblMin[c] &&
                       z->dblMax[c] == want.dblMax[c];
            if (!same)
                return fail(detail,
                            "block " + std::to_string(b) +
                                ": zone map disagrees with data");
        }
    }
    return true;
}

} // namespace tdfe
