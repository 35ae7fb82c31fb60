#include "store/writer.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "base/logging.hh"
#include "base/portable.hh"
#include "base/timer.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/codec.hh"

namespace tdfe
{

namespace
{

/** Retries per block for transient I/O failures before the writer
 *  degrades. */
constexpr int maxWriteRetries = 3;

} // namespace

FeatureStoreWriter::FeatureStoreWriter(const std::string &path,
                                       StoreSchema schema,
                                       StoreOptions options)
    : path_(path), schema_(schema), opts_(options)
{
    store::IoError open_error;
    file_ = store::openOsFile(path, &open_error);
    init(open_error);
}

FeatureStoreWriter::FeatureStoreWriter(
    std::unique_ptr<store::StoreFile> file, StoreSchema schema,
    StoreOptions options)
    : path_(file ? file->path() : "<null>"), schema_(schema),
      opts_(options), file_(std::move(file))
{
    init(store::IoError());
}

void
FeatureStoreWriter::init(store::IoError open_error)
{
    // Enforce the same bounds the reader enforces at open, so every
    // file this writer produces is one its own reader accepts.
    // These are caller bugs, not I/O weather — still fatal.
    if (opts_.blockCapacity == 0 ||
        opts_.blockCapacity > store::maxBlockCapacity)
        TDFE_FATAL("feature store block capacity ",
                   opts_.blockCapacity, " outside [1, ",
                   store::maxBlockCapacity, "]");
    if (schema_.doubleColumns() > store::maxDoubleColumns)
        TDFE_FATAL("feature store schema has ",
                   schema_.doubleColumns(),
                   " double columns, format maximum is ",
                   store::maxDoubleColumns);

    stInt.resize(schema_.intColumns());
    stDbl.resize(schema_.doubleColumns());
    for (auto &c : stInt)
        c.reserve(opts_.blockCapacity);
    for (auto &c : stDbl)
        c.reserve(opts_.blockCapacity);

    if (!file_) {
        // Cannot even open the file (full scratch, bad directory):
        // degrade instead of killing the producing simulation.
        if (open_error.ok()) {
            open_error.code = EIO;
            open_error.message = "no file supplied";
        }
        fail(open_error, 0);
        return;
    }

    std::vector<std::uint8_t> h;
    h.reserve(store::headerBytes);
    h.insert(h.end(), store::headerMagic, store::headerMagic + 8);
    store::putU32(h, store::formatVersion);
    store::putU32(h, static_cast<std::uint32_t>(opts_.blockCapacity));
    store::putU32(h, static_cast<std::uint32_t>(schema_.intColumns()));
    store::putU32(h,
                  static_cast<std::uint32_t>(schema_.doubleColumns()));
    writeChecked(h.data(), h.size(), 0);
}

FeatureStoreWriter::~FeatureStoreWriter()
{
    if (!finished_)
        finish();
}

bool
FeatureStoreWriter::append(const FeatureRecord &record)
{
    if (finished_)
        TDFE_FATAL("append to a finished feature store: ", path_);
    if (record.coeffs.size() != schema_.coeffCount) {
        TDFE_FATAL("feature record has ", record.coeffs.size(),
                   " coefficients, store schema has ",
                   schema_.coeffCount);
    }
    if (!ok()) {
        // Sticky degraded state: the record is dropped and the
        // producer keeps running. One load + one add — this is the
        // whole per-record cost of a dead store.
        dropped_.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter drops(
            "store.writer.records_dropped_total");
        drops.add();
        return false;
    }

    if (records_ > 0 && record.iteration < lastIter_)
        sortedAppends_ = false;
    lastIter_ = record.iteration;

    for (std::size_t c = 0; c < StoreSchema::numIntColumns; ++c)
        stInt[c].push_back(StoreSchema::intColumn(record, c));
    for (std::size_t c = 0; c < stDbl.size(); ++c)
        stDbl[c].push_back(StoreSchema::doubleColumn(record, c));

    ++records_;
    static obs::Counter records("store.writer.records_total");
    records.add();
    if (++staged == opts_.blockCapacity)
        seal();
    return ok();
}

void
FeatureStoreWriter::seal()
{
    // Span + exposed accumulator share one clock read, the same
    // derivation contract as Region's "region.exposed.*" spans.
    obs::SpanTimer t("store.exposed.seal", "store");
    flushStaged();
    const double secs = t.stop();
    exposed_ += secs;
    static obs::Histogram sealLatency("store.writer.seal_seconds");
    sealLatency.observe(secs);
}

void
FeatureStoreWriter::flushStaged()
{
    obs::SpanTimer span("store.flush", "store");
    ++sealed_;
    static obs::Counter seals("store.writer.blocks_sealed_total");
    seals.add();
    const std::size_t n = staged;
    encodeBuf.clear();
    store::putU32(encodeBuf, static_cast<std::uint32_t>(n));
    // Encode straight into encodeBuf and backpatch the 4-byte
    // length prefix — no per-column scratch, no second copy.
    auto backpatch = [this](std::size_t at) {
        const std::size_t len = encodeBuf.size() - (at + 4);
        for (int i = 0; i < 4; ++i)
            encodeBuf[at + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(len >> (8 * i));
    };
    for (const auto &c : stInt) {
        const std::size_t at = encodeBuf.size();
        store::putU32(encodeBuf, 0);
        store::encodeIntColumnTagged(c.data(), n, encodeBuf);
        backpatch(at);
    }
    for (const auto &c : stDbl) {
        const std::size_t at = encodeBuf.size();
        store::putU32(encodeBuf, 0);
        store::encodeDoubleColumn(c.data(), n, encodeBuf);
        backpatch(at);
    }
    store::putU32(encodeBuf,
                  store::crc32(encodeBuf.data(), encodeBuf.size()));

    store::BlockInfo info;
    info.offset = bytesWritten_;
    info.size = encodeBuf.size();
    info.records = n;
    info.firstIter = stInt[0].front();
    info.lastIter = stInt[0].back();

    if (writeChecked(encodeBuf.data(), encodeBuf.size(), n)) {
        index.push_back(info);
        zones.push_back(store::computeBlockZone(stInt, stDbl));
    }
    for (auto &c : stInt)
        c.clear();
    for (auto &c : stDbl)
        c.clear();
    staged = 0;
}

bool
FeatureStoreWriter::writeChecked(const std::uint8_t *data,
                                 std::size_t n,
                                 std::size_t lost_records)
{
    const std::uint64_t start = bytesWritten_;
    store::IoError err;
    for (int attempt = 0;; ++attempt) {
        err = file_->write(data, n);
        if (err.ok()) {
            static obs::Counter syncs("store.writer.syncs_total");
            switch (opts_.durability) {
              case store::DurabilityPolicy::None:
                break;
              case store::DurabilityPolicy::FlushPerSeal:
                err = file_->flush();
                syncs.add();
                break;
              case store::DurabilityPolicy::SyncPerSeal:
                err = file_->sync();
                syncs.add();
                break;
            }
        }
        if (err.ok()) {
            bytesWritten_ += n;
            static obs::Counter bytes(
                "store.writer.bytes_written_total");
            bytes.add(n);
            return true;
        }
        if (!err.transientHint() || attempt >= maxWriteRetries)
            break;
        static obs::Counter retries("store.writer.retries_total");
        retries.add();
        // Roll the file back to the start of this write so the
        // rewrite never leaves a torn prefix in the middle; if even
        // that fails, the file state is unknowable — give up.
        const store::IoError cut = file_->truncateTo(start);
        if (!cut.ok()) {
            err = cut;
            break;
        }
        if (opts_.retryBackoffUs > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<long>(opts_.retryBackoffUs) << attempt));
    }
    // Unrecoverable: best-effort cut back to the sealed prefix so a
    // salvage scan finds clean blocks right up to the failure.
    file_->truncateTo(start);
    fail(err, lost_records);
    return false;
}

void
FeatureStoreWriter::fail(const store::IoError &error,
                         std::size_t lost_records)
{
    dropped_.fetch_add(lost_records, std::memory_order_relaxed);
    if (lost_records) {
        static obs::Counter drops(
            "store.writer.records_dropped_total");
        drops.add(lost_records);
    }
    {
        std::lock_guard<std::mutex> lock(errorMutex_);
        if (!failed_.load(std::memory_order_relaxed))
            error_ = error;
    }
    failed_.store(true, std::memory_order_release);
    warnOnce(warned_, "store",
             detail::concatMessage(
                 "feature store '", path_,
                 "' degraded, further records will be dropped: ",
                 error.message));
}

store::IoError
FeatureStoreWriter::status() const
{
    std::lock_guard<std::mutex> lock(errorMutex_);
    return error_;
}

std::size_t
FeatureStoreWriter::finish()
{
    if (finished_)
        return ok() ? static_cast<std::size_t>(bytesWritten_) : 0;
    obs::SpanTimer t("store.exposed.finish", "store");
    if (ok() && staged > 0)
        flushStaged();
    if (ok())
        writeFooter();
    if (ok()) {
        // The footer is what makes the file complete; make it at
        // least kernel-visible regardless of policy, durable under
        // fsync-per-seal.
        const store::IoError err =
            opts_.durability == store::DurabilityPolicy::SyncPerSeal
                ? file_->sync()
                : file_->flush();
        if (!err.ok())
            fail(err, 0);
    }
    if (file_) {
        const store::IoError err = file_->close();
        if (err.ok() == false && ok())
            fail(err, 0);
    }
    finished_ = true;
    exposed_ += t.stop();
    return ok() ? static_cast<std::size_t>(bytesWritten_) : 0;
}

void
FeatureStoreWriter::writeFooter()
{
    const std::uint64_t footer_offset = bytesWritten_;
    std::vector<std::uint8_t> f;
    std::uint64_t records = 0;
    store::putU64(f, index.size());
    for (const store::BlockInfo &b : index) {
        store::putU64(f, b.offset);
        store::putU64(f, b.size);
        store::putU64(f, b.records);
        store::putI64(f, b.firstIter);
        store::putI64(f, b.lastIter);
        records += b.records;
    }
    store::putU64(f, records);
    store::putU32(f, sortedAppends_ ? 1 : 0);
    store::putU32(f, static_cast<std::uint32_t>(schema_.intColumns()));
    store::putU32(f,
                  static_cast<std::uint32_t>(schema_.doubleColumns()));
    store::putU64(f, schema_.coeffCount);
    for (const std::string &name : schema_.columnNames()) {
        store::putU32(f, static_cast<std::uint32_t>(name.size()));
        f.insert(f.end(), name.begin(), name.end());
    }
    auto put_dbl_bits = [&f](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        store::putU64(f, bits);
    };
    for (const store::BlockZone &z : zones) {
        for (std::size_t c = 0; c < StoreSchema::numIntColumns; ++c) {
            store::putI64(f, z.intMin[c]);
            store::putI64(f, z.intMax[c]);
        }
        for (std::size_t c = 0; c < StoreSchema::numFixedDoubleColumns;
             ++c) {
            put_dbl_bits(z.dblMin[c]);
            put_dbl_bits(z.dblMax[c]);
        }
    }
    store::putU32(f, store::crc32(f.data(), f.size()));
    store::putU64(f, footer_offset);
    f.insert(f.end(), store::trailerMagic, store::trailerMagic + 8);
    writeChecked(f.data(), f.size(), 0);
}

} // namespace tdfe
