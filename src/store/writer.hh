/**
 * @file
 * Append-only writer of the feature trace store (see format.hh for
 * the byte layout). Records are staged into columnar builders; every
 * `blockCapacity` records the block is sealed — encoded per column
 * and written with a CRC, inline on the appending thread, and
 * charged to exposedSeconds(). The file bytes depend only on the
 * appended records and the options, never on the thread count.
 *
 * Failure semantics (the store must never take the simulation
 * down): every sealed block's write is checked immediately, not at
 * close. Transient failures (EIO/EINTR/EAGAIN) are retried with
 * bounded backoff — the file is truncated back to the block start
 * and the block rewritten, so a short write never leaves garbage in
 * the middle. Unrecoverable failures (ENOSPC, retry budget spent)
 * latch a sticky error: the writer logs once, truncates the file
 * back to its last sealed block (best effort, so the sealed prefix
 * stays salvage-clean), and every later append() returns false and
 * drops the record. Nothing in this class calls TDFE_FATAL for I/O
 * — fatals are reserved for caller bugs (schema mismatch, append
 * after finish).
 *
 * Live readers (store/live.hh) follow the file itself, and the
 * write order above is what makes that safe: block k+1 is written
 * only after block k's write and durability step succeeded, and a
 * retry or degrade cuts the file back only to the start of the
 * write in flight. So a block with bytes after it is never cut, and
 * that is the commit rule readers apply — no sidecar, no extra
 * write. A degraded writer stops extending its file; its readers
 * end at their stall deadline on the salvage prefix.
 */

#ifndef TDFE_STORE_WRITER_HH
#define TDFE_STORE_WRITER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "store/feature_record.hh"
#include "store/file.hh"
#include "store/format.hh"

namespace tdfe
{

class BinaryReader;
class BinaryWriter;

/** Writer behaviour knobs. */
struct StoreOptions
{
    /** Records per block (encode/flush granularity). */
    std::size_t blockCapacity = 256;
    /** When sealed blocks become durable (see DurabilityPolicy). */
    store::DurabilityPolicy durability =
        store::DurabilityPolicy::None;
    /** Base backoff before retry @c k sleeps `backoff << k`
     *  microseconds (0 disables sleeping — tests). */
    int retryBackoffUs = 500;
};

/**
 * Append-only block writer. Single-producer: append() and finish()
 * must come from one thread. Records should be appended in
 * nondecreasing iteration order for the reader's block-index range
 * queries to use random access; out-of-order appends are legal
 * (e.g. rank-merged files) and simply downgrade range queries to a
 * sequential scan.
 */
class FeatureStoreWriter
{
  public:
    /**
     * Create/truncate the store at @p path and write the header.
     * A path that cannot be opened does NOT terminate: the writer
     * starts in the degraded state (ok() false, appends dropped)
     * and the producing simulation continues. Fatal only when the
     * options are degenerate (caller bug).
     */
    FeatureStoreWriter(const std::string &path, StoreSchema schema,
                       StoreOptions options = StoreOptions());

    /**
     * As above over a caller-supplied file — the fault-injection
     * entry point (tests and bench wrap an OsFile in a FaultyFile).
     */
    FeatureStoreWriter(std::unique_ptr<store::StoreFile> file,
                       StoreSchema schema,
                       StoreOptions options = StoreOptions());

    /**
     * Resume in place: reopen the store at @p path at the commit
     * saveCommit() wrote, read from @p commit. Sealed blocks are a
     * prefix of the file, so [header, extent) must hold exactly the
     * committed blocks, CRC-valid, of @p schema at @p options' block
     * capacity. The index, zone map, sorted flag and counts are
     * rebuilt from them, the rest of the file is cut off, and the
     * saved records are staged again, so appending on writes the
     * blocks an uninterrupted writer would have. @return nullptr
     * with the reason in @p error when the commit or the file does
     * not fit (the file is then untouched).
     */
    static std::unique_ptr<FeatureStoreWriter>
    resume(const std::string &path, StoreSchema schema,
           StoreOptions options, BinaryReader &commit,
           std::string *error);

    /** Finishes the store if finish() was not called explicitly. */
    ~FeatureStoreWriter();

    FeatureStoreWriter(const FeatureStoreWriter &) = delete;
    FeatureStoreWriter &operator=(const FeatureStoreWriter &) = delete;

    /**
     * Stage one record (coeffs size must match the schema — fatal
     * otherwise, as is appending after finish(); both are caller
     * bugs). Cheap: columnar pushes into reserved buffers; every
     * blockCapacity-th append seals a block (encode + write).
     *
     * @return true when the record was accepted; false when the
     * writer is degraded by an earlier unrecoverable I/O error —
     * the record is dropped and counted in droppedRecords(), and
     * the caller should stop appending (Region detaches its sink).
     */
    bool append(const FeatureRecord &record);

    /**
     * Seal the partial block, write the footer + trailer, and close
     * the file. Idempotent.
     * @return total file bytes, or 0 when the writer is (or
     *         becomes) degraded — the file then holds only its
     *         salvageable sealed prefix, no footer.
     */
    std::size_t finish();

    /**
     * Commit point of a checkpoint, between appends: flush the file
     * to the OS (a failure degrades the writer) and write to @p w the
     * sealed extent, the sealed block count and the staged record
     * count (u64 each), then each staged record's columns (i64, then
     * f64, in file order).
     */
    void saveCommit(BinaryWriter &w);

    /** @return true while no unrecoverable I/O error is latched. */
    bool
    ok() const
    {
        return !failed_.load(std::memory_order_acquire);
    }

    /**
     * @return the first unrecoverable I/O error (sticky; a
     * default-constructed IoError while ok()). The offset names
     * where in the file the failure hit.
     */
    store::IoError status() const;

    /** @return records appended (accepted for staging) so far. */
    std::size_t recordCount() const { return records_; }

    /** @return records that will never be readable from the file:
     *  appends rejected after the writer degraded plus staged
     *  records lost with a failed block. */
    std::size_t
    droppedRecords() const
    {
        return dropped_.load(std::memory_order_acquire);
    }

    /** @return column layout the store was opened with. */
    const StoreSchema &schema() const { return schema_; }

    /** @return blocks sealed so far (failed ones included). */
    std::size_t blocksSealed() const { return sealed_; }

    /**
     * Cumulative seconds of store work *exposed* to the producer:
     * seal-path time (the encode + write of each block) plus
     * finish(). Per-record staging pushes are not timed — they are
     * a few nanoseconds and timing them would cost more than they
     * do. This is the store's contribution to the per-step overhead
     * the paper's tables report. A degraded writer's seal path
     * collapses to a latch check, so the exposed cost of a dead
     * store is ~0.
     */
    double exposedSeconds() const { return exposed_; }

    /** @return path the store is being written to. */
    const std::string &path() const { return path_; }

  private:
    /** Shared constructor body (file may be null: degraded open). */
    void init(store::IoError open_error);

    /** Seal the full staged block, timed as exposed store work. */
    void seal();

    /** Encode + write the staged block, then clear the staging
     *  columns (written or lost, the records leave staging). */
    void flushStaged();

    /**
     * Checked write of @p n bytes with the per-seal durability step
     * and bounded transient-error retry (truncate back to the start
     * offset, rewrite, back off). On unrecoverable failure latches
     * the sticky error, charges @p lost_records to the drop count,
     * and best-effort truncates the file back to the start offset
     * so the sealed prefix stays clean. Advances bytesWritten_ on
     * success. @return success.
     */
    bool writeChecked(const std::uint8_t *data, std::size_t n,
                      std::size_t lost_records);

    /** Latch the sticky error (first one wins) and log once. */
    void fail(const store::IoError &error,
              std::size_t lost_records);

    /** Write the footer (format.hh, CRC included) describing the
     *  sealed blocks, and the trailer, after the last sealed
     *  block. */
    void writeFooter();

    std::string path_;
    StoreSchema schema_;
    StoreOptions opts_;
    std::unique_ptr<store::StoreFile> file_;

    /** Staging columns (ints, then doubles). @{ */
    std::vector<std::vector<std::int64_t>> stInt;
    std::vector<std::vector<double>> stDbl;
    std::size_t staged = 0;
    /** @} */
    std::vector<std::uint8_t> encodeBuf;

    /** Sticky failure latch. The flag is read lock-free on the
     *  append fast path and by other threads polling ok(); the error
     *  detail is guarded by errorMutex_. @{ */
    std::atomic<bool> failed_{false};
    mutable std::mutex errorMutex_;
    store::IoError error_;
    std::atomic<std::size_t> dropped_{0};
    /** warnOnce latch for the degrade warning (base/logging). */
    std::atomic<bool> warned_{false};
    /** @} */

    std::vector<store::BlockInfo> index;
    /** Per-sealed-block column min/max, written to the v2 footer as
     *  the zone map (grows in lockstep with index). */
    std::vector<store::BlockZone> zones;
    /** Iteration monotonicity across appends (footer sorted flag —
     *  rank merges break it and downgrade range queries). @{ */
    std::int64_t lastIter_ = 0;
    bool sortedAppends_ = true;
    /** @} */
    std::size_t records_ = 0;
    std::size_t sealed_ = 0;
    std::uint64_t bytesWritten_ = 0;
    double exposed_ = 0.0;
    bool finished_ = false;
};

} // namespace tdfe

#endif // TDFE_STORE_WRITER_HH
