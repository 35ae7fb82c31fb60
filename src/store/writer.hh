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
 */

#ifndef TDFE_STORE_WRITER_HH
#define TDFE_STORE_WRITER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "store/feature_record.hh"
#include "store/file.hh"
#include "store/format.hh"

namespace tdfe
{

/** Writer behaviour knobs. */
struct StoreOptions
{
    /** Records per block (encode/flush granularity). */
    std::size_t blockCapacity = 256;
    /** When sealed blocks become durable (see DurabilityPolicy). */
    store::DurabilityPolicy durability =
        store::DurabilityPolicy::None;
    /** Retries per block for transient I/O failures before the
     *  writer degrades. */
    int maxRetries = 3;
    /** Base backoff before retry @c k sleeps `backoff << k`
     *  microseconds (0 disables sleeping — tests). */
    int retryBackoffUs = 500;
    /**
     * Publish a live manifest ("<path>.live", see manifest.hh)
     * after sealed blocks so concurrent LiveStoreReader views can
     * follow the store while it is being written. Publication rides
     * the seal path, never the per-record staging, and a publication
     * failure degrades only the live side (liveOk()) — the store
     * itself keeps writing.
     */
    bool live = false;
    /** Seals between manifest publications (live mode). 1 publishes
     *  every sealed block; larger values amortize the O(blocks)
     *  manifest rewrite on very long runs. finish() always
     *  publishes a final manifest regardless. */
    std::size_t livePublishEvery = 1;
    /** Test seam: how the manifest tmp file is opened (empty: OS
     *  file). Fault plans injected here exercise the sticky live
     *  degrade without touching the data file. */
    std::function<std::unique_ptr<store::StoreFile>(
        const std::string &, store::IoError *)>
        liveFileFactory;
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

    /**
     * @return true while live-manifest publication (when requested
     * via StoreOptions::live) has not failed. Sticky like the store
     * degrade, but independent of it: a dead manifest path stops
     * live serving, not the trace — append() and finish() proceed
     * untouched. Always true when live mode is off.
     */
    bool
    liveOk() const
    {
        return !liveFailed_.load(std::memory_order_acquire);
    }

    /** @return the first manifest-publication error (sticky; a
     *  default-constructed IoError while liveOk()). */
    store::IoError liveStatus() const;

    /** @return manifest generations successfully published. */
    std::uint64_t
    livePublished() const
    {
        return livePublished_.load(std::memory_order_acquire);
    }

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

    void writeFooter();

    /**
     * Atomically publish the live manifest describing the current
     * sealed prefix (tmp + rename; see manifest.hh). Runs on the
     * seal path and inside finish() for the final generation, both
     * on the producing thread. Respects livePublishEvery unless
     * @p force. On failure latches the sticky live degrade (warn
     * once) and never touches the data file or the append path.
     */
    void publishManifest(bool final_manifest, bool force);

    /** Latch the sticky live-publication error (first one wins) and
     *  log once. The store itself keeps writing. */
    void liveFail(const store::IoError &error);

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

    /** Live-manifest publication state. The flag is sticky and read
     *  lock-free; the error detail shares errorMutex_. Generation
     *  and scratch are touched only on the producing thread.
     *  @{ */
    std::atomic<bool> liveFailed_{false};
    /** warnOnce latch for the live-degrade warning. */
    std::atomic<bool> liveWarned_{false};
    store::IoError liveError_;
    std::atomic<std::uint64_t> livePublished_{0};
    std::uint64_t liveGeneration_ = 0;
    std::vector<std::uint8_t> manifestBuf_;
    /** @} */
};

} // namespace tdfe

#endif // TDFE_STORE_WRITER_HH
