/**
 * @file
 * File abstraction under the feature store, SQLite-VFS style: the
 * writer talks to a small StoreFile interface instead of a raw
 * stream, so the same code path runs against the production OsFile
 * (buffered POSIX I/O with an explicit durability policy) and
 * against the deterministic FaultyFile wrapper that injects the
 * failures HPC scratch filesystems actually produce — short writes,
 * transient EIO, ENOSPC, and crash-at-byte-N torn writes.
 *
 * Error model: every operation returns an IoError value instead of
 * latching hidden stream state. An IoError carries the errno-style
 * code, the file offset the failure happened at, and a
 * human-readable message, so the writer can retry transient
 * failures in place and surface exact offsets when it degrades.
 */

#ifndef TDFE_STORE_FILE_HH
#define TDFE_STORE_FILE_HH

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

namespace tdfe
{

namespace store
{

/**
 * When sealed blocks become durable. The store is an analysis
 * artifact, not the simulation's restart data, so the default
 * trades durability for speed; campaigns that must survive node
 * loss dial it up per seal.
 */
enum class DurabilityPolicy
{
    /** OS-buffered: blocks reach the kernel when stdio flushes.
     *  A process crash keeps everything written; a node crash can
     *  lose the tail (salvage recovers the sealed prefix). */
    None,
    /** flush() after every sealed block: a process crash loses at
     *  most the in-flight block, never a sealed one. */
    FlushPerSeal,
    /** fsync() after every sealed block: sealed blocks survive node
     *  loss. The expensive policy; see PERF.md for the cost table. */
    SyncPerSeal,
};

/** Look up the policy named "none" / "flush" / "fsync" into
 *  @p out. @return false, leaving @p out alone, on any other name. */
bool lookupDurabilityPolicy(const std::string &name,
                            DurabilityPolicy &out);

/** lookupDurabilityPolicy for CLI plumbing: fatal on an unknown
 *  name so typos never silently weaken durability. */
DurabilityPolicy parseDurabilityPolicy(const std::string &name);

/** Inverse of lookupDurabilityPolicy (logs, bench tables). */
const char *durabilityPolicyName(DurabilityPolicy policy);

/**
 * Outcome of one file operation. Default-constructed means success;
 * a nonzero code is an errno value (or the closest equivalent).
 */
struct IoError
{
    /** errno-style code; 0 means the operation succeeded. */
    int code = 0;
    /** File offset the failure occurred at (diagnostics). */
    std::uint64_t offset = 0;
    /** Human-readable detail, e.g. "short write (12/40 bytes)". */
    std::string message;

    bool ok() const { return code == 0; }

    /**
     * @return true when retrying the operation may succeed (EINTR,
     * EAGAIN, EIO — transient media or interconnect hiccups).
     * ENOSPC is deliberately not transient: a full scratch
     * filesystem does not drain within a retry budget, and burning
     * retries there just delays the degrade decision.
     */
    bool
    transientHint() const
    {
        return code == EINTR || code == EAGAIN || code == EIO;
    }
};

/**
 * Minimal sequential-write file interface. Implementations report
 * failures as values (IoError) and must stay usable after an error:
 * the writer retries transient failures by truncating back to the
 * last good offset and rewriting the block.
 */
class StoreFile
{
  public:
    virtual ~StoreFile() = default;

    /** Append @p n bytes. On failure, offset() reflects how far the
     *  write actually advanced (short writes land a prefix). */
    virtual IoError write(const void *data, std::size_t n) = 0;

    /** Push user-space buffers to the kernel. */
    virtual IoError flush() = 0;

    /** Make everything written so far durable (flush + fsync). */
    virtual IoError sync() = 0;

    /** Cut the file back to @p size bytes and reposition there —
     *  the retry path after a short or failed write. */
    virtual IoError truncateTo(std::uint64_t size) = 0;

    /** Flush and close. Idempotent; further writes fail EBADF. */
    virtual IoError close() = 0;

    /** @return bytes successfully written so far (current append
     *  position). */
    virtual std::uint64_t offset() const = 0;

    /** @return path for diagnostics. */
    virtual const std::string &path() const = 0;
};

/**
 * Create/truncate a production file at @p path (with @p keep: open
 * the existing file for update, positioned at its start). @return
 * nullptr with the reason in @p error when the file cannot be opened
 * (the caller decides whether that is fatal — the store writer
 * degrades instead of killing the simulation).
 */
std::unique_ptr<StoreFile> openOsFile(const std::string &path,
                                      IoError *error = nullptr,
                                      bool keep = false);

/**
 * Read-side counterpart of StoreFile: random-access reads over an
 * immutable store file, so the reader fetches exactly the blocks a
 * query selects instead of slurping the whole file. readAt() must
 * be safe to call concurrently from many threads (one cursor per
 * thread is the reader's parallel-scan contract) — the production
 * implementation is a pread over one shared descriptor.
 */
class ReadFile
{
  public:
    virtual ~ReadFile() = default;

    /** Read exactly @p n bytes at @p offset into @p dst. A short
     *  read (EOF inside the range) is an error: the caller always
     *  knows the file extent it indexed. */
    virtual IoError readAt(std::uint64_t offset, void *dst,
                           std::size_t n) const = 0;

    /** @return total file size in bytes. */
    virtual std::uint64_t size() const = 0;

    /** @return path for diagnostics. */
    virtual const std::string &path() const = 0;
};

/**
 * Open @p path read-only. @return nullptr with the reason in
 * @p error when it cannot be opened or sized.
 */
std::unique_ptr<ReadFile> openOsReadFile(const std::string &path,
                                         IoError *error = nullptr);

/**
 * Pluggable read-side file opener. The reader and the live view
 * accept one of these so tests can interpose FaultyReadFile (or an
 * unopenable path) on every open/refresh; a default-constructed
 * (empty) factory means openOsReadFile.
 */
using ReadFileFactory = std::function<std::unique_ptr<ReadFile>(
    const std::string &, IoError *)>;

/** @return @p factory(path, error), or openOsReadFile(path, error)
 *  when @p factory is empty — the one place the default is chosen,
 *  so every read path honors injection identically. */
std::unique_ptr<ReadFile> openReadFileVia(
    const ReadFileFactory &factory, const std::string &path,
    IoError *error = nullptr);

/**
 * Read-side counterpart of FaultPlan: the failures a reader sees
 * from HPC scratch filesystems — transient EIO on a block fetch,
 * short reads near a torn tail. Offsets are absolute file offsets
 * (the read side is random-access, so logical append offsets do not
 * apply).
 */
struct ReadFaultPlan
{
    enum class Kind
    {
        /** Pass-through. */
        None,
        /**
         * Reads touching [atByte, ∞) fail with @c errCode after
         * optionally delivering the bytes below the mark
         * (shortRead). Fires @c failCount times across all readers,
         * then heals — the transient-retry / refresh-retry knob.
         */
        ErrorAt,
    };

    Kind kind = Kind::None;
    /** Absolute byte offset the fault triggers at. */
    std::uint64_t atByte = 0;
    /** errno delivered by ErrorAt (EIO, ...). */
    int errCode = EIO;
    /** ErrorAt firings before the file heals (INT_MAX: never). */
    int failCount = INT_MAX;
    /** Deliver the bytes below atByte before failing (the short
     *  read a reader racing a truncation observes). */
    bool shortRead = false;
};

/**
 * Deterministic fault-injection wrapper around another ReadFile.
 * readAt stays safe to call from many threads (the fault counter is
 * atomic), matching the contract cursors rely on.
 */
class FaultyReadFile final : public ReadFile
{
  public:
    FaultyReadFile(std::unique_ptr<ReadFile> inner,
                   ReadFaultPlan plan);

    IoError readAt(std::uint64_t offset, void *dst,
                   std::size_t n) const override;
    std::uint64_t size() const override { return inner_->size(); }
    const std::string &path() const override
    {
        return inner_->path();
    }

    /** @return ErrorAt faults still pending (0: healed). */
    int
    remainingFaults() const
    {
        const int r = remaining_.load(std::memory_order_relaxed);
        return r > 0 ? r : 0;
    }

  private:
    std::unique_ptr<ReadFile> inner_;
    ReadFaultPlan plan_;
    mutable std::atomic<int> remaining_;
};

/**
 * Deterministic fault plan of a FaultyFile. Offsets are logical
 * append offsets (bytes the writer believes it has written), so a
 * plan is reproducible regardless of buffering underneath.
 */
struct FaultPlan
{
    enum class Kind
    {
        /** Pass-through. */
        None,
        /**
         * Torn write at @c atByte: bytes below the mark reach the
         * underlying file, everything at or past it is silently
         * dropped while the writer is told all is well — exactly
         * what a node crash (or power loss under DurabilityPolicy::
         * None) does to page-cached data. The resulting file is the
         * byte-exact honest prefix, the input of the salvage sweep.
         */
        Crash,
        /**
         * Writes crossing @c atByte fail with @c errCode after
         * optionally landing the bytes below the mark (shortWrite).
         * Fires @c failCount times, then the file heals — the
         * transient-retry test knob. The writer's retry truncates
         * back and rewrites, re-crossing the mark, so failCount is
         * exactly the number of failed attempts.
         */
        ErrorAt,
    };

    Kind kind = Kind::None;
    /** Logical byte offset the fault triggers at. */
    std::uint64_t atByte = 0;
    /** errno delivered by ErrorAt (EIO, ENOSPC, ...). */
    int errCode = EIO;
    /** ErrorAt firings before the file heals (INT_MAX: never). */
    int failCount = INT_MAX;
    /** Deliver the bytes below atByte before failing (torn write
     *  visible to the retry path). */
    bool shortWrite = false;
};

/**
 * Deterministic fault-injection wrapper around another StoreFile.
 * Single-threaded like its user (the writer serializes flushes);
 * faults fire on the write path only — flush/sync/close pass
 * through (and silently succeed in Crash mode, as a lying kernel
 * would).
 */
class FaultyFile final : public StoreFile
{
  public:
    FaultyFile(std::unique_ptr<StoreFile> inner, FaultPlan plan);

    IoError write(const void *data, std::size_t n) override;
    IoError flush() override;
    IoError sync() override;
    IoError truncateTo(std::uint64_t size) override;
    IoError close() override;
    std::uint64_t offset() const override { return offset_; }
    const std::string &path() const override
    {
        return inner_->path();
    }

    /** @return ErrorAt faults still pending (0: healed). */
    int remainingFaults() const { return remaining_; }

  private:
    std::unique_ptr<StoreFile> inner_;
    FaultPlan plan_;
    /** Logical append offset (what the writer believes). */
    std::uint64_t offset_ = 0;
    int remaining_ = 0;
};

} // namespace store

} // namespace tdfe

#endif // TDFE_STORE_FILE_HH
