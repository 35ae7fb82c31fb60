/**
 * @file
 * Crash-safe checkpoint generations + rotation. Checkpoints are the
 * restart data of a long campaign, so unlike the feature store they
 * default to the paranoid end of the durability scale. Each
 * generation is one envelope around an opaque payload, published
 * atomically by store::publishFile (one write to `<path>.tmp`,
 * flush or fsync per policy, rename), so a crash at any byte leaves
 * either the previous generation intact or a torn file that fails
 * its CRC and is skipped by openNewestValid().
 *
 * Envelope layout (little-endian, see base/portable.hh):
 *
 *     offset  0   magic[8]        "TDCKENV1"
 *     offset  8   u32 version     1
 *     offset 12   u32 reserved    zero
 *     offset 16   u64 iteration
 *     offset 24   u64 payload bytes (n)
 *     offset 32   u32 header CRC-32 (of bytes [0, 32))
 *     offset 36   payload
 *     offset 36+n u32 payload CRC-32
 *
 * Error model mirrors the store sink: nothing in here ever fatals on
 * I/O. Saves that fail latch a sticky degraded status on the
 * CheckpointSet (the run continues, the harness surfaces it), and
 * loads that find damage fall back to the previous good generation.
 */

#ifndef TDFE_CKPT_CHECKPOINT_HH
#define TDFE_CKPT_CHECKPOINT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "store/file.hh"

namespace tdfe
{

namespace ckpt
{

/** Outcome of a checkpoint I/O operation; ok() means success. */
using CkptStatus = store::IoError;

/**
 * Per-write knobs: the durability before the rename, and the fault
 * hooks of the crash-point sweep (wrapFile tears the write at an
 * exact byte, skipRename dies before the publish rename).
 */
using WriteOptions = store::PublishOptions;

/**
 * Write @p payload as a complete envelope at @p path, atomically
 * (tmp + durability + rename). Never fatals; a failure removes the
 * temp file and leaves whatever was at @p path untouched.
 */
CkptStatus writeCheckpointFile(const std::string &path,
                               const std::string &payload,
                               std::uint64_t iteration,
                               const WriteOptions &opts = {});

/**
 * Read and fully validate an envelope: size, magic, header CRC,
 * version, exact length, payload CRC, in that order. @return true
 * with the payload and iteration filled in; false with @p error
 * describing the first problem (missing, truncated, bad
 * magic/version/CRC).
 */
bool readCheckpointFile(const std::string &path, std::string *payload,
                        std::uint64_t *iteration,
                        std::string *error = nullptr);

/** Parsed envelope header + validity verdict (tdfstool ckpt-info). */
struct EnvelopeInfo
{
    bool valid = false;
    std::string error;
    std::uint32_t version = 0;
    std::uint64_t iteration = 0;
    std::uint64_t payloadBytes = 0;
    std::uint32_t payloadCrc = 0;
    std::uint64_t fileBytes = 0;
};

/** Inspect without keeping the payload (full CRC check still runs). */
EnvelopeInfo inspectCheckpointFile(const std::string &path);

/** One on-disk generation discovered by a prefix scan. */
struct Generation
{
    std::uint64_t iteration = 0;
    std::string path;
};

/** All `<prefix>.NNNNNN.tdck` generations, newest first. */
std::vector<Generation> listGenerations(const std::string &prefix);

/** @return `<prefix>.NNNNNN.tdck` for @p iteration. */
std::string generationPath(const std::string &prefix,
                           std::uint64_t iteration);

/**
 * Rotating set of checkpoint generations under one path prefix.
 * Loading scans the directory for `<prefix>.NNNNNN.tdck` files, so
 * the generations themselves are the only state on disk.
 */
class CheckpointSet
{
  public:
    /**
     * @param prefix Path prefix; generations land next to it.
     * @param keep Generations retained (older ones are deleted
     *   after a successful save). Keep >= 2 so a torn newest
     *   generation still has a fallback; values < 1 clamp to 1.
     * @param durability When a generation becomes durable.
     */
    explicit CheckpointSet(std::string prefix, int keep = 3,
                           store::DurabilityPolicy durability =
                               store::DurabilityPolicy::SyncPerSeal);

    /**
     * Write one generation for @p iteration. @return false when the
     * write failed; the failure also latches degraded()/status()
     * (sticky), and the previous generations stay untouched.
     */
    bool save(std::uint64_t iteration, const std::string &payload);

    /**
     * Scan generations newest-first, fully validating each, and
     * return the newest valid payload. Torn or corrupt candidates
     * are skipped (that is the fallback-to-previous-good path).
     * @return false when no valid generation exists.
     */
    bool openNewestValid(std::string *payload,
                         std::uint64_t *iteration,
                         std::string *path = nullptr) const;

    /** @return true once any save has failed (sticky). */
    bool degraded() const { return degraded_; }

    /** First failure's status (empty while healthy). */
    const CkptStatus &status() const { return status_; }

    /** Generations written successfully through this set. */
    std::uint64_t saved() const { return saved_; }

    const std::string &prefix() const { return prefix_; }

    /**
     * Test seam: called before every save with the iteration and the
     * WriteOptions about to be used; the crash-point sweep injects
     * FaultyFile plans / skipRename for chosen generations here.
     */
    void
    setWriteHook(
        std::function<void(std::uint64_t, WriteOptions &)> hook)
    {
        writeHook_ = std::move(hook);
    }

  private:
    void pruneOld() const;

    std::string prefix_;
    int keep_;
    store::DurabilityPolicy durability_;
    std::function<void(std::uint64_t, WriteOptions &)> writeHook_;
    bool degraded_ = false;
    /** warnOnce latch for the degrade warning (base/logging). */
    std::atomic<bool> warned_{false};
    CkptStatus status_;
    std::uint64_t saved_ = 0;
};

/**
 * Process-wide SIGINT/SIGTERM sentinel for the resilient runners:
 * the handler only sets a flag; the run loop polls it and performs
 * an orderly final checkpoint + store seal. @{
 */
void installSignalSentinel();
bool interruptRequested();
void clearInterruptRequest();
/** Test seam: simulate a delivered signal. */
void requestInterrupt();
/** @} */

} // namespace ckpt

} // namespace tdfe

#endif // TDFE_CKPT_CHECKPOINT_HH
