/**
 * @file
 * The one crash-safe framed file of the library. A checkpoint
 * generation (ckpt/checkpoint.hh) is one payload in this frame,
 * published atomically: written whole to `<path>.tmp` through the
 * StoreFile seam (so the deterministic FaultyFile faults the store
 * sweeps use apply here too), made durable per DurabilityPolicy,
 * and renamed into place. A reader therefore observes the previous
 * file or the next one, never a blend; a crash at any byte leaves
 * either the previous file or a torn one that decodeFrame()
 * rejects.
 *
 * Frame layout (little-endian, see base/portable.hh):
 *
 *     offset  0   magic[8]        names the kind of file
 *     offset  8   u32 version     that kind's format version
 *     offset 12   u32 reserved    zero
 *     offset 16   u64 counter     checkpoint iteration
 *     offset 24   u64 payload bytes (n)
 *     offset 32   u32 header CRC-32 (of bytes [0, 32))
 *     offset 36   payload
 *     offset 36+n u32 payload CRC-32
 */

#ifndef TDFE_STORE_FRAME_HH
#define TDFE_STORE_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "store/file.hh"

namespace tdfe
{

namespace store
{

/** Frame bytes before the payload (magic .. header CRC). */
constexpr std::size_t frameHeaderBytes = 36;
/** Frame bytes after the payload (its CRC). */
constexpr std::size_t frameTrailerBytes = 4;

/** Header fields of a frame, as far as decodeFrame() parsed them. */
struct FrameInfo
{
    std::uint32_t version = 0;
    std::uint64_t counter = 0;
    std::uint64_t payloadBytes = 0;
    /** Stored payload CRC (set once the size checks out). */
    std::uint32_t payloadCrc = 0;
};

/** Encode @p n payload bytes at @p payload as one frame into
 *  @p out (cleared first). */
void encodeFrame(const char (&magic)[8], std::uint32_t version,
                 std::uint64_t counter, const void *payload,
                 std::size_t n, std::vector<std::uint8_t> &out);

/**
 * Validate the frame held in @p bytes: size, magic, header CRC,
 * @p version, exact length, payload CRC, in that order. @p info is
 * filled as far as the header parses, even for a rejected frame.
 * @return true when valid — the payload then starts at
 * `bytes.data() + frameHeaderBytes` and is info.payloadBytes long;
 * false with the first problem in @p error.
 */
bool decodeFrame(const char (&magic)[8], std::uint32_t version,
                 const std::vector<std::uint8_t> &bytes,
                 FrameInfo &info, std::string *error = nullptr);

/** Decorates a freshly opened file (FaultyFile tears its write at
 *  an exact byte). */
using WrapFile = std::function<std::unique_ptr<StoreFile>(
    std::unique_ptr<StoreFile>)>;

/** How publishFile() makes a file durable, plus its crash seams. */
struct PublishOptions
{
    /** What runs between the write and the rename: nothing,
     *  flush(), or sync(). */
    DurabilityPolicy durability = DurabilityPolicy::SyncPerSeal;
    /** Test seam: decorate the temp file before the write. */
    WrapFile wrapFile;
    /** Test seam: crash after the durable write, before the rename
     *  (the temp file is left behind as a crash would leave it). */
    bool skipRename = false;
};

/**
 * Atomically replace @p path with @p n bytes at @p data: one write
 * to `<path>.tmp`, flush or fsync per policy, close, rename. Never
 * fatals; on failure the temp file is removed and @p path is left
 * untouched. The rename itself is not made durable — a caller that
 * deletes older files after a publish syncs the directory.
 */
IoError publishFile(const std::string &path, const void *data,
                    std::size_t n, const PublishOptions &opts);

/**
 * Read all of @p path, opened through @p factory (openReadFileVia),
 * into @p out. A file over @p max_bytes is rejected before anything
 * is allocated. An open failure returns the opener's error (ENOENT
 * for a missing file).
 */
IoError readWholeFile(const ReadFileFactory &factory,
                      const std::string &path, std::uint64_t max_bytes,
                      std::vector<std::uint8_t> &out);

} // namespace store

} // namespace tdfe

#endif // TDFE_STORE_FRAME_HH
