/**
 * @file
 * The live manifest: a compact CRC-framed sidecar ("<store>.live")
 * the writer republishes atomically (tmp + rename) after sealed
 * blocks, so a reader can serve the sealed prefix of a store that
 * is still being appended to. Its body is the footer the writer
 * would write if it finished at that seal — the same encoder, the
 * same bytes (format.hh) — and a reader parses and validates it
 * with the same footer parser FeatureStoreReader::open uses, after
 * checking the data file's header exactly as open() does. The frame
 * adds only what a footer cannot say: which publication it is,
 * whether more will follow, and where the sealed prefix ends. The
 * data file's unsealed tail is never described and therefore never
 * trusted; a reader that pins one manifest sees one immutable
 * prefix, which is what makes live views snapshot-isolated (see
 * live.hh).
 *
 * Layout (little-endian, one frame, manifest version 2):
 *
 *   magic "TDFSLIV1" (8)
 *   u32 manifest version
 *   u64 generation          monotone per publication
 *   u32 flags               bit 0: final (writer finished or
 *                           degraded — no further generations),
 *                           bit 1: writer degraded (the store holds
 *                           only a partial trace)
 *   u64 data bytes          extent of the sealed prefix in the data
 *                           file (header + all indexed blocks): the
 *                           offset the footer would be written at
 *   footer                  the format.hh footer of the sealed
 *                           prefix, its own CRC included
 *   u32 CRC-32 over everything before it
 *
 * Version 1 frames carried their own copy of the index and zone
 * map; this build rejects them as unsupported, and a live view that
 * meets one keeps its snapshot and polls again.
 *
 * The frame is rewritten whole every time; rename() makes each
 * publication atomic, so a reader observes either the previous or
 * the next manifest, never a blend. A torn or half-written frame
 * (possible only under injected faults or non-POSIX semantics)
 * fails the CRC and is ignored — the reader keeps its current
 * snapshot and polls again.
 */

#ifndef TDFE_STORE_MANIFEST_HH
#define TDFE_STORE_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tdfe
{

namespace store
{

/** Sidecar magic. */
constexpr char manifestMagic[8] = {'T', 'D', 'F', 'S',
                                   'L', 'I', 'V', '1'};

/** Manifest framing version written (and the only one read) by this
 *  build. */
constexpr std::uint32_t manifestVersion = 2;

/** LiveManifest::flags bits. @{ */
constexpr std::uint32_t manifestFlagFinal = 1u << 0;
constexpr std::uint32_t manifestFlagDegraded = 1u << 1;
/** @} */

/** @return the sidecar path of @p store_path ("<store>.live"). */
std::string manifestPathFor(const std::string &store_path);

/** In-memory form of one published manifest. */
struct LiveManifest
{
    /** Publication counter; strictly increasing per writer. */
    std::uint64_t generation = 0;
    /** manifestFlag* bits. */
    std::uint32_t flags = 0;
    /** Sealed-prefix extent in the data file: header + blocks. */
    std::uint64_t dataBytes = 0;
    /** Footer bytes describing the sealed prefix (format.hh, CRC
     *  included); FeatureStoreReader parses them. */
    std::vector<std::uint8_t> footer;

    bool final() const { return (flags & manifestFlagFinal) != 0; }
    bool
    degraded() const
    {
        return (flags & manifestFlagDegraded) != 0;
    }
};

/** Serialize @p m into @p out (cleared first), CRC frame included. */
void encodeManifest(const LiveManifest &m,
                    std::vector<std::uint8_t> &out);

/**
 * Parse @p n bytes at @p data into @p out. Validates the magic, the
 * CRC, the framing version, and that the fixed fields are present;
 * the footer is copied out unparsed — the reader validates it
 * against the data file. @return false with a diagnostic in
 * @p error on any malformation.
 */
bool decodeManifest(const std::uint8_t *data, std::size_t n,
                    LiveManifest &out, std::string *error = nullptr);

} // namespace store

} // namespace tdfe

#endif // TDFE_STORE_MANIFEST_HH
