/**
 * @file
 * The live manifest: a sidecar ("<store>.live") the writer
 * republishes after sealed blocks, so a reader can serve the sealed
 * prefix of a store that is still being appended to. It is one
 * store/frame.hh frame (that file documents the layout), published
 * atomically by store::publishFile and read by store::readWholeFile:
 * a reader observes either the previous or the next manifest, never
 * a blend, and a torn frame (possible only under injected faults or
 * non-POSIX semantics) fails decodeFrame() — the reader keeps its
 * current snapshot and polls again.
 *
 * Frame fields: magic "TDFSLIV2", version 1, counter = the
 * generation (monotone per publication). Payload (little-endian):
 *
 *   u32 flags          bit 0: final (writer finished or degraded —
 *                      no further generations), bit 1: writer
 *                      degraded (the store holds only a partial
 *                      trace)
 *   u64 data bytes     extent of the sealed prefix in the data file
 *                      (header + all indexed blocks): the offset
 *                      the footer would be written at
 *   footer             the format.hh footer of the sealed prefix,
 *                      its own CRC included
 *
 * The footer is the one finish() would write if the writer finished
 * at that seal — the same encoder, the same bytes — and a reader
 * parses it with the footer parser FeatureStoreReader::open uses,
 * after checking the data file's header exactly as open() does. The
 * frame adds only what a footer cannot say: which publication it
 * is, whether more will follow, and where the sealed prefix ends.
 * The data file's unsealed tail is never described and therefore
 * never trusted; a reader that pins one manifest sees one immutable
 * prefix, which is what makes live views snapshot-isolated (see
 * live.hh).
 *
 * Sidecars of the earlier layouts (magic "TDFSLIV1", manifest
 * versions 1 and 2) fail the magic check; a live view that meets
 * one keeps its snapshot and polls again.
 */

#ifndef TDFE_STORE_MANIFEST_HH
#define TDFE_STORE_MANIFEST_HH

#include <cstdint>
#include <string>

namespace tdfe
{

namespace store
{

/** Frame magic of the sidecar. */
constexpr char manifestMagic[8] = {'T', 'D', 'F', 'S',
                                   'L', 'I', 'V', '2'};

/** Frame version written (and the only one read) by this build. */
constexpr std::uint32_t manifestVersion = 1;

/** Payload flag bits. @{ */
constexpr std::uint32_t manifestFlagFinal = 1u << 0;
constexpr std::uint32_t manifestFlagDegraded = 1u << 1;
/** @} */

/** @return the sidecar path of @p store_path ("<store>.live"). */
inline std::string
manifestPathFor(const std::string &store_path)
{
    return store_path + ".live";
}

} // namespace store

} // namespace tdfe

#endif // TDFE_STORE_MANIFEST_HH
