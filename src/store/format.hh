/**
 * @file
 * On-disk layout constants of the feature store, shared by the
 * writer, the reader, and tdfstool. The format is append-only and
 * block-based in the spirit of TrailDB:
 *
 *   [header]  magic "TDFSTOR1", u32 version, u32 block capacity,
 *             u32 int columns, u32 double columns        (24 bytes)
 *   [blocks]  each: u32 record count,
 *             per column, in StoreSchema's file order (the integer
 *             family, then the double family): u32 encoded length +
 *             encoded bytes,
 *             u32 CRC-32 over everything before it in the block
 *   [footer]  u64 block count,
 *             per block: u64 offset, u64 size, u64 records,
 *                        i64 first iteration, i64 last iteration,
 *             u64 total records,
 *             u32 sorted flag (1: appends were nondecreasing in
 *                 iteration, enabling block-index range queries),
 *             u32 int columns, u32 double columns, u64 coeff count,
 *             per column: u32 name length + name bytes (exactly
 *                 StoreSchema::columnNames(); a reader rejects any
 *                 other list),
 *             (v2+) per block a zone map entry: i64 min + i64 max
 *                 for each integer column, then raw f64 bits of
 *                 min + max for each fixed double column (the
 *                 coefficients are not zone-mapped: no predicate
 *                 ranges over them; NaNs are excluded, and an
 *                 all-NaN column stores min > max so no predicate
 *                 can select the block),
 *             then u32 CRC-32 over the footer bytes before it
 *   [trailer] u64 footer offset, magic "TDFSEND1"        (16 bytes)
 *
 * Version history. v1 encodes integer columns as delta+zigzag
 * varints and has no zone map. v2 prefixes every integer column's
 * payload with a one-byte codec id — delta varint, dictionary, or
 * run-length, whichever trial-encodes smallest for that block (the
 * low-cardinality columns analysis/stop typically dictionary- or
 * RLE-pack to a handful of bytes) — and appends the per-block zone
 * map to the footer so filtered queries can skip whole blocks
 * without reading them. Double columns are Gorilla XOR in both.
 * Readers of this build open v1 and v2; v1-only readers reject v2
 * cleanly at the header version check.
 *
 * The trailer is fixed-size and at the very end, so a reader finds
 * the footer without scanning; any truncation loses the trailer (or
 * breaks the footer CRC) and is rejected at open.
 *
 * Crash consistency: the layout is deliberately recoverable without
 * its footer. Blocks are self-delimiting (the record count and the
 * per-column lengths determine the block's extent) and individually
 * CRC'd, the header alone fixes the schema (column names are
 * StoreSchema's, a function of the coefficient count), and the
 * writer truncates the file back to the last sealed block when a
 * write fails — so any crash or mid-run degrade leaves "header +
 * N intact blocks + possibly a torn tail", and
 * FeatureStoreReader::salvage / `tdfstool recover` rebuild the
 * index by scanning forward and CRC-checking each block. Sealed data is recovered exactly; only the unsealed tail
 * (at most blockCapacity-1 staged records, plus the in-flight block
 * under DurabilityPolicy::None) can be lost.
 *
 * The same forward scan makes the data file its own live log: a
 * live view (live.hh) adopts each block once the file holds a byte
 * past its end — the next block's first bytes, or the footer — and
 * the writer never cuts a block that has bytes after it.
 */

#ifndef TDFE_STORE_FORMAT_HH
#define TDFE_STORE_FORMAT_HH

#include <cstddef>
#include <cstdint>

#include "store/feature_record.hh"

namespace tdfe
{

namespace store
{

/** File-leading magic. */
constexpr char headerMagic[8] = {'T', 'D', 'F', 'S',
                                 'T', 'O', 'R', '1'};
/** File-trailing magic. */
constexpr char trailerMagic[8] = {'T', 'D', 'F', 'S',
                                  'E', 'N', 'D', '1'};

/** Format version written by this build. */
constexpr std::uint32_t formatVersion = 2;

/** Oldest format version this build's reader still opens. */
constexpr std::uint32_t minSupportedFormatVersion = 1;

/** Bounds shared by writer validation and reader rejection, so a
 *  writer can never produce a file its own reader refuses. @{ */
constexpr std::size_t maxBlockCapacity = std::size_t{1} << 24;
constexpr std::size_t maxDoubleColumns = 4096;
/** @} */

/** magic + version + capacity + int cols + double cols. */
constexpr std::size_t headerBytes = 8 + 4 + 4 + 4 + 4;

/** footer offset + magic. */
constexpr std::size_t trailerBytes = 8 + 8;

/** Bytes of one block-index entry inside the footer. */
constexpr std::size_t indexEntryBytes = 8 + 8 + 8 + 8 + 8;

/** Per-int-column codec id leading a v2 column payload. */
enum class IntCodec : std::uint8_t
{
    /** Delta + zigzag LEB128 varints (the v1 encoding). */
    DeltaVarint = 0,
    /** Sorted value dictionary + bit-packed indices (TrailDB's
     *  trail_encode_model dictionary-build pass); wins on
     *  low-cardinality columns like analysis id. */
    Dict = 1,
    /** (value, run length) pairs; wins on long constant runs like
     *  the stop flag. */
    Rle = 2,
};

/** One footer block-index entry. */
struct BlockInfo
{
    /** Absolute file offset of the block. */
    std::uint64_t offset = 0;
    /** Block size in bytes, CRC included. */
    std::uint64_t size = 0;
    /** Records encoded in the block. */
    std::uint64_t records = 0;
    /** Iteration of the block's first / last record (random access
     *  by iteration range). @{ */
    std::int64_t firstIter = 0;
    std::int64_t lastIter = 0;
    /** @} */
};

/**
 * One footer zone-map entry (v2+): per-column min/max over the
 * block's records, the pushdown side of the query engine. Doubles
 * exclude NaNs; a column with no finite-or-infinite value stores
 * min > max, which no range predicate can overlap.
 */
struct BlockZone
{
    std::int64_t intMin[StoreSchema::numIntColumns] = {};
    std::int64_t intMax[StoreSchema::numIntColumns] = {};
    double dblMin[StoreSchema::numFixedDoubleColumns] = {};
    double dblMax[StoreSchema::numFixedDoubleColumns] = {};
};

} // namespace store

} // namespace tdfe

#endif // TDFE_STORE_FORMAT_HH
