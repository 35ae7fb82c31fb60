/**
 * @file
 * Indexed reader of the feature trace store. open() reads only the
 * header, the footer index, and the trailer; block payloads are
 * fetched on demand, one pread per decoded block, through the same
 * store::ReadFile seam the writer uses on its side — so a filtered
 * query that the zone map prunes to three blocks reads three blocks
 * off disk, not the file. Records are read through QueryCursor
 * (query.hh), the one cursor type; cursor() is a full scan. It
 * re-fills its columnar decode buffers in place, so steady-state
 * iteration allocates nothing, matching the packed-layout
 * conventions of the training hot path. Cursors may run
 * concurrently (one per thread): the reader's state is immutable
 * after open and ReadFile::readAt is thread-safe.
 *
 * Error model: open() and verify() report malformed input
 * gracefully (a store file is user data, and tdfstool must be able
 * to diagnose it); decoding through a cursor treats corruption as
 * fatal, exactly like a corrupt checkpoint — by then the caller has
 * asked for values that do not exist.
 */

#ifndef TDFE_STORE_READER_HH
#define TDFE_STORE_READER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "store/feature_record.hh"
#include "store/file.hh"
#include "store/format.hh"
#include "store/query.hh"

namespace tdfe
{

/** Read-only view of one store file. */
class FeatureStoreReader
{
  public:
    /**
     * Open @p path: read and validate header, trailer, and footer
     * (CRC-checked), and parse the block index, zone map (v2+), and
     * schema. Block data stays on disk until a cursor asks for it.
     * A zero-block store (header + footer, no sealed blocks — what
     * a writer that never filled a block finishes into) is valid
     * and opens as an empty reader. @p file_factory interposes on
     * the underlying open/read (fault injection; empty: OS files).
     * @return nullptr on any malformation, with a diagnostic in
     *         @p error when given.
     */
    static std::unique_ptr<FeatureStoreReader>
    open(const std::string &path, std::string *error = nullptr,
         const store::ReadFileFactory &file_factory = {});

    /**
     * Recover what a damaged store still holds. Requires only an
     * intact header: scanBlocks over [header, EOF) walks,
     * CRC-checks and fully decodes one block after another and
     * reconstructs the index from the blocks that survive; the scan
     * stops at the first byte that does not parse as a valid block
     * — exactly the sealed prefix an interrupted writer leaves
     * behind. Column names are rebuilt from the schema (they are
     * deterministic), the sorted flag is recomputed from the
     * recovered records, and the zone map is rebuilt from the
     * decoded blocks, so a salvaged reader behaves identically to a
     * footer-backed one over the same blocks — filtered-query
     * pushdown included. @p end (clamped to EOF) ends the scan
     * early, as a resumed writer needs. @return nullptr (diagnostic
     * in @p error) only when not even the header survives or the
     * read fails.
     */
    static std::unique_ptr<FeatureStoreReader>
    salvage(const std::string &path, std::string *error = nullptr,
            const store::ReadFileFactory &file_factory = {},
            std::uint64_t end = UINT64_MAX);

    /**
     * open(), falling back to salvage() when the footer path fails
     * — and also when the footer is intact but verify() finds a
     * corrupt block, so the result is always fully decodable (a
     * cursor over it cannot hit the fatal corruption path). The open
     * step of the rank merge. @p was_salvaged
     * reports which path produced the reader.
     */
    static std::unique_ptr<FeatureStoreReader>
    openOrSalvage(const std::string &path,
                  std::string *error = nullptr,
                  bool *was_salvaged = nullptr,
                  const store::ReadFileFactory &file_factory = {});

    /** @return column layout recorded in the footer. */
    const StoreSchema &schema() const { return schema_; }

    /** @return on-disk format version (1: no zone map, delta-varint
     *  integer columns; 2: zone-mapped, per-block codec choice). */
    std::uint32_t formatVersion() const { return version_; }

    /** @return total records across all blocks. */
    std::size_t recordCount() const { return records_; }

    /** @return number of blocks. */
    std::size_t blockCount() const { return index.size(); }

    /** @return footer index entry of block @p b. */
    const store::BlockInfo &blockInfo(std::size_t b) const
    {
        return index[b];
    }

    /**
     * @return zone-map entry of block @p b, or nullptr when the
     * store carries none (v1 footer-backed opens — salvage rebuilds
     * zones for both versions). Pushdown treats a missing zone map
     * as "may match": only the always-present per-block iteration
     * bounds prune then.
     */
    const store::BlockZone *zone(std::size_t b) const
    {
        return zones_.empty() ? nullptr : &zones_[b];
    }

    /** @return records-per-block capacity from the header. */
    std::size_t blockCapacity() const { return capacity_; }

    /** @return file size in bytes. */
    std::size_t fileBytes() const
    {
        return static_cast<std::size_t>(file_->size());
    }

    /**
     * @return true when the producer appended records in
     * nondecreasing iteration order (footer flag, cross-checked
     * against the block boundaries), enabling the early exit of
     * iteration-range queries. Unsorted stores (e.g. legacy
     * rank-concatenated merges) still prune per block via the zone
     * map's iteration bounds — they only lose the early exit.
     */
    bool sortedByIteration() const { return sorted_; }

    /** @return true when this reader was built by salvage() (no
     *  trusted footer; the index was reconstructed by scanning). */
    bool salvaged() const { return salvaged_; }

    /** @return file bytes past the last recovered block that the
     *  salvage scan discarded (0 for a footer-backed open: there
     *  the footer+trailer account for every byte). */
    std::size_t droppedTailBytes() const { return droppedTail_; }

    /**
     * Blocks decoded through this reader since open (or the last
     * resetIoStats), summed over all cursors — the observable the
     * pushdown gates measure: a selective query over a cold reader
     * must leave this well below blockCount(). @{
     */
    std::size_t
    blocksDecoded() const
    {
        return blocksDecoded_.load(std::memory_order_relaxed);
    }
    void
    resetIoStats() const
    {
        blocksDecoded_.store(0, std::memory_order_relaxed);
    }
    /** @} */

    /**
     * Walk every block: bounds, CRC, full column decode, and (when
     * a zone map is present) zone-entry agreement with the decoded
     * min/max. @return true when the whole store is intact;
     * otherwise false with a diagnostic in @p detail when given.
     */
    bool verify(std::string *detail = nullptr) const;

    /** @return full scan: a QueryCursor over the default (match-all)
     *  filter. The reader must outlive it. */
    QueryCursor cursor() const;

  private:
    FeatureStoreReader() = default;

    friend class QueryCursor;
    /** Builds live snapshots: block scans and footer opens. */
    friend class LiveStoreReader;

    /**
     * Read block @p b off disk into @p raw and decode it into
     * columnar scratch. @return false with a diagnostic in
     * @p detail on corruption (CRC mismatch, bad column bytes,
     * shape skew). Thread-safe: all reader state touched is
     * immutable or atomic.
     */
    bool decodeBlock(std::size_t b, std::vector<std::uint8_t> &raw,
                     std::vector<std::vector<std::int64_t>> &ints,
                     std::vector<std::vector<double>> &dbls,
                     std::string *detail) const;

    /** Decode @p raw (already loaded block bytes) as block @p b. */
    bool decodeBlockBytes(
        std::size_t b, const std::uint8_t *raw,
        std::vector<std::vector<std::int64_t>> &ints,
        std::vector<std::vector<double>> &dbls,
        std::string *detail) const;

    /**
     * Tightest known iteration bounds of block @p b: the zone map's
     * min/max when present, else the index's first/last iteration
     * when the store is sorted (then they coincide with min/max).
     * @return false when no bound is known (v1 footer-backed
     * unsorted store) — the caller must decode the block.
     */
    bool blockIterBounds(std::size_t b, std::int64_t &lo,
                         std::int64_t &hi) const;

    /**
     * Open @p path (through @p file_factory when nonempty) and
     * validate the fixed header into this reader: format version,
     * block capacity, and the schema its column counts imply.
     * Shared by open(), salvage(), and live refreshes.
     * @return false with a diagnostic in @p error on failure;
     * @p absent (when given) then says whether the file is missing
     * or shorter than the header — a writer that has not put its
     * header down yet — rather than malformed or unreadable.
     */
    bool loadAndCheckHeader(const std::string &path,
                            std::string *error,
                            const store::ReadFileFactory &file_factory,
                            bool *absent = nullptr);

    /**
     * Read the trailer, then the footer it points at, and parse the
     * footer (parseFooter). Shared by open() and a live view that
     * finds its writer finished. @return false with a diagnostic in
     * @p error; @p untrailed (when given) then says whether the file
     * simply carries no trailer — too short for one, or no trailer
     * magic at its end: a footer that was never written — in which
     * case nothing was parsed into this reader.
     */
    bool loadFooter(std::string *error, bool *untrailed = nullptr);

    /**
     * The one footer parser. Validate the @p n footer bytes at
     * @p footer (CRC included, format.hh) for a data section ending
     * at @p data_end, the footer's own offset — blocks must tile
     * [header, data_end), counts must agree with each other and with
     * the loaded header — and fill the index, record count, sorted
     * flag (cross-checked against the block boundaries), and (v2+)
     * zone map; the recorded column names must be the schema's.
     * @return false with a diagnostic in @p error on any
     * malformation.
     */
    bool parseFooter(const std::uint8_t *footer, std::size_t n,
                     std::uint64_t data_end, std::string *error);

    /**
     * Begin an index built by scanning rather than from a footer
     * with the blocks, zone map, record count, and sorted flag of
     * @p prefix — a reader of the same file whose blocks are
     * already validated.
     */
    void startScan(const FeatureStoreReader &prefix);

    /**
     * The one forward block scan (format.hh: blocks are
     * self-delimiting and individually CRC'd). Reads [from, end)
     * once and, starting at @p from, accepts blocks while the bytes
     * there parse as a block that ends by @p end, pass its CRC, and
     * decode fully. Each accepted block is appended to the index and
     * zone map (rebuilt from the decoded columns, so pushdown works
     * over scanned stores of either version) and updates the record
     * count and sorted flag. The first bytes that fail any check
     * stop the scan: a torn block, the start of a footer, or garbage.
     * salvage() scans [header, EOF); a live view scans [its extent,
     * EOF - 1), so a block that ends at EOF waits for the byte after
     * it that commits it. @return false with a diagnostic in
     * @p error only when the read fails; otherwise @p stop is the end
     * of the last accepted block (@p from when none was).
     */
    bool scanBlocks(std::uint64_t from, std::uint64_t end,
                    std::uint64_t &stop, std::string *error);

    std::unique_ptr<store::ReadFile> file_;
    StoreSchema schema_;
    std::vector<store::BlockInfo> index;
    std::vector<store::BlockZone> zones_;
    std::uint32_t version_ = store::formatVersion;
    std::size_t records_ = 0;
    std::size_t capacity_ = 0;
    bool sorted_ = true;
    bool salvaged_ = false;
    std::size_t droppedTail_ = 0;
    mutable std::atomic<std::size_t> blocksDecoded_{0};
};

} // namespace tdfe

#endif // TDFE_STORE_READER_HH
