/**
 * @file
 * Rank-decomposed feature-store plumbing: every rank of a
 * decomposed run writes its own store file (one writer per rank —
 * the store is single-producer), and after the run the per-rank
 * parts are merged into one store by an iteration-sorted k-way
 * merge (ties in rank order, so equal-iteration records still read
 * like concatenated per-rank logs). Each part is iteration-sorted,
 * so the merged file is too: it keeps the footer's sorted flag,
 * and iteration-range queries stop at the first block past their
 * window like on any single-rank store.
 *
 * Failure semantics: the merge is policy-driven. MergePolicy::Fail
 * keeps the historical behavior (any unreadable part is fatal);
 * MergePolicy::Skip treats each part independently — a part that
 * fails to open is re-tried through the reader's salvage scan, and
 * only what genuinely decodes ends up in the merged store, with a
 * MergeReport saying exactly what was dropped. One dead rank no
 * longer destroys the whole campaign's output.
 */

#ifndef TDFE_PAR_STORE_MERGE_HH
#define TDFE_PAR_STORE_MERGE_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "store/writer.hh"

namespace tdfe
{

class Communicator;
class Region;

/**
 * Per-rank store path: @p base itself for single-rank worlds,
 * otherwise "<base>.rk<rank>" so ranks of one world never collide.
 */
std::string rankStorePath(const std::string &base, int rank,
                          int world_size);

/** What mergeRankStores does with a part that cannot be read. */
enum class MergePolicy
{
    /** Any unreadable/mismatched part is fatal (strict default). */
    Fail,
    /** Salvage what decodes, skip the rest, report per part. */
    Skip,
};

/** Parse "fail" / "skip" (CLI plumbing). Fatal on other values. */
MergePolicy parseMergePolicy(const std::string &name);

/** Per-part outcome of a policy-driven merge. */
struct MergeReport
{
    struct Part
    {
        std::string path;
        /** Records merged from this part. */
        std::size_t records = 0;
        /** True when the part was recovered via the salvage scan
         *  instead of its footer. */
        bool salvaged = false;
        /** True when the part contributed nothing (unreadable or
         *  schema mismatch); @c detail says why. */
        bool skipped = false;
        std::string detail;
    };

    std::vector<Part> parts;

    /** @return parts that were skipped or salvaged (i.e. the merge
     *  was lossy somewhere). */
    std::size_t
    degradedParts() const
    {
        std::size_t n = 0;
        for (const Part &p : parts)
            if (p.skipped || p.salvaged)
                ++n;
        return n;
    }
};

/**
 * Merge the store files @p parts into @p out_path by iteration-
 * sorted k-way merge (ties toward the lower part index). All parts
 * must share one schema; records are re-encoded, so the merged
 * file uses @p options' block capacity — and stays iteration-
 * sorted (queryable by block index) as long as every part is.
 *
 * Under MergePolicy::Fail any unreadable part or schema mismatch is
 * fatal (and the output is never created — all parts are opened
 * first). Under MergePolicy::Skip a damaged part is salvaged
 * (sealed-block prefix) or, when nothing survives, skipped; the
 * per-part outcomes land in @p report when given, and skipped parts
 * are warned about. Fatal under both policies only when no part
 * yields a schema to write (nothing to merge at all).
 *
 * @return records in the merged store.
 */
std::size_t mergeRankStores(const std::vector<std::string> &parts,
                            const std::string &out_path,
                            const StoreOptions &options =
                                StoreOptions(),
                            MergePolicy policy = MergePolicy::Fail,
                            MergeReport *report = nullptr);

/**
 * App-harness helper: create this rank's store at
 * rankStorePath(@p base, rank, size) with @p coeff_count
 * coefficient columns and attach it as @p region's feature sink
 * (register every analysis first). @p comm may be null (single
 * rank). @p options carries the block capacity and the durability
 * policy.
 */
std::unique_ptr<FeatureStoreWriter>
attachRankStore(Region &region, const std::string &base,
                std::size_t coeff_count, const StoreOptions &options,
                Communicator *comm);

/** Knobs of finishRankStore's merge step. */
struct RankMergeOptions
{
    /** How the rank-0 merge treats unreadable parts. */
    MergePolicy policy = MergePolicy::Fail;
    /** Keep the per-rank part files after a successful merge (the
     *  --store-keep-parts escape hatch; parts that failed to merge
     *  under Skip are always kept for post-mortem). */
    bool keepParts = false;
    /** Writer options of the merged output file (block capacity,
     *  durability). Callers pass the same options they gave
     *  attachRankStore so the merged store honors the run's
     *  --store-durability flag instead of silently reverting to
     *  defaults. */
    StoreOptions storeOptions;
};

/**
 * Stitch per-attempt store segments of a crash/resume run (oldest
 * first) into one store at @p out_path. Each segment is one
 * attempt's output; crashed attempts leave footerless segments, so
 * every segment is opened through the salvage scan. Because a
 * resumed attempt restarts from its checkpoint, the tail of segment
 * k overlaps the head of segment k+1 — segment k contributes only
 * records with iteration strictly below segment k+1's first
 * recorded iteration, which makes the stitched store record-equal
 * to an uninterrupted run's (modulo wallTime, which is measured
 * per attempt). Unreadable segments are skipped with a warning;
 * fatal only when no segment yields a schema.
 *
 * @return records in the stitched store.
 */
std::size_t stitchSegmentStores(const std::vector<std::string> &parts,
                                const std::string &out_path,
                                const StoreOptions &options =
                                    StoreOptions());

/** What salvageStore recovered. */
struct SalvageReport
{
    std::size_t records = 0;      ///< records written to the output
    std::size_t blocks = 0;       ///< source blocks the scan recovered
    std::size_t droppedBytes = 0; ///< damaged/trailing bytes dropped
    std::size_t bytes = 0;        ///< output store bytes
    std::string error;            ///< why it failed (empty: success)
};

/**
 * Recover what the damaged store at @p src still holds
 * (FeatureStoreReader::salvage) and re-encode it into a clean store
 * at @p dst, at the source's block capacity, so a store that was
 * merely truncated round-trips byte-identically to its honest
 * prefix. Shared by td_store_salvage and `tdfstool recover`.
 * @return false with the reason in report.error when not even the
 * source header survives or the output cannot be written.
 */
bool salvageStore(const std::string &src, const std::string &dst,
                  SalvageReport &report);

/**
 * Counterpart of attachRankStore, for when the run (and every
 * region query — queries drain pending appends) is over: detach
 * the sink, finish this rank's part, and under a multi-rank
 * @p comm merge all parts into @p base on rank 0 (rank order),
 * with barriers so the merged store is complete before any rank
 * returns. Cleanly merged parts are removed unless @p merge_options
 * says to keep them; parts skipped under MergePolicy::Skip are
 * always left on disk (and reported) so a post-mortem can still
 * read them.
 *
 * @return bytes of this rank's part file (0 when this rank's
 *         writer degraded — see FeatureStoreWriter::finish()).
 */
std::size_t finishRankStore(Region &region,
                            std::unique_ptr<FeatureStoreWriter> store,
                            const std::string &base,
                            Communicator *comm,
                            const RankMergeOptions &merge_options =
                                RankMergeOptions());

} // namespace tdfe

#endif // TDFE_PAR_STORE_MERGE_HH
