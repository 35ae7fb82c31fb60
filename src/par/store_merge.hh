/**
 * @file
 * Rank-decomposed feature-store plumbing and the two store rewrites.
 * Every rank of a decomposed run writes its own store file (one
 * writer per rank — the store is single-producer), and after the
 * run the per-rank parts are merged into one store; a damaged store
 * is salvaged into a clean one. A crash/resume run needs no rewrite:
 * each rank's part resumes in place (FeatureStoreWriter::resume).
 *
 * Both rewrites re-encode through one copy loop, an iteration-sorted
 * k-way merge (ties toward the lower part index, so equal-iteration
 * records still read like concatenated per-part logs). Iteration-
 * sorted parts give an iteration-sorted output: it keeps the
 * footer's sorted flag, and iteration-range queries stop at the
 * first block past their window like on any single store.
 *
 * The merge's damage rule: I/O damage is salvaged — every part is
 * opened through FeatureStoreReader::openOrSalvage, so a damaged
 * part contributes its sealed-block prefix, and a part that yields
 * nothing is skipped with a warning. A schema mismatch is a caller
 * bug and fatal. The merge is fatal otherwise only when no part is
 * readable or the output cannot be written — one degraded rank does
 * not take the run down.
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

/**
 * Merge the store files @p parts into @p out_path by the iteration-
 * sorted k-way copy (ties toward the lower part index), under the
 * damage rule in the file comment: a damaged part merges its
 * salvaged prefix, an unreadable one is skipped with a warning, and
 * a schema mismatch is fatal, as is having no readable part or an
 * unwritable output. All parts are opened before the output is
 * created. Records are re-encoded, so the merged file uses
 * @p options' block capacity — and stays iteration-sorted
 * (queryable by block index) as long as every part is.
 *
 * @return records in the merged store.
 */
std::size_t mergeRankStores(const std::vector<std::string> &parts,
                            const std::string &out_path,
                            const StoreOptions &options =
                                StoreOptions());

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
    /** Keep every per-rank part file after the merge (the
     *  --store-keep-parts escape hatch; parts that were salvaged or
     *  skipped are always kept for post-mortem). */
    bool keepParts = false;
    /** Writer options of the merged output file (block capacity,
     *  durability). Callers pass the same options they gave
     *  attachRankStore so the merged store honors the run's
     *  --store-durability flag instead of silently reverting to
     *  defaults. */
    StoreOptions storeOptions;
};

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
 * prefix. Writes through the merge's copy loop. Shared by
 * td_store_salvage and `tdfstool recover`.
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
 * returns. A degraded rank's part merges what it sealed and does
 * not abort the run (mergeRankStores' damage rule). Cleanly merged
 * parts are removed unless @p merge_options says to keep them;
 * salvaged or skipped parts are always left on disk so a
 * post-mortem can still read them. A run that will resume must not
 * come here: it seals its part with FeatureStoreWriter::finish and
 * keeps it for the resume.
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
