#include "par/store_merge.hh"

#include <cstdio>

#include "base/logging.hh"
#include "core/region.hh"
#include "par/comm.hh"
#include "store/reader.hh"

namespace tdfe
{

std::string
rankStorePath(const std::string &base, int rank, int world_size)
{
    if (world_size <= 1)
        return base;
    return base + ".rk" + std::to_string(rank);
}

namespace
{

/** The inputs of one store rewrite, in part order. */
struct RewriteInputs
{
    /** One reader per part; null when the part yielded nothing. */
    std::vector<std::unique_ptr<FeatureStoreReader>> readers;
    /** Part i opened through its footer with every block intact. */
    std::vector<bool> clean;
    /** Schema of the first readable part, shared by all of them. */
    const StoreSchema *schema = nullptr;

    void
    add(std::unique_ptr<FeatureStoreReader> r, bool was_clean)
    {
        if (r && !schema)
            schema = &r->schema();
        readers.push_back(std::move(r));
        clean.push_back(was_clean);
    }
};

/**
 * The open rule of the rank merge: I/O damage is salvaged (every
 * part goes through openOrSalvage, and a part that yields nothing is
 * skipped with a warning), a schema mismatch is a caller bug and
 * fatal, and so is having no readable part at all. Every part is
 * opened before the output is created, so a fatal input cannot leave
 * a half-written file behind.
 */
RewriteInputs
openParts(const std::vector<std::string> &parts)
{
    TDFE_ASSERT(!parts.empty(), "nothing to merge");
    RewriteInputs in;
    for (const std::string &p : parts) {
        std::string error;
        bool salvaged = false;
        auto r = FeatureStoreReader::openOrSalvage(p, &error, &salvaged);
        if (!r) {
            TDFE_WARN("merge: skipping part '", p, "': ", error);
        } else if (in.schema && r->schema() != *in.schema) {
            TDFE_FATAL("feature store schema mismatch in merge of ", p,
                       " (", r->schema().coeffCount, " vs ",
                       in.schema->coeffCount, " coefficient columns)");
        } else if (salvaged) {
            TDFE_WARN("merge: part '", p, "' damaged; salvaged ",
                      r->recordCount(), " records");
        }
        const bool clean = r && !salvaged;
        in.add(std::move(r), clean);
    }
    if (!in.schema)
        TDFE_FATAL("cannot merge feature store: no readable part among ",
                   parts.size(), " (first: ", parts.front(), ")");
    return in;
}

/**
 * The one copy loop: re-encode the parts of @p in into @p writer by
 * iteration-sorted k-way merge, repeatedly emitting the head record
 * with the smallest iteration, ties broken toward the lower part
 * index so equal-iteration records keep part order. Iteration-
 * sorted parts give an iteration-sorted output, so the footer's
 * sorted flag holds and range queries over it exit at the first
 * block past their window. A linear min-scan over the heads is
 * plenty: parts are ranks, and re-encoding each record dwarfs the
 * scan.
 */
void
copyParts(const RewriteInputs &in, FeatureStoreWriter &writer)
{
    struct Head
    {
        QueryCursor cur;
        FeatureRecord rec;
        bool live = false;
        explicit Head(QueryCursor c) : cur(std::move(c)) { advance(); }
        void advance() { live = cur.next(rec); }
    };
    std::vector<Head> heads;
    for (const auto &reader : in.readers)
        if (reader)
            heads.emplace_back(reader->cursor());

    for (;;) {
        Head *best = nullptr;
        for (Head &h : heads)
            if (h.live &&
                (!best || h.rec.iteration < best->rec.iteration))
                best = &h;
        if (!best)
            break;
        writer.append(best->rec);
        best->advance();
    }
}

/** copyParts into a new store at @p out_path; fatal when it cannot
 *  be written. @return records written. */
std::size_t
rewriteParts(const RewriteInputs &in, const std::string &out_path,
             const StoreOptions &options)
{
    FeatureStoreWriter writer(out_path, *in.schema, options);
    copyParts(in, writer);
    const std::size_t records = writer.recordCount();
    if (writer.finish() == 0)
        TDFE_FATAL("cannot write feature store ", out_path, ": ",
                   writer.status().message);
    return records;
}

} // namespace

std::size_t
mergeRankStores(const std::vector<std::string> &parts,
                const std::string &out_path,
                const StoreOptions &options)
{
    return rewriteParts(openParts(parts), out_path, options);
}

bool
salvageStore(const std::string &src, const std::string &dst,
             SalvageReport &report)
{
    report = SalvageReport();
    RewriteInputs in;
    in.add(FeatureStoreReader::salvage(src, &report.error), false);
    const FeatureStoreReader *reader = in.readers.front().get();
    if (!reader)
        return false;
    report.blocks = reader->blockCount();
    report.droppedBytes = reader->droppedTailBytes();

    // Re-encode at the source's block capacity so a store that was
    // merely truncated round-trips byte-identically to the honest
    // prefix (same blocks, same codecs, same footer).
    StoreOptions options;
    options.blockCapacity = reader->blockCapacity();
    FeatureStoreWriter writer(dst, *in.schema, options);
    copyParts(in, writer);
    report.records = writer.recordCount();
    report.bytes = writer.finish();
    if (!writer.ok()) {
        report.error =
            "cannot write " + dst + ": " + writer.status().message;
        return false;
    }
    return true;
}

std::unique_ptr<FeatureStoreWriter>
attachRankStore(Region &region, const std::string &base,
                std::size_t coeff_count, const StoreOptions &options,
                Communicator *comm)
{
    StoreSchema schema;
    schema.coeffCount = coeff_count;
    auto store = std::make_unique<FeatureStoreWriter>(
        rankStorePath(base, comm ? comm->rank() : 0,
                      comm ? comm->size() : 1),
        schema, options);
    region.setFeatureStore(store.get());
    return store;
}

std::size_t
finishRankStore(Region &region,
                std::unique_ptr<FeatureStoreWriter> store,
                const std::string &base, Communicator *comm,
                const RankMergeOptions &merge_options)
{
    TDFE_ASSERT(store, "finishRankStore needs an attached store");
    region.setFeatureStore(nullptr);
    const std::size_t bytes = store->finish();
    if (comm && comm->size() > 1) {
        // All parts on disk before rank 0 concatenates them; the
        // exit barrier keeps the merged file complete before any
        // rank returns to the caller.
        comm->barrier();
        if (comm->rank() == 0) {
            std::vector<std::string> parts;
            for (int r = 0; r < comm->size(); ++r)
                parts.push_back(
                    rankStorePath(base, r, comm->size()));
            const RewriteInputs in = openParts(parts);
            rewriteParts(in, base, merge_options.storeOptions);
            if (!merge_options.keepParts) {
                // Only parts that merged cleanly are disposable;
                // salvaged or skipped ones are the sole surviving
                // evidence of what that rank recorded.
                for (std::size_t i = 0; i < parts.size(); ++i) {
                    if (in.clean[i])
                        std::remove(parts[i].c_str());
                    else
                        TDFE_INFORM("keeping damaged part '", parts[i],
                                    "' for post-mortem");
                }
            }
        }
        comm->barrier();
    }
    return bytes;
}

} // namespace tdfe
