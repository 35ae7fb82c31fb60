#include "par/store_merge.hh"

#include <cstdio>
#include <limits>

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

MergePolicy
parseMergePolicy(const std::string &name)
{
    if (name == "fail")
        return MergePolicy::Fail;
    if (name == "skip")
        return MergePolicy::Skip;
    TDFE_FATAL("unknown store merge policy '", name,
               "' (expected fail or skip)");
}

std::size_t
mergeRankStores(const std::vector<std::string> &parts,
                const std::string &out_path,
                const StoreOptions &options, MergePolicy policy,
                MergeReport *report)
{
    TDFE_ASSERT(!parts.empty(), "nothing to merge");

    // Open every part before creating the output so a bad input
    // cannot leave a half-written merged file behind. Under Skip a
    // damaged part falls back to the salvage scan, and a part that
    // yields nothing (or the wrong schema) merges as zero records.
    std::vector<std::unique_ptr<FeatureStoreReader>> readers;
    MergeReport local_report;
    MergeReport &rep = report ? *report : local_report;
    rep.parts.clear();
    const StoreSchema *schema = nullptr;
    for (const std::string &p : parts) {
        MergeReport::Part part;
        part.path = p;
        std::string error;
        std::unique_ptr<FeatureStoreReader> r;
        if (policy == MergePolicy::Fail) {
            r = FeatureStoreReader::open(p, &error);
            if (!r)
                TDFE_FATAL("cannot merge feature store: ", error);
        } else {
            r = FeatureStoreReader::openOrSalvage(p, &error,
                                                  &part.salvaged);
            if (!r) {
                part.skipped = true;
                part.detail = error;
            }
        }
        if (r && schema && r->schema() != *schema) {
            if (policy == MergePolicy::Fail) {
                TDFE_FATAL("feature store schema mismatch merging ",
                           p, " (", r->schema().coeffCount, " vs ",
                           schema->coeffCount,
                           " coefficient columns)");
            }
            part.skipped = true;
            part.salvaged = false;
            part.detail = "schema mismatch (" +
                          std::to_string(r->schema().coeffCount) +
                          " vs " +
                          std::to_string(schema->coeffCount) +
                          " coefficient columns)";
            r.reset();
        }
        if (r) {
            if (!schema)
                schema = &r->schema();
            part.records = r->recordCount();
            if (part.salvaged) {
                part.detail = "salvaged " +
                              std::to_string(r->recordCount()) +
                              " records";
                TDFE_WARN("merge: part '", p, "' damaged; ",
                          part.detail);
            }
        } else {
            TDFE_WARN("merge: skipping part '", p, "': ",
                      part.detail);
        }
        readers.push_back(std::move(r));
        rep.parts.push_back(std::move(part));
    }
    if (!schema)
        TDFE_FATAL("cannot merge feature store: no readable part ",
                   "among ", parts.size(), " (first: ", parts.front(),
                   ")");

    // Iteration-sorted k-way merge: repeatedly emit the head record
    // with the smallest iteration, ties broken toward the lower
    // part (rank) index so equal-iteration records keep rank order.
    // Every part a rank writes is iteration-sorted, so the merged
    // store keeps the footer's sorted flag, and iteration-range
    // queries over it exit at the first block past their window. A
    // linear min-scan over the heads is plenty: parts = world size,
    // and re-encoding each record dwarfs the scan.
    struct Head
    {
        QueryCursor cur;
        FeatureRecord rec;
        bool live;
        Head(QueryCursor c) : cur(std::move(c))
        {
            live = cur.next(rec);
        }
    };
    std::vector<Head> heads;
    for (const auto &r : readers)
        if (r)
            heads.emplace_back(r->cursor());

    FeatureStoreWriter writer(out_path, *schema, options);
    for (;;) {
        Head *best = nullptr;
        for (Head &h : heads)
            if (h.live &&
                (!best || h.rec.iteration < best->rec.iteration))
                best = &h;
        if (!best)
            break;
        writer.append(best->rec);
        best->live = best->cur.next(best->rec);
    }
    const std::size_t merged = writer.recordCount();
    if (writer.finish() == 0)
        TDFE_FATAL("cannot write merged feature store ", out_path,
                   ": ", writer.status().message);
    return merged;
}

std::size_t
stitchSegmentStores(const std::vector<std::string> &parts,
                    const std::string &out_path,
                    const StoreOptions &options)
{
    TDFE_ASSERT(!parts.empty(), "nothing to stitch");

    // Crashed attempts die without sealing their segment, so every
    // segment goes through the salvage path; a segment that decodes
    // nothing at all (e.g. the crash hit before the first block
    // sealed) is skipped, not fatal — the next attempt re-recorded
    // its records anyway.
    std::vector<std::unique_ptr<FeatureStoreReader>> readers;
    const StoreSchema *schema = nullptr;
    for (const std::string &p : parts) {
        std::string error;
        bool salvaged = false;
        std::unique_ptr<FeatureStoreReader> r =
            FeatureStoreReader::openOrSalvage(p, &error, &salvaged);
        if (!r) {
            TDFE_WARN("stitch: skipping segment '", p, "': ", error);
        } else if (schema && r->schema() != *schema) {
            TDFE_WARN("stitch: skipping segment '", p,
                      "': schema mismatch");
            r.reset();
        } else if (!schema) {
            schema = &r->schema();
        }
        readers.push_back(std::move(r));
    }
    if (!schema)
        TDFE_FATAL("cannot stitch feature store: no readable segment ",
                   "among ", parts.size(), " (first: ", parts.front(),
                   ")");

    // Segment k's cutoff = the smallest first iteration any later
    // segment recorded: everything from there on was re-recorded by
    // a resumed attempt, which is the authoritative copy. One
    // backward pass carries that minimum, so a readable-but-empty
    // segment (crash before its first block sealed) is transparent
    // — it neither resets the cutoff of the segments before it (the
    // old chaining bug, which duplicated the overlap) nor blocks a
    // later segment's cutoff from reaching them.
    const long no_cutoff = std::numeric_limits<long>::max();
    std::vector<long> cutoff(readers.size(), no_cutoff);
    FeatureRecord rec;
    long next_first = no_cutoff;
    for (std::size_t i = readers.size(); i-- > 0;) {
        if (!readers[i])
            continue;
        cutoff[i] = next_first;
        QueryCursor c = readers[i]->cursor();
        if (c.next(rec) && rec.iteration < next_first)
            next_first = rec.iteration;
    }

    FeatureStoreWriter writer(out_path, *schema, options);
    for (std::size_t i = 0; i < readers.size(); ++i) {
        if (!readers[i])
            continue;
        QueryCursor c = readers[i]->cursor();
        while (c.next(rec)) {
            if (rec.iteration >= cutoff[i])
                break;
            writer.append(rec);
        }
    }
    const std::size_t stitched = writer.recordCount();
    if (writer.finish() == 0)
        TDFE_FATAL("cannot write stitched feature store ", out_path,
                   ": ", writer.status().message);
    return stitched;
}

bool
salvageStore(const std::string &src, const std::string &dst,
             SalvageReport &report)
{
    report = SalvageReport();
    const auto reader = FeatureStoreReader::salvage(src, &report.error);
    if (!reader)
        return false;
    report.blocks = reader->blockCount();
    report.droppedBytes = reader->droppedTailBytes();

    // Re-encode at the source's block capacity so a store that was
    // merely truncated round-trips byte-identically to the honest
    // prefix (same blocks, same codecs, same footer).
    StoreOptions options;
    options.blockCapacity = reader->blockCapacity();
    FeatureStoreWriter writer(dst, reader->schema(), options);
    FeatureRecord rec;
    QueryCursor c = reader->cursor();
    while (c.next(rec))
        writer.append(rec);
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
            MergeReport report;
            mergeRankStores(parts, base, merge_options.storeOptions,
                            merge_options.policy, &report);
            if (!merge_options.keepParts) {
                // Only parts that merged cleanly are disposable;
                // skipped or salvaged ones are the sole surviving
                // evidence of what that rank recorded.
                for (const MergeReport::Part &p : report.parts) {
                    if (p.skipped || p.salvaged) {
                        TDFE_INFORM("keeping part '", p.path,
                                    "' for post-mortem (",
                                    p.skipped ? "skipped"
                                              : "salvaged",
                                    ")");
                        continue;
                    }
                    std::remove(p.path.c_str());
                }
            }
        }
        comm->barrier();
    }
    return bytes;
}

} // namespace tdfe
