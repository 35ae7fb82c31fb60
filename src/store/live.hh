/**
 * @file
 * Crash-consistent live reads: snapshot-isolated views over a store
 * that is still being written. The writer republishes a CRC-framed
 * manifest sidecar after sealed blocks (see manifest.hh); a
 * LiveStoreReader follows those publications and turns each one it
 * accepts into an immutable snapshot — a FeatureStoreReader over
 * exactly the manifest's sealed prefix, built from the footer the
 * manifest embeds by the same parser open() runs on a finished
 * store's footer. A StoreView pins one snapshot (shared ownership),
 * so everything the read side already knows how to do — cursors,
 * the full query engine with zone-map pushdown — runs unchanged
 * against a view while the writer keeps appending: the view simply
 * never describes the unsealed tail.
 *
 * Consistency model (names_view / names_commit style): refresh()
 * either adopts a whole newer manifest or keeps the current
 * snapshot untouched — there is no intermediate state. Adoption is
 * defended in depth: the manifest frame is CRC-checked, the data
 * file's header must pass the same check open() and salvage()
 * apply, the data file must be at least as long as the prefix the
 * manifest claims, the embedded footer must pass open()'s footer
 * validation against that prefix, the previously adopted blocks
 * must reappear unchanged, and every *newly indexed* block is
 * CRC-checked and fully decoded before the snapshot is published
 * (blocks already covered by the previous snapshot are immutable
 * and were validated when first adopted). A lying kernel that tears
 * the data file while manifests keep arriving therefore cannot
 * produce a view with a torn record — the refresh is rejected and
 * the reader keeps serving its last good snapshot.
 *
 * Degradation model: nothing here is fatal. A missing manifest, a
 * torn or unsupported frame, a corrupt data-file header, an
 * injected read fault, a manifest ahead of the data file — all
 * reject one refresh and leave the previous snapshot serving. A
 * writer that stops publishing trips the stall deadline and the
 * reader degrades to a static terminal view: the store's
 * footer if the writer actually finished (Final), else the best
 * salvage-consistent prefix it can prove (WriterLost). Mirrors the
 * Region::setCommDeadline discipline — a dead peer degrades the
 * consumer, never kills it.
 *
 * Threading: refresh()/waitForAdvance() must come from one thread
 * (the poll loop); view()/state()/generation() are safe from any
 * thread, and the snapshots themselves are immutable, so any number
 * of threads may hold views and run cursors concurrently.
 */

#ifndef TDFE_STORE_LIVE_HH
#define TDFE_STORE_LIVE_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "store/query.hh"
#include "store/reader.hh"

namespace tdfe
{

/** Knobs of one live reader. */
struct LiveViewOptions
{
    /** How data-file and manifest reads are opened (empty: OS
     *  files). Fault plans injected here exercise every reject /
     *  keep-last-snapshot path. */
    store::ReadFileFactory fileFactory;
    /** waitForAdvance backoff: first sleep, doubling per idle poll
     *  up to the cap. @{ */
    int pollMinUs = 500;
    int pollMaxUs = 50000;
    /** @} */
    /** Seconds without an accepted advance before waitForAdvance
     *  declares the writer lost and degrades to a static view
     *  (<= 0: wait forever). */
    double stallDeadlineSeconds = 30.0;
};

/** Lifecycle of a live reader. */
enum class LiveState
{
    /** No snapshot yet (no manifest has ever been accepted). */
    Waiting,
    /** Following a writer that may still publish. */
    Live,
    /** Writer finished (final manifest or intact footer); the
     *  current snapshot is the whole store. */
    Final,
    /** Stall deadline tripped without a final manifest: the current
     *  snapshot is a static salvage-consistent prefix and will
     *  never advance. */
    WriterLost,
};

/** @return human-readable name of @p s (logs, tools). */
const char *liveStateName(LiveState s);

struct LiveSnapshot;

/**
 * A pinned snapshot: one immutable sealed prefix of the store.
 * Copyable; copies share the pin. The underlying reader stays valid
 * for as long as any view holds it, regardless of what the writer
 * or later refreshes do.
 */
class StoreView
{
  public:
    /** Invalid view (reader() is fatal until assigned). */
    StoreView() = default;

    /** @return true when this view pins a snapshot. */
    bool valid() const { return snap_ != nullptr; }

    /** @return the pinned reader (fatal on an invalid view — pin
     *  before use is the caller contract). A QueryCursor over it
     *  behaves exactly as on a finished store. */
    const FeatureStoreReader &reader() const;

    /** @return manifest generation this view pins (0: invalid). */
    std::uint64_t generation() const;

    /** @return true when the writer declared this the last
     *  generation (clean finish or degraded finish). */
    bool final() const;

    /** @return true when the writer finished degraded — the store
     *  holds only a partial trace (the view itself is still fully
     *  consistent). */
    bool degraded() const;

    /** Conveniences over reader(). @{ */
    std::size_t recordCount() const;
    std::size_t blockCount() const;
    /** @} */

  private:
    friend class LiveStoreReader;
    explicit StoreView(std::shared_ptr<const LiveSnapshot> snap)
        : snap_(std::move(snap))
    {
    }

    std::shared_ptr<const LiveSnapshot> snap_;
};

/**
 * Follows the live manifest of one store. Construct, then poll:
 * refresh() makes one adopt-or-reject attempt, waitForAdvance()
 * wraps it in the backoff/stall loop. view() pins the current
 * snapshot at any time (an invalid view before the first accept).
 */
class LiveStoreReader
{
  public:
    explicit LiveStoreReader(std::string store_path,
                             LiveViewOptions options = LiveViewOptions());

    LiveStoreReader(const LiveStoreReader &) = delete;
    LiveStoreReader &operator=(const LiveStoreReader &) = delete;

    /** @return store path this reader follows. */
    const std::string &path() const { return path_; }

    /** @return true once any snapshot has been adopted. */
    bool attached() const { return generation() != 0; }

    /** @return lifecycle state (safe from any thread). */
    LiveState
    state() const
    {
        return state_.load(std::memory_order_acquire);
    }

    /** @return newest adopted generation (0 before the first). */
    std::uint64_t
    generation() const
    {
        return generation_.load(std::memory_order_acquire);
    }

    /** @return pin on the current snapshot (invalid before the
     *  first accepted manifest). Safe from any thread. */
    StoreView view() const;

    /**
     * One poll: read the manifest sidecar, validate, adopt if it is
     * a newer generation. Never blocks beyond the I/O itself and
     * never throws away a good snapshot — every failure (missing,
     * torn, or unsupported manifest, corrupt data-file header, data
     * file shorter than claimed, a newly indexed block that fails
     * CRC/decode, injected read fault)
     * rejects this attempt and keeps the previous snapshot serving.
     * Falls back to a footer-backed Final snapshot when no manifest
     * exists but the store is complete (a pre-live or cleaned-up
     * store). @return true when the view advanced.
     */
    bool refresh();

    /**
     * Poll with bounded exponential backoff until the view
     * advances, the store settles, or the stall deadline trips.
     * @param timeout_seconds give up (without degrading) after this
     *        long (< 0: bounded only by the stall deadline).
     * @return true when the view advanced; false when the reader is
     *         Final/WriterLost (nothing further will arrive) or the
     *         timeout expired.
     */
    bool waitForAdvance(double timeout_seconds = -1.0);

    /** @return refresh attempts rejected by validation since
     *  construction (torn manifests, short data files, bad blocks —
     *  the observable the fault tests assert on). */
    std::uint64_t
    refreshRejects() const
    {
        return rejects_.load(std::memory_order_acquire);
    }

    /** @return diagnostic of the most recent rejected refresh
     *  (empty when none was ever rejected). */
    std::string lastError() const;

  private:
    /** Validate the @p n-byte manifest payload @p payload of
     *  @p generation (manifest.hh) against the data file — header
     *  check, footer parse over the sealed extent, prefix
     *  immutability, new-block decode — and adopt it as the new
     *  snapshot. @return false (with the reason in @p why) when
     *  validation rejects it. */
    bool adopt(std::uint64_t generation, const std::uint8_t *payload,
               std::size_t n, std::string *why);

    /** Terminal degrade after a stall: footer-backed Final when the
     *  writer actually finished, else the best salvage-consistent
     *  static prefix (WriterLost). Never loses adopted records. */
    void degradeToStatic();

    /** Record a rejected refresh (sticky diagnostic + counter). */
    void rejectRefresh(const std::string &why);

    /** Publish @p snap as the current snapshot. */
    void publish(std::shared_ptr<const LiveSnapshot> snap,
                 LiveState state);

    std::string path_;
    LiveViewOptions opts_;

    mutable std::mutex mutex_; ///< guards snap_ and lastError_
    std::shared_ptr<const LiveSnapshot> snap_;
    std::string lastError_;

    std::atomic<LiveState> state_{LiveState::Waiting};
    std::atomic<std::uint64_t> generation_{0};
    std::atomic<std::uint64_t> rejects_{0};

    /** Last accepted advance (stall-deadline clock; poll-thread
     *  only). */
    std::chrono::steady_clock::time_point lastAdvance_;
};

/**
 * Streaming tail over a live reader: yields every record the store
 * seals, in store order, exactly once, across any number of
 * snapshot advances — the consumer behind `tdfstool tail` and the
 * live dashboard. Blocks are immutable once sealed and newer
 * snapshots only append whole blocks, so each new snapshot is
 * scanned by a QueryCursor that starts at the first block the tail
 * has not consumed. The filter runs inside that cursor, so blocks
 * its zone map or iteration bounds rule out are never decoded for
 * records (adoption still validates every new block once).
 *
 * next() is non-blocking: false means "drained for now" — the
 * caller decides how to wait (typically LiveStoreReader::
 * waitForAdvance) and retries. done() reports when the stream can
 * never produce again. Single-threaded, like the QueryCursor it
 * drives.
 */
class TailCursor
{
  public:
    /** Tail @p live, yielding only records matching @p filter
     *  (default: everything). The live reader must outlive the
     *  cursor. */
    explicit TailCursor(LiveStoreReader &live,
                        EventFilter filter = EventFilter());

    /**
     * Decode the next matching sealed record into @p out.
     * @return true when a record was produced; false when every
     * sealed record visible so far has been consumed (retry after
     * the view advances).
     */
    bool next(FeatureRecord &out);

    /** @return true when the stream is over: the reader reached
     *  Final or WriterLost and every sealed record was consumed. */
    bool done() const;

    /** @return records delivered through next(). */
    std::size_t recordsDelivered() const { return delivered_; }

  private:
    LiveStoreReader *live_;
    EventFilter filter_;
    StoreView view_;
    /** Scan of view_ (absent before the first pin). */
    std::optional<QueryCursor> cursor_;
    std::size_t blocksConsumed_ = 0;
    std::size_t delivered_ = 0;
    bool drained_ = false;
};

} // namespace tdfe

#endif // TDFE_STORE_LIVE_HH
