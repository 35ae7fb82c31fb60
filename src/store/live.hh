/**
 * @file
 * Crash-consistent live reads: snapshot-isolated views over a store
 * that is still being written. The data file is its own live log:
 * blocks are self-delimiting and individually CRC'd (format.hh), so
 * a LiveStoreReader follows the file itself. Each refresh scans only
 * the bytes past the blocks it has already adopted and turns the
 * result into an immutable snapshot — a FeatureStoreReader over
 * exactly the adopted blocks, built by the same block scan salvage()
 * runs. A StoreView pins one snapshot (shared ownership), so
 * everything the read side already knows how to do — cursors, the
 * full query engine with zone-map pushdown — runs unchanged against
 * a view while the writer keeps appending: the view simply never
 * describes the unadopted tail.
 *
 * The commit rule: a block counts as sealed once the file holds at
 * least one byte past its end — the next block's first bytes, or the
 * footer. The writer starts block k+1 only after block k's write and
 * durability step succeeded, and a retry or degrade cuts the file
 * back only to the start of the write in flight, so a block with
 * bytes after it is never cut: a view never shows a record the
 * writer can take back, under every durability policy. A block
 * becomes visible when the policy pushes the bytes after it to the
 * kernel — at every seal under flush and fsync, whenever stdio
 * writes its buffer out under none.
 *
 * Consistency model (names_view / names_commit style): refresh()
 * either adopts a newer snapshot or keeps the current one untouched
 * — there is no intermediate state. Every newly adopted block is
 * structurally walked, CRC-checked, and fully decoded before the
 * snapshot is published; blocks adopted earlier are immutable and
 * are neither re-read nor re-checked, so a refresh reads only the
 * new bytes plus the header check and the trailer probe. Once the
 * trailer and footer are there, the footer-backed store is adopted
 * as the Final snapshot, after checking that it repeats the adopted
 * blocks unchanged.
 *
 * Degradation model: nothing here is fatal. A corrupt data-file
 * header, an injected read fault, a file shorter than the adopted
 * blocks, a footer that contradicts them — all reject one refresh
 * and leave the previous snapshot serving. A writer that stops
 * extending its file (finished without a footer, degraded, or
 * killed) trips the stall deadline and the reader degrades to a
 * static terminal view: the store's footer if the writer actually
 * finished (Final), else the salvage prefix (WriterLost). Mirrors
 * the Region::setCommDeadline discipline — a dead peer degrades the
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
    /** How data-file reads are opened (empty: OS files). Fault
     *  plans injected here exercise every reject /
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
    /** No snapshot yet (the data file or its header is not there
     *  yet). */
    Waiting,
    /** Following a writer that may still append. */
    Live,
    /** Writer finished (intact footer); the current snapshot is the
     *  whole store. */
    Final,
    /** Stall deadline tripped without a footer: the current
     *  snapshot is a static salvage-consistent prefix (the writer
     *  degraded or died) and will never advance. */
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

    /** @return generation this view pins: the count of snapshots
     *  its reader had adopted when it was taken (0: invalid). */
    std::uint64_t generation() const;

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
 * Follows the data file of one store. Construct, then poll:
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

    /** @return snapshots adopted so far: the generation of the
     *  newest one (0 before the first). */
    std::uint64_t
    generation() const
    {
        return generation_.load(std::memory_order_acquire);
    }

    /** @return pin on the current snapshot (invalid before the
     *  first adoption). Safe from any thread. */
    StoreView view() const;

    /**
     * One poll: check the data file's header, probe its trailer, and
     * adopt what it newly holds — never blocking beyond the I/O
     * itself and never throwing away a good snapshot:
     *  - a missing file, or one shorter than the header, before the
     *    first adoption: Waiting, no advance (not a reject);
     *  - a header that fails the check, a file shorter than the
     *    adopted blocks, a read fault: reject;
     *  - a valid trailer and footer: a footer-backed Final snapshot
     *    (reject when the footer does not repeat the adopted blocks,
     *    or one of its new blocks fails CRC/decode);
     *  - anything else: scan the bytes past the adopted blocks up to
     *    EOF - 1 and publish a Live snapshot of every block that
     *    scans (the first poll over a header-only file attaches an
     *    empty one).
     * @return true when the view advanced.
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
     *  construction (bad headers, shrunk data files, read faults —
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
    /** Adopt the footer-backed store @p r as the Final snapshot
     *  after @p prev (null: none). @return false (with the reason
     *  in @p why) when the footer contradicts the adopted blocks or
     *  a new block fails to decode. */
    bool adoptFinal(std::unique_ptr<FeatureStoreReader> r,
                    const FeatureStoreReader *prev, std::string *why);

    /** Terminal degrade after a stall: footer-backed Final when the
     *  writer actually finished, else the best salvage-consistent
     *  static prefix (WriterLost). Never loses adopted records. */
    void degradeToStatic();

    /** Record a rejected refresh (sticky diagnostic + counter). */
    void rejectRefresh(const std::string &why);

    /** Publish a validated @p reader as the next generation's
     *  snapshot, entering @p state. */
    void publish(std::unique_ptr<FeatureStoreReader> reader,
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
