#include "store/live.hh"

#include <algorithm>
#include <cerrno>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "store/codec.hh"
#include "store/frame.hh"
#include "store/manifest.hh"

namespace tdfe
{

const char *
liveStateName(LiveState s)
{
    switch (s) {
      case LiveState::Waiting:
        return "waiting";
      case LiveState::Live:
        return "live";
      case LiveState::Final:
        return "final";
      case LiveState::WriterLost:
        return "writer-lost";
    }
    return "?";
}

/**
 * One adopted manifest generation: an immutable reader over exactly
 * that sealed prefix. Owned via shared_ptr — the newest one by the
 * LiveStoreReader, plus one reference per outstanding StoreView, so
 * a snapshot (and the data-file handle inside its reader) lives for
 * as long as anyone still reads through it.
 */
struct LiveSnapshot
{
    std::unique_ptr<FeatureStoreReader> reader;
    std::uint64_t generation = 0;
    bool final = false;
    bool degraded = false;
};

const FeatureStoreReader &
StoreView::reader() const
{
    if (!snap_)
        TDFE_FATAL("reader() on an unpinned StoreView");
    return *snap_->reader;
}

std::uint64_t
StoreView::generation() const
{
    return snap_ ? snap_->generation : 0;
}

bool
StoreView::final() const
{
    return snap_ && snap_->final;
}

bool
StoreView::degraded() const
{
    return snap_ && snap_->degraded;
}

std::size_t
StoreView::recordCount() const
{
    return snap_ ? snap_->reader->recordCount() : 0;
}

std::size_t
StoreView::blockCount() const
{
    return snap_ ? snap_->reader->blockCount() : 0;
}

LiveStoreReader::LiveStoreReader(std::string store_path,
                                 LiveViewOptions options)
    : path_(std::move(store_path)), opts_(options),
      lastAdvance_(std::chrono::steady_clock::now())
{
    if (opts_.pollMinUs < 1)
        opts_.pollMinUs = 1;
    if (opts_.pollMaxUs < opts_.pollMinUs)
        opts_.pollMaxUs = opts_.pollMinUs;
}

StoreView
LiveStoreReader::view() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return StoreView(snap_);
}

std::string
LiveStoreReader::lastError() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lastError_;
}

void
LiveStoreReader::rejectRefresh(const std::string &why)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lastError_ = why;
    }
    rejects_.fetch_add(1, std::memory_order_release);
}

void
LiveStoreReader::publish(std::shared_ptr<const LiveSnapshot> snap,
                         LiveState state)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snap_ = snap;
    }
    generation_.store(snap->generation, std::memory_order_release);
    state_.store(state, std::memory_order_release);
    lastAdvance_ = std::chrono::steady_clock::now();
}

bool
LiveStoreReader::refresh()
{
    const LiveState s = state();
    if (s == LiveState::Final || s == LiveState::WriterLost)
        return false;

    // Largest frame ever read: bounded by the index caps the footer
    // parser enforces anyway; this just keeps a garbage sidecar from
    // provoking a huge allocation before the CRC can reject it.
    constexpr std::uint64_t maxFrame =
        std::uint64_t(128) * 1024 * 1024;
    std::vector<std::uint8_t> frame;
    const store::IoError io = store::readWholeFile(
        opts_.fileFactory, store::manifestPathFor(path_), maxFrame,
        frame);
    if (io.code == ENOENT) {
        // No manifest (yet). The one legitimate reason while
        // unattached is a store that was finished without live mode
        // (or whose sidecar was cleaned up) — a footer-backed open
        // serves it as a Final view. Anything else is "nothing
        // published yet": not an error, just no advance.
        if (!attached()) {
            std::string open_err;
            std::unique_ptr<FeatureStoreReader> r =
                FeatureStoreReader::open(path_, &open_err,
                                         opts_.fileFactory);
            if (r) {
                auto snap = std::make_shared<LiveSnapshot>();
                snap->reader = std::move(r);
                snap->generation =
                    generation_.load(std::memory_order_relaxed) + 1;
                snap->final = true;
                publish(std::move(snap), LiveState::Final);
                return true;
            }
        }
        return false;
    }
    if (!io.ok()) {
        rejectRefresh("live manifest: " + io.message);
        return false;
    }

    store::FrameInfo info;
    std::string why;
    if (!store::decodeFrame(store::manifestMagic, store::manifestVersion,
                            frame, info, &why)) {
        rejectRefresh("live manifest: " + why);
        return false;
    }
    if (info.counter <= generation())
        return false; // already serving this prefix (or newer)

    if (!adopt(info.counter, frame.data() + store::frameHeaderBytes,
               static_cast<std::size_t>(info.payloadBytes), &why)) {
        rejectRefresh(why);
        return false;
    }
    return true;
}

bool
LiveStoreReader::adopt(std::uint64_t generation,
                       const std::uint8_t *payload, std::size_t n,
                       std::string *why)
{
    store::ByteReader fields(payload, n);
    const std::uint32_t flags = fields.u32();
    const std::uint64_t data_bytes = fields.u64();
    if (!fields.ok()) {
        *why = "live manifest: payload too short";
        return false;
    }

    std::shared_ptr<const LiveSnapshot> prev;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        prev = snap_;
    }

    // The manifest's footer is read exactly as a finished store's:
    // the data file's header first (it fixes the version, capacity,
    // and schema the footer must agree with), then the one footer
    // parser, with the sealed extent standing in for the footer
    // offset.
    std::unique_ptr<FeatureStoreReader> r(new FeatureStoreReader());
    if (!r->loadAndCheckHeader(path_, why, opts_.fileFactory))
        return false;
    if (r->fileBytes() < data_bytes) {
        // The classic lying-kernel tear: the manifest made it to
        // disk, the data it indexes did not.
        *why = "live manifest: runs ahead of the data file (" +
               std::to_string(r->fileBytes()) + " < " +
               std::to_string(data_bytes) + " bytes)";
        return false;
    }
    std::string detail;
    if (!r->parseFooter(fields.cursor(), fields.remaining(), data_bytes,
                        &detail)) {
        *why = "live manifest: " + detail;
        return false;
    }

    // Generations come from one writer over one store: the shape
    // must not change, and the previous snapshot's blocks must
    // reappear verbatim as a prefix (sealed blocks are immutable).
    // A manifest violating either is not a newer view of our store.
    const FeatureStoreReader *pr =
        prev ? prev->reader.get() : nullptr;
    if (pr && (r->blockCapacity() != pr->blockCapacity() ||
               r->schema() != pr->schema())) {
        *why = "live manifest: schema/capacity changed mid-stream";
        return false;
    }
    const std::size_t prev_blocks = pr ? pr->blockCount() : 0;
    if (r->blockCount() < prev_blocks) {
        *why = "live manifest: fewer blocks than the adopted view";
        return false;
    }
    for (std::size_t b = 0; b < prev_blocks; ++b) {
        const store::BlockInfo &a = r->blockInfo(b);
        const store::BlockInfo &o = pr->blockInfo(b);
        if (a.offset != o.offset || a.size != o.size ||
            a.records != o.records) {
            *why = "live manifest: adopted block prefix rewritten";
            return false;
        }
    }

    // CRC-check and decode only the blocks this view adds: earlier
    // ones were validated when first adopted and are immutable, so
    // refresh stays O(new blocks) — amortized one decode per block
    // over the store's lifetime.
    std::vector<std::uint8_t> raw;
    std::vector<std::vector<std::int64_t>> ints;
    std::vector<std::vector<double>> dbls;
    for (std::size_t b = prev_blocks; b < r->blockCount(); ++b) {
        if (!r->decodeBlock(b, raw, ints, dbls, &detail)) {
            *why = "live manifest: new block " + std::to_string(b) +
                   " rejected: " + detail;
            return false;
        }
    }
    r->resetIoStats(); // validation is not query I/O

    auto snap = std::make_shared<LiveSnapshot>();
    snap->reader = std::move(r);
    snap->generation = generation;
    snap->final = (flags & store::manifestFlagFinal) != 0;
    snap->degraded = (flags & store::manifestFlagDegraded) != 0;
    const LiveState next =
        snap->final ? LiveState::Final : LiveState::Live;
    publish(std::move(snap), next);
    return true;
}

void
LiveStoreReader::degradeToStatic()
{
    std::shared_ptr<const LiveSnapshot> prev;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        prev = snap_;
    }
    const std::size_t prev_records =
        prev ? prev->reader->recordCount() : 0;

    // The writer may have finished (intact footer, manifest lost)
    // or crashed after sealing more than the last manifest shows —
    // openOrSalvage captures the longest fully-decodable prefix
    // either way. Adopt it only when it is at least as long as what
    // we already serve; a terminal degrade never loses records.
    std::string err;
    bool was_salvaged = false;
    std::unique_ptr<FeatureStoreReader> r =
        FeatureStoreReader::openOrSalvage(path_, &err, &was_salvaged,
                                          opts_.fileFactory);
    if (r && r->recordCount() >= prev_records) {
        const std::size_t now_records = r->recordCount();
        auto snap = std::make_shared<LiveSnapshot>();
        snap->generation =
            generation_.load(std::memory_order_relaxed) + 1;
        snap->final = !was_salvaged;
        snap->degraded = was_salvaged;
        snap->reader = std::move(r);
        publish(std::move(snap), was_salvaged
                                     ? LiveState::WriterLost
                                     : LiveState::Final);
        warnDegraded(
            "live_view",
            detail::concatMessage(
                "live view of '", path_, "' stalled; serving a ",
                was_salvaged ? "salvaged" : "footer-backed",
                " static prefix (", prev_records, " -> ",
                now_records, " records)"));
        return;
    }
    // Nothing better recoverable: freeze what we have.
    state_.store(LiveState::WriterLost, std::memory_order_release);
    warnDegraded(
        "live_view",
        detail::concatMessage(
            "live view of '", path_,
            "' stalled with no recoverable store; frozen at ",
            prev_records, " records"));
}

bool
LiveStoreReader::waitForAdvance(double timeout_seconds)
{
    using clock = std::chrono::steady_clock;
    const clock::time_point start = clock::now();
    long sleep_us = opts_.pollMinUs;
    for (;;) {
        if (refresh())
            return true;
        const LiveState s = state();
        if (s == LiveState::Final || s == LiveState::WriterLost)
            return false;
        const clock::time_point now = clock::now();
        const auto since = [](clock::time_point a,
                              clock::time_point b) {
            return std::chrono::duration<double>(b - a).count();
        };
        if (timeout_seconds >= 0.0 &&
            since(start, now) >= timeout_seconds)
            return false;
        if (opts_.stallDeadlineSeconds > 0.0 &&
            since(lastAdvance_, now) >= opts_.stallDeadlineSeconds) {
            degradeToStatic();
            return false;
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(sleep_us));
        sleep_us = std::min<long>(sleep_us * 2, opts_.pollMaxUs);
    }
}

TailCursor::TailCursor(LiveStoreReader &live, EventFilter filter)
    : live_(&live), filter_(std::move(filter))
{
}

bool
TailCursor::next(FeatureRecord &out)
{
    for (;;) {
        if (!cursor_) {
            StoreView nv = live_->view();
            if (!nv.valid()) {
                drained_ = true;
                return false;
            }
            view_ = std::move(nv);
            cursor_.emplace(view_.reader(), filter_, blocksConsumed_);
        }
        if (cursor_->next(out)) {
            ++delivered_;
            drained_ = false;
            return true;
        }
        // Current snapshot drained; resume a newer one (if any) at
        // the first block we have not consumed.
        blocksConsumed_ = view_.reader().blockCount();
        if (live_->generation() == view_.generation()) {
            drained_ = true;
            return false;
        }
        cursor_.reset();
    }
}

bool
TailCursor::done() const
{
    const LiveState s = live_->state();
    if (s != LiveState::Final && s != LiveState::WriterLost)
        return false;
    const std::uint64_t pinned =
        view_.valid() ? view_.generation() : 0;
    return drained_ && live_->generation() == pinned;
}

} // namespace tdfe
