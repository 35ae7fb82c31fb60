#include "store/live.hh"

#include <algorithm>
#include <thread>
#include <vector>

#include "base/logging.hh"

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
 * One adopted generation: an immutable reader over exactly the
 * blocks adopted by then. Owned via shared_ptr — the newest one by the
 * LiveStoreReader, plus one reference per outstanding StoreView, so
 * a snapshot (and the data-file handle inside its reader) lives for
 * as long as anyone still reads through it.
 */
struct LiveSnapshot
{
    std::unique_ptr<FeatureStoreReader> reader;
    std::uint64_t generation = 0;
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
LiveStoreReader::publish(std::unique_ptr<FeatureStoreReader> reader,
                         LiveState state)
{
    reader->resetIoStats(); // validation is not query I/O
    auto snap = std::make_shared<LiveSnapshot>();
    snap->reader = std::move(reader);
    snap->generation = generation() + 1;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snap_ = snap;
    }
    generation_.store(snap->generation, std::memory_order_release);
    state_.store(state, std::memory_order_release);
    lastAdvance_ = std::chrono::steady_clock::now();
}

namespace
{

/** @return end of the blocks @p r indexes: the offset its next
 *  block would start at. */
std::uint64_t
extentOf(const FeatureStoreReader &r)
{
    if (r.blockCount() == 0)
        return store::headerBytes;
    const store::BlockInfo &last = r.blockInfo(r.blockCount() - 1);
    return last.offset + last.size;
}

} // namespace

bool
LiveStoreReader::refresh()
{
    const LiveState s = state();
    if (s == LiveState::Final || s == LiveState::WriterLost)
        return false;

    const StoreView prev = view();
    const FeatureStoreReader *pr = prev.valid() ? &prev.reader() : nullptr;

    // The header is checked at every poll exactly as open() and
    // salvage() check it: it fixes the version, capacity, and schema
    // every block is decoded against.
    std::unique_ptr<FeatureStoreReader> r(new FeatureStoreReader());
    std::string why;
    bool absent = false;
    if (!r->loadAndCheckHeader(path_, &why, opts_.fileFactory,
                               &absent)) {
        if (!absent || pr)
            rejectRefresh(why);
        return false; // a writer that has not begun: Waiting
    }
    if (pr && (r->formatVersion() != pr->formatVersion() ||
               r->blockCapacity() != pr->blockCapacity() ||
               r->schema() != pr->schema())) {
        rejectRefresh(path_ + ": header changed under the live view");
        return false;
    }
    const std::uint64_t extent = pr ? extentOf(*pr) : store::headerBytes;
    const std::uint64_t size = r->fileBytes();
    if (size < extent) {
        rejectRefresh(path_ + ": data file shrank below the adopted " +
                      "blocks (" + std::to_string(size) + " < " +
                      std::to_string(extent) + " bytes)");
        return false;
    }

    bool untrailed = false;
    if (r->loadFooter(&why, &untrailed)) {
        if (!adoptFinal(std::move(r), pr, &why)) {
            rejectRefresh(path_ + ": " + why);
            return false;
        }
        return true;
    }
    if (!untrailed) {
        rejectRefresh(path_ + ": " + why);
        return false;
    }

    // No footer yet: adopt the blocks the writer has committed since
    // the last poll. A block counts once a byte follows it, so the
    // scan ends one byte short of EOF.
    r->startScan(pr);
    std::uint64_t stop = 0;
    if (!r->scanBlocks(extent, size - 1, stop, &why)) {
        rejectRefresh(path_ + ": " + why);
        return false;
    }
    if (pr && r->blockCount() == pr->blockCount())
        return false;
    publish(std::move(r), LiveState::Live);
    return true;
}

bool
LiveStoreReader::adoptFinal(std::unique_ptr<FeatureStoreReader> r,
                            const FeatureStoreReader *prev,
                            std::string *why)
{
    // The footer must describe the blocks already adopted verbatim
    // as its prefix (sealed blocks are immutable); a footer that
    // does not is not the end of the store this view has followed.
    const std::size_t prev_blocks = prev ? prev->blockCount() : 0;
    if (r->blockCount() < prev_blocks) {
        *why = "footer indexes fewer blocks than the adopted view";
        return false;
    }
    for (std::size_t b = 0; b < prev_blocks; ++b) {
        const store::BlockInfo &a = r->blockInfo(b);
        const store::BlockInfo &o = prev->blockInfo(b);
        if (a.offset != o.offset || a.size != o.size ||
            a.records != o.records) {
            *why = "footer rewrites adopted block " + std::to_string(b);
            return false;
        }
    }
    // CRC-check and decode only the blocks this view adds: earlier
    // ones were validated when first adopted.
    std::vector<std::uint8_t> raw;
    std::vector<std::vector<std::int64_t>> ints;
    std::vector<std::vector<double>> dbls;
    std::string detail;
    for (std::size_t b = prev_blocks; b < r->blockCount(); ++b) {
        if (!r->decodeBlock(b, raw, ints, dbls, &detail)) {
            *why = "new " + detail;
            return false;
        }
    }
    publish(std::move(r), LiveState::Final);
    return true;
}

void
LiveStoreReader::degradeToStatic()
{
    const std::size_t prev_records = view().recordCount();

    // The writer may have finished after the last poll (intact
    // footer) or died with a last block that no byte ever followed
    // — openOrSalvage captures the longest fully-decodable prefix
    // either way. Adopt it only when it is at least as long as what
    // we already serve; a terminal degrade never loses records.
    std::string err;
    bool was_salvaged = false;
    std::unique_ptr<FeatureStoreReader> r =
        FeatureStoreReader::openOrSalvage(path_, &err, &was_salvaged,
                                          opts_.fileFactory);
    if (r && r->recordCount() >= prev_records) {
        const std::size_t now_records = r->recordCount();
        publish(std::move(r), was_salvaged ? LiveState::WriterLost
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
