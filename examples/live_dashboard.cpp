/**
 * @file
 * Live dashboard: a writer thread streams extracted features into a
 * store at flush-per-seal durability, while the main thread follows
 * it through a LiveStoreReader — the in-situ monitoring loop the live
 * serving layer exists for. Each time the view advances, the
 * dashboard reprints: generation, lifecycle state, sealed records,
 * and a filtered aggregate (min/mean MSE) computed by the regular
 * query engine *against a pinned snapshot* — demonstrating that
 * zone-map pushdown runs unchanged over a store mid-write.
 *
 * The tail is checked, not just displayed: every record the tail
 * delivers is compared against what the writer appended (same
 * iteration sequence, exactly once, in order), and the demo exits
 * nonzero on any divergence — so it doubles as an end-to-end smoke
 * of the live path (scripts/check_build.sh runs it).
 *
 *   live_dashboard [--records n] [--block n] [--store path]
 *                  [--delay-us n] [--threads n]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "base/cli.hh"
#include "store/live.hh"
#include "store/query.hh"
#include "store/writer.hh"

using namespace tdfe;

int
main(int argc, char **argv)
{
    ArgParser args("Follow a live feature store while it is written "
                   "(snapshot-isolated tail; see store/live.hh)");
    addThreadsOption(args);
    addObsOptions(args);
    args.addInt("records", 4096, "records the writer appends");
    args.addInt("block", 256, "records per sealed block");
    args.addString("store", "live_dashboard.tdfs",
                   "store path");
    args.addInt("delay-us", 50,
                "microseconds between appends (writer pacing)");
    args.parse(argc, argv);
    applyThreadsOption(args);
    const ObsCliOptions obsCli = obsOptions(args);
    applyObsOptions(obsCli);

    const long total = args.getInt("records");
    const std::size_t block =
        static_cast<std::size_t>(args.getInt("block"));
    const std::string path = args.getString("store");
    const long delay_us = args.getInt("delay-us");
    constexpr std::size_t n_coeffs = 3;

    // Writer side: synthetic feature records shaped like the blast
    // harness's (decaying MSE, advancing wavefront). Flushing every
    // sealed block lets the tail adopt block k at seal k + 1.
    std::atomic<bool> writer_ok{true};
    std::thread writer([&] {
        StoreOptions options;
        options.blockCapacity = block;
        options.durability = store::DurabilityPolicy::FlushPerSeal;
        FeatureStoreWriter w(path, StoreSchema{n_coeffs}, options);
        FeatureRecord rec;
        rec.coeffs.resize(n_coeffs);
        for (long i = 0; i < total; ++i) {
            rec.iteration = i;
            rec.analysis = 0;
            rec.stop = false;
            rec.wallTime = 1e-3 * static_cast<double>(i);
            rec.wavefront = 0.25 * static_cast<double>(i);
            rec.predicted = std::sin(0.01 * static_cast<double>(i));
            rec.mse = 1.0 / (1.0 + static_cast<double>(i));
            for (std::size_t k = 0; k < n_coeffs; ++k)
                rec.coeffs[k] =
                    static_cast<double>(i + static_cast<long>(k));
            if (!w.append(rec)) {
                writer_ok.store(false);
                return;
            }
            if (delay_us > 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(delay_us));
        }
        w.finish();
        writer_ok.store(writer_ok.load() && w.ok());
    });

    // Reader side: tail the store as it grows. The stall deadline
    // is generous — the writer above cannot legitimately go quiet.
    LiveViewOptions view_options;
    view_options.stallDeadlineSeconds = 30.0;
    LiveStoreReader live(path, view_options);
    TailCursor tail(live);

    FeatureRecord rec;
    long consumed = 0;
    long bad_order = 0;
    std::uint64_t shown_generation = 0;
    while (!tail.done()) {
        if (tail.next(rec)) {
            // Exactly-once, in-order delivery check.
            if (rec.iteration != consumed)
                ++bad_order;
            ++consumed;
            continue;
        }
        if (live.generation() != shown_generation &&
            live.attached()) {
            shown_generation = live.generation();
            const StoreView view = live.view();
            // The regular query engine over a pinned mid-write
            // snapshot: converged records only (MSE under 1%).
            EventFilter converged;
            converged.where({metricColumnIndex("mse"), PredOp::Lt,
                             0.01});
            QueryCursor q(view.reader(), converged);
            FeatureRecord m;
            long hits = 0;
            double mse_min = 1.0;
            while (q.next(m)) {
                ++hits;
                mse_min = std::min(mse_min, m.mse);
            }
            std::printf("gen %-4llu %-11s %6zu records sealed | "
                        "%5ld converged (mse<0.01, min %.2e) | "
                        "%zu/%zu blocks decoded\n",
                        static_cast<unsigned long long>(
                            view.generation()),
                        liveStateName(live.state()),
                        view.recordCount(), hits, mse_min,
                        view.reader().blocksDecoded(),
                        view.blockCount());
        }
        live.waitForAdvance(5.0);
    }
    writer.join();

    const bool tail_complete = consumed == total && bad_order == 0;
    std::printf("tail done: %ld/%ld records, state %s, "
                "%llu generations, %llu refresh rejects%s\n",
                consumed, total, liveStateName(live.state()),
                static_cast<unsigned long long>(live.generation()),
                static_cast<unsigned long long>(
                    live.refreshRejects()),
                tail_complete ? "" : "  [MISMATCH]");
    if (!writer_ok.load()) {
        std::fprintf(stderr, "live_dashboard: writer degraded\n");
        return 1;
    }
    if (!tail_complete || live.state() != LiveState::Final) {
        std::fprintf(stderr,
                     "live_dashboard: tail diverged from the "
                     "written stream (%ld consumed, %ld expected, "
                     "%ld out of order)\n",
                     consumed, total, bad_order);
        return 1;
    }
    std::remove(path.c_str());
    finishObsOptions(obsCli);
    return 0;
}
