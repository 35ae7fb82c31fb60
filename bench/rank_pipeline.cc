/**
 * @file
 * Rank-pipelining baseline: the instrumented blast loop run across
 * thread-emulated ranks under three stop protocols —
 *
 *   nosync     the reference floor: the region has no communicator,
 *              so the (replicated) stop decision needs no
 *              collectives at all,
 *   overlapped the posted-then-lazily-completed collectives with the
 *              strict (draining) stop query,
 *   relaxed    overlapped + Region::setRelaxedStopQuery: the
 *              per-iteration stop poll returns the last published
 *              decision and never stalls,
 *
 * and reports the *exposed* per-iteration analysis+sync overhead
 * (max over ranks) for each. The gate fails the run (exit 1) unless,
 * at every rank count: the overlapped and relaxed protocols'
 * features, iteration counts, and per-analysis checkpoint bytes
 * (FNV-1a) are bitwise identical to nosync; every early-termination
 * run actually stops; the overlapped one stops on the nosync
 * iteration; and the relaxed one stops at most one iteration after
 * it. Writes JSON via bench_to_json; see PERF.md.
 *
 * On a single-core host the ranks timeshare, so the sweep certifies
 * parity and determinism; the full overlap win needs >= 2 cores.
 */

#include "bench/bench_common.hh"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/serial.hh"
#include "core/region.hh"
#include "par/thread_comm.hh"

using namespace tdfe;
using namespace tdfe::bench;

namespace
{

enum class Protocol
{
    /** Reference floor: the region runs without a communicator, so
     *  the stop protocol has no collectives at all. The per-
     *  iteration *sync cost* of the other protocols is their
     *  exposed overhead above this floor. */
    NoSync,
    Overlapped,
    Relaxed,
};

const char *
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::NoSync:
        return "nosync";
      case Protocol::Overlapped:
        return "overlapped";
      case Protocol::Relaxed:
        return "relaxed";
    }
    return "?";
}

/** Everything one rank measured and extracted in one run. */
struct RankOut
{
    long iterations = 0;
    long stopIter = -1;
    double overheadPerIter = 0.0;
    double feature = 0.0;
    std::uint64_t checkpointHash = 0;
};

/** Aggregated over the world: worst-case timing, shared digest. */
struct WorldOut
{
    long iterations = 0;
    long stopIter = -1;
    /** Max over ranks: the pipeline is as slow as its slowest rank. */
    double overheadPerIter = 0.0;
    double wallPerIter = 0.0;
    /** FNV-1a over every rank's checkpoint bytes, in rank order. */
    std::uint64_t checkpointHash = 0;
    double feature = 0.0;
    bool ranksAgree = true;
};

/** One instrumented blast run on @p comm under @p protocol. */
RankOut
runRank(const blast::BlastConfig &cfg, Communicator *comm,
        const AnalysisConfig &analysis, Protocol protocol,
        bool honor_stop, long sync_interval)
{
    blast::Domain domain(cfg, comm);
    // The no-sync floor keeps the rank-decomposed domain (probe
    // gathering still reduces across ranks) but detaches the region
    // from the communicator, removing the stop protocol's
    // collectives entirely; the analyses are replicated, so every
    // extracted number stays identical.
    Region region("rank_pipeline", &domain,
                  protocol == Protocol::NoSync ? nullptr : comm);
    region.setSyncInterval(sync_interval);
    region.setRelaxedStopQuery(protocol == Protocol::Relaxed);
    region.setAsyncAnalyses(true);
    region.setRankOfLocation([&domain](long loc) {
        return domain.rankOfLocation(loc);
    });
    AnalysisConfig ac = analysis;
    ac.provider = [](void *d, long loc) {
        return static_cast<blast::Domain *>(d)->xd(loc);
    };
    region.addAnalysis(std::move(ac));

    RankOut out;
    while (!domain.finished()) {
        region.begin();
        TimeIncrement(domain);
        LagrangeLeapFrog(domain);
        domain.gatherProbes();
        region.end();
        // The common application pattern: poll the stop flag every
        // iteration. Under the nosync and overlapped protocols this
        // is the strict (draining) query; in relaxed mode it reads
        // the published decision without a stall.
        if (region.shouldStop()) {
            if (out.stopIter < 0)
                out.stopIter = region.iteration() - 1;
            if (honor_stop)
                break;
        }
    }
    out.iterations = domain.cycle();
    out.overheadPerIter = region.overheadSeconds() /
                          static_cast<double>(out.iterations);
    out.feature = region.analysis(0).extractFeature();
    std::string bytes;
    BinaryWriter w(bytes);
    region.analysis(0).save(w);
    out.checkpointHash = fnv1a(bytes);
    return out;
}

WorldOut
runWorld(int size, int ranks, const AnalysisConfig &analysis,
         Protocol protocol, bool honor_stop)
{
    blast::BlastConfig cfg;
    cfg.size = size;

    std::vector<RankOut> per_rank(static_cast<std::size_t>(ranks));
    Timer wall;
    if (ranks == 1) {
        per_rank[0] = runRank(cfg, nullptr, analysis, protocol,
                              honor_stop, 10);
    } else {
        ThreadCommWorld world(ranks);
        world.run([&](Communicator &comm) {
            per_rank[static_cast<std::size_t>(comm.rank())] =
                runRank(cfg, &comm, analysis, protocol, honor_stop,
                        10);
        });
    }
    const double elapsed = wall.elapsed();

    WorldOut out;
    out.iterations = per_rank[0].iterations;
    out.stopIter = per_rank[0].stopIter;
    out.feature = per_rank[0].feature;
    out.checkpointHash = fnv1aBasis;
    for (const RankOut &r : per_rank) {
        out.ranksAgree = out.ranksAgree &&
                         r.iterations == out.iterations &&
                         r.stopIter == out.stopIter &&
                         r.feature == out.feature;
        out.overheadPerIter =
            std::max(out.overheadPerIter, r.overheadPerIter);
        out.checkpointHash =
            fnv1a(&r.checkpointHash, sizeof(r.checkpointHash),
                  out.checkpointHash);
    }
    out.wallPerIter =
        elapsed / static_cast<double>(std::max(out.iterations, 1L));
    return out;
}

/**
 * Best-of-@p reps timing of all three protocols, *interleaved*
 * within each repetition (nosync, overlapped, relaxed, repeat) so
 * slow load drift on the host hits every protocol symmetrically
 * instead of skewing whichever mode happened to run its block
 * during a spike. Every repetition must produce the identical
 * digest or the gate breaks.
 */
std::vector<WorldOut>
timeProtocols(int size, int ranks, const AnalysisConfig &analysis,
              int reps, bool &digests_ok)
{
    const Protocol protos[] = {Protocol::NoSync, Protocol::Overlapped,
                               Protocol::Relaxed};
    std::vector<WorldOut> best(3);
    for (int rep = 0; rep < reps; ++rep) {
        for (int m = 0; m < 3; ++m) {
            const WorldOut r = runWorld(size, ranks, analysis,
                                        protos[m], false);
            digests_ok = digests_ok && r.ranksAgree;
            if (rep == 0) {
                best[static_cast<std::size_t>(m)] = r;
                continue;
            }
            WorldOut &b = best[static_cast<std::size_t>(m)];
            // The digest (state, counts) must be repetition-
            // invariant; only the timings take the best.
            digests_ok = digests_ok &&
                         r.checkpointHash == b.checkpointHash &&
                         r.iterations == b.iterations &&
                         r.stopIter == b.stopIter;
            b.overheadPerIter =
                std::min(b.overheadPerIter, r.overheadPerIter);
            b.wallPerIter = std::min(b.wallPerIter, r.wallPerIter);
        }
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Rank pipelining: overlapped vs relaxed stop "
                   "protocol against the collective-free floor on "
                   "the instrumented, rank-decomposed blast loop");
    args.addInt("size", 24, "blast domain size");
    args.addString("ranks", "1,2,4",
                   "thread-rank counts to sweep (comma-separated)");
    args.addInt("reps", 3, "repetitions (best is reported)");
    args.addString("json", "",
                   "write results to this JSON file (empty: skip)");
    addThreadsOption(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    setLogQuiet(true);

    const int size = static_cast<int>(args.getInt("size"));
    const int reps = static_cast<int>(args.getInt("reps"));
    const auto ranks =
        ArgParser::parseIntList(args.getString("ranks"));

    banner("Rank pipelining: blast " + std::to_string(size) +
               "^3, overlapped vs relaxed stop protocol",
           "sync cost = exposed overhead above the collective-free "
           "floor, max over ranks; digests must match the floor "
           "bitwise");

    // One recorded probe run sizes the analysis windows.
    const BlastTruth truth(size);
    const AnalysisConfig nonstop = blastAnalysis(
        truth, 0.4, 0.05 * truth.run.initialVelocity);
    AnalysisConfig stopper = blastAnalysis(
        truth, 0.4, 0.05 * truth.run.initialVelocity);
    stopper.stopWhenConverged = true;

    std::vector<BenchRecord> records;
    AsciiTable table({"Ranks", "floor us/it", "ovl sync", "rlx sync",
                      "stop nos/ovl/rlx", "gate"});
    bool gate_ok = true;
    for (const auto r : ranks) {
        const int nr = static_cast<int>(r);

        // Fixed-length runs: timing + the bitwise digest gate.
        bool digests_ok = true;
        const std::vector<WorldOut> timed =
            timeProtocols(size, nr, nonstop, reps, digests_ok);
        const WorldOut &nosync = timed[0];
        const WorldOut &overlapped = timed[1];
        const WorldOut &relaxed = timed[2];
        // Per-iteration exposed *sync* cost: overhead above the
        // collective-free floor (clamped — sub-floor readings are
        // timer noise on an empty protocol).
        auto sync_cost = [&](const WorldOut &w) {
            return std::max(0.0, w.overheadPerIter -
                                     nosync.overheadPerIter);
        };
        const bool same =
            overlapped.checkpointHash == nosync.checkpointHash &&
            overlapped.iterations == nosync.iterations &&
            relaxed.checkpointHash == nosync.checkpointHash &&
            relaxed.iterations == nosync.iterations &&
            relaxed.feature == nosync.feature;

        // Early-terminated runs: the stop-iteration bound. A run
        // that never stops would pass the bound vacuously, so every
        // protocol must report a stop.
        const WorldOut stop_nosync =
            runWorld(size, nr, stopper, Protocol::NoSync, true);
        const WorldOut stop_overlapped = runWorld(
            size, nr, stopper, Protocol::Overlapped, true);
        const WorldOut stop_relaxed = runWorld(
            size, nr, stopper, Protocol::Relaxed, true);
        bool stop_ok = stop_nosync.ranksAgree &&
                       stop_overlapped.ranksAgree &&
                       stop_relaxed.ranksAgree &&
                       stop_nosync.stopIter >= 0;
        // Strict overlapped must stop on the nosync iteration;
        // relaxed may trail it by at most one.
        stop_ok = stop_ok &&
                  stop_overlapped.stopIter == stop_nosync.stopIter;
        stop_ok = stop_ok &&
                  stop_relaxed.stopIter >= stop_nosync.stopIter &&
                  stop_relaxed.stopIter <= stop_nosync.stopIter + 1;

        gate_ok = gate_ok && digests_ok && same && stop_ok;

        table.addRow(
            {std::to_string(nr),
             AsciiTable::fmt(1e6 * nosync.overheadPerIter, 2),
             AsciiTable::fmt(1e6 * sync_cost(overlapped), 2),
             AsciiTable::fmt(1e6 * sync_cost(relaxed), 2),
             std::to_string(stop_nosync.stopIter) + "/" +
                 std::to_string(stop_overlapped.stopIter) + "/" +
                 std::to_string(stop_relaxed.stopIter),
             digests_ok && same && stop_ok ? "pass" : "FAIL"});

        const WorldOut *outs[] = {&nosync, &overlapped, &relaxed};
        const WorldOut *stops[] = {&stop_nosync, &stop_overlapped,
                                   &stop_relaxed};
        const Protocol protos[] = {Protocol::NoSync,
                                   Protocol::Overlapped,
                                   Protocol::Relaxed};
        for (int m = 0; m < 3; ++m) {
            BenchRecord rec;
            rec.name = std::string(protocolName(protos[m])) + "_r" +
                       std::to_string(nr);
            rec.metrics["ranks"] = static_cast<double>(nr);
            rec.metrics["overhead_sec_per_iter"] =
                outs[m]->overheadPerIter;
            rec.metrics["sync_cost_sec_per_iter"] =
                sync_cost(*outs[m]);
            rec.metrics["wall_sec_per_iter"] = outs[m]->wallPerIter;
            rec.metrics["iterations"] =
                static_cast<double>(outs[m]->iterations);
            rec.metrics["feature"] = outs[m]->feature;
            rec.metrics["digest_matches_nosync"] =
                outs[m]->checkpointHash == nosync.checkpointHash
                    ? 1.0
                    : 0.0;
            rec.metrics["stop_iteration"] =
                static_cast<double>(stops[m]->stopIter);
            rec.metrics["stop_delta_vs_nosync"] =
                static_cast<double>(stops[m]->stopIter -
                                    stop_nosync.stopIter);
            records.push_back(rec);
        }
    }
    table.print();
    if (!gate_ok)
        std::printf("!! rank-pipeline gate FAILED: protocols "
                    "diverged (digest or stop bound) or a stop run "
                    "never stopped\n");

    const std::string json = args.getString("json");
    if (!json.empty()) {
        std::map<std::string, std::string> meta;
        meta["bench"] = "rank_pipeline";
        meta["blast_size"] = std::to_string(size);
        meta["reps"] = std::to_string(reps);
        meta["sync_interval"] = "10";
        meta["hardware_threads"] = std::to_string(
            std::thread::hardware_concurrency());
        meta["gate"] = gate_ok ? "pass" : "fail";
        if (!bench_to_json(json, meta, records)) {
            std::printf("!! failed to write %s\n", json.c_str());
            return 1;
        }
        std::printf("-- wrote %s\n", json.c_str());
    }
    return gate_ok ? 0 : 1;
}
