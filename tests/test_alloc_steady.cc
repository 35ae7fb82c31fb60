/**
 * @file
 * Allocation budgets of the steady state, at every pool thread count:
 *
 *  - once a region has warmed up, a begin/end iteration of four
 *    analyses (snapshot, normalize, append, training round,
 *    early-stop check, stop protocol) makes no allocation at all:
 *    with the digests run inline (sync) or as the region's posted
 *    epoch job (async), in a region restored from its own
 *    checkpoint, and with tracing and metrics on. Each analysis's
 *    ObservedSeries history is sized for its window when the region
 *    is built and reserved by its first append (a restore reads
 *    into that reservation), all within warmup;
 *  - with a feature store attached that seals a block every few
 *    iterations (buffered, and flushed per seal as a live tail needs
 *    it), the only allowance is the amortized geometric growth of
 *    the store writer's block index and zone map;
 *  - a warmed-up clover cycle (Timestep + HydroCycle: every parallel
 *    region and reduction of the solver) makes no allocation at all.
 *
 * The global operator new is replaced with a counting one, so this
 * binary must not be built with AddressSanitizer (which owns
 * operator new).
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "base/serial.hh"
#include "base/thread_pool.hh"
#include "clover2d/app.hh"
#include "core/region.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/writer.hh"
#include "test_util.hh"

namespace
{

std::atomic<std::size_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace tdfe;

constexpr long warmupIters = 1000;
constexpr long countedIters = 5000;
constexpr std::size_t analysisCount = 4;

/** Attenuating travelling pulse plus a ripple; `iter` is the step. */
struct WaveDomain
{
    long iter = 0;

    double
    at(long loc) const
    {
        const double x = static_cast<double>(loc);
        const double t = static_cast<double>(iter);
        const double front = 0.02 * t;
        const double amp = 1.0 / (1.0 + 0.03 * x);
        return amp * std::exp(-(x - front) * (x - front) / 24.0) +
               0.01 * std::sin(0.7 * x + 0.3 * t);
    }
};

double
waveProvider(void *domain, long loc)
{
    return static_cast<WaveDomain *>(domain)->at(loc);
}

AnalysisConfig
waveAnalysis(std::size_t k)
{
    AnalysisConfig ac;
    ac.name = "wave";
    ac.provider = waveProvider;
    ac.space = IterParam(1, 16, 1);
    // The window covers every iteration, so every analysis keeps
    // collecting and training through the counted phase.
    ac.time = IterParam(5, warmupIters + countedIters, 1);
    ac.feature = k % 2 ? FeatureKind::PeakValue
                       : FeatureKind::BreakpointRadius;
    ac.threshold = 0.3;
    ac.searchEnd = 16;
    ac.featureLocation = 4;
    ac.minLocation = 1;
    ac.stopWhenConverged = k == 0;
    ac.ar.axis = LagAxis::Space;
    ac.ar.order = 2 + k;
    ac.ar.lag = 2;
    ac.ar.batchSize = 8;
    ac.ar.convergeTol = 0.2;
    ac.ar.convergePatience = 2;
    ac.ar.minBatches = 2;
    return ac;
}

/** How a steady-state region runs its iterations. */
enum class Mode
{
    Sync,
    Async,
    /** Sync, counted in a fresh region restored from a checkpoint
     *  of the warmed-up one. */
    Resumed,
    /** Sync and async, with tracing and metrics on. @{ */
    TracedSync,
    TracedAsync,
    /** @} */
    /** Sync, with metrics on and a feature store attached. */
    SyncWithStore,
    /** As SyncWithStore, the store flushed at every seal: the
     *  configuration a live tail follows block by block. */
    SyncWithFlushedStore,
};

/** Records per block of the attached store: a few iterations each,
 *  so the store seals hundreds of times in the counted phase. */
constexpr std::size_t storeBlockCapacity = 16;

/** ceil(log2(n)): the doublings of a vector grown to @p n. */
std::size_t
doublings(double n)
{
    return static_cast<std::size_t>(std::ceil(std::log2(n)));
}

/** A region of the four wave analyses over @p dom. */
std::unique_ptr<Region>
waveRegion(WaveDomain &dom, bool async)
{
    auto region = std::make_unique<Region>("alloc", &dom);
    region->setAsyncAnalyses(async);
    for (std::size_t k = 0; k < analysisCount; ++k)
        region->addAnalysis(waveAnalysis(k));
    return region;
}

/**
 * Record one span on each of the @p threads pool threads, so every
 * thread's trace ring exists before counting starts. Each chunk
 * waits until all have started: no thread can run two, so each of
 * the caller and the workers runs exactly one.
 */
void
registerTraceRings(int threads)
{
    std::atomic<int> started{0};
    ThreadPool::global().runChunks(
        static_cast<std::size_t>(threads), [&](std::size_t) {
            obs::SpanTimer span("alloc.register", "test");
            started.fetch_add(1);
            while (started.load() < threads)
                std::this_thread::yield();
        });
}

/** Heap allocations made by the counted iterations at @p threads. */
std::size_t
steadyStateAllocations(int threads, Mode mode)
{
    setGlobalThreadCount(threads);
    const bool async =
        mode == Mode::Async || mode == Mode::TracedAsync;
    WaveDomain dom;
    std::unique_ptr<Region> region = waveRegion(dom, async);

    const std::string path = test::tempPath("alloc_steady.tdfs");
    std::unique_ptr<FeatureStoreWriter> store;
    if (mode == Mode::SyncWithStore ||
        mode == Mode::SyncWithFlushedStore) {
        StoreSchema schema;
        schema.coeffCount = analysisCount + 2; // order 2 + k, + 1
        StoreOptions opts;
        opts.blockCapacity = storeBlockCapacity;
        if (mode == Mode::SyncWithFlushedStore)
            opts.durability = store::DurabilityPolicy::FlushPerSeal;
        store = std::make_unique<FeatureStoreWriter>(path, schema, opts);
        region->setFeatureStore(store.get());
        obs::setMetricsEnabled(true);
    }
    const bool traced =
        mode == Mode::TracedSync || mode == Mode::TracedAsync;
    if (traced) {
        obs::setTraceEnabled(true);
        obs::setMetricsEnabled(true);
        registerTraceRings(threads);
    }

    auto iterate = [&](long k) {
        region->begin();
        dom.iter = k;
        region->end();
    };
    for (long k = 0; k < warmupIters; ++k)
        iterate(k);
    if (mode == Mode::Resumed) {
        std::string ckpt;
        BinaryWriter w(ckpt);
        region->saveCheckpoint(w);
        region = waveRegion(dom, async);
        BinaryReader r(ckpt);
        EXPECT_TRUE(region->loadCheckpoint(r))
            << region->checkpointError();
    }
    const std::size_t before = allocations.load();
    for (long k = warmupIters; k < warmupIters + countedIters; ++k)
        iterate(k);
    const std::size_t made = allocations.load() - before;
    EXPECT_GT(region->analysis(0).trainingRounds(),
              static_cast<std::size_t>(warmupIters));
    if (traced) {
        obs::setTraceEnabled(false);
        obs::setMetricsEnabled(false);
        obs::clearTrace();
    }
    if (store) {
        obs::setMetricsEnabled(false);
        region->setFeatureStore(nullptr);
        EXPECT_TRUE(store->ok());
        EXPECT_GT(store->blocksSealed(), countedIters * analysisCount /
                                            storeBlockCapacity);
        store->finish();
        std::remove(path.c_str());
    }
    return made;
}

/** Check that @p mode makes no allocation at 1, 2 and 4 threads. */
void
expectOffTheHeap(Mode mode, const char *what)
{
    for (const int threads : {1, 2, 4}) {
        const std::size_t made = steadyStateAllocations(threads, mode);
        std::printf("%s, %d threads: %zu allocations\n", what, threads,
                    made);
        EXPECT_EQ(made, 0u)
            << what << ": " << made << " allocations over "
            << countedIters << " iterations at " << threads
            << " threads";
    }
    setGlobalThreadCount(1);
}

/** Check @p mode against @p budget at 1, 2 and 4 threads. */
void
expectWithinBudget(Mode mode, const char *what, std::size_t budget)
{
    for (const int threads : {1, 2, 4}) {
        const std::size_t made = steadyStateAllocations(threads, mode);
        std::printf("%s, %d threads: %zu allocations (budget %zu)\n",
                    what, threads, made, budget);
        EXPECT_LE(made, budget)
            << what << ": " << made << " allocations over "
            << countedIters << " iterations at " << threads
            << " threads";
    }
    setGlobalThreadCount(1);
}

TEST(AllocSteadyState, SyncRegionStaysOffTheHeap)
{
    expectOffTheHeap(Mode::Sync, "sync");
}

TEST(AllocSteadyState, AsyncRegionStaysOffTheHeap)
{
    // Each iteration posts the region's own epoch job to the pool
    // and waits for it at the next end(): no allocation per epoch.
    expectOffTheHeap(Mode::Async, "async");
}

TEST(AllocSteadyState, ResumedRegionStaysOffTheHeap)
{
    // The restored histories land in the reservations the fresh
    // region made for its windows, so the first append after the
    // resume does not regrow them.
    expectOffTheHeap(Mode::Resumed, "resumed");
}

TEST(AllocSteadyState, TracedRegionStaysOffTheHeap)
{
    // Each thread's trace ring is allocated by its first span, which
    // registerTraceRings() records during warmup; after that, spans
    // fill the rings (dropping the newest once full) and metrics
    // update fixed slots.
    expectOffTheHeap(Mode::TracedSync, "traced sync");
    expectOffTheHeap(Mode::TracedAsync, "traced async");
}

TEST(AllocSteadyState, StoreSealsStayOffTheHeap)
{
    // Sealing a block encodes into the writer's reused buffer and
    // adds one entry each to its block index and zone map: those two
    // vectors double ceil(log2(blocks)) times, nothing per seal. A
    // per-seal flush hands stdio's buffer to the kernel and
    // allocates nothing either.
    const double blocks = static_cast<double>(
        (warmupIters + countedIters) * analysisCount /
        storeBlockCapacity);
    const std::size_t budget = 2 * doublings(blocks);
    expectWithinBudget(Mode::SyncWithStore, "sync with store", budget);
    expectWithinBudget(Mode::SyncWithFlushedStore,
                       "sync with store flushed per seal", budget);
}

/** Heap allocations made by @p counted clover 64^2 cycles. */
std::size_t
cloverCycleAllocations(int threads, long warmup, long counted)
{
    setGlobalThreadCount(threads);
    clover::CloverAppConfig cfg;
    cfg.size = 64;
    clover::CloverField field(cfg);
    auto cycle = [&field] {
        clover::Timestep(field);
        clover::HydroCycle(field);
    };
    for (long k = 0; k < warmup; ++k)
        cycle();
    const std::size_t before = allocations.load();
    for (long k = 0; k < counted; ++k)
        cycle();
    return allocations.load() - before;
}

TEST(AllocSteadyState, CloverCyclesStayOffTheHeap)
{
    constexpr long warmup = 200;
    constexpr long counted = 1000;
    for (const int threads : {1, 2, 4}) {
        const std::size_t made =
            cloverCycleAllocations(threads, warmup, counted);
        std::printf("clover 64^2, %d threads: %zu allocations over "
                    "%ld cycles\n",
                    threads, made, counted);
        EXPECT_EQ(made, 0u) << "at " << threads << " threads";
    }
    setGlobalThreadCount(1);
}

} // namespace
