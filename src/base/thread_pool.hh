/**
 * @file
 * Shared parallel-compute backbone: a chunked thread pool with
 * `parallelFor` / `parallelForRange` / `parallelReduce` front ends.
 *
 * Design constraints, in order:
 *
 *  1. Determinism. Reductions split the index range into fixed-size
 *     chunks (the grain), compute one partial per chunk, and combine
 *     the partials serially in chunk order. The chunking depends only
 *     on the range and the grain — never on the thread count — so
 *     results are bitwise identical for 1 and N threads.
 *  2. Nested safety. The calling thread always participates in its
 *     own job (it claims chunks from the same atomic cursor the
 *     workers use), so a `parallelFor` issued from inside a
 *     ThreadComm rank body — or from inside another chunk — can
 *     always finish on the caller alone. There is no configuration
 *     in which a thread waits on work that only itself could run.
 *  3. Serial fast path. With one configured thread, or a range that
 *     fits in a single chunk, the body runs inline on the caller
 *     with no locking, allocation, or wake-ups, keeping
 *     single-thread performance at parity with plain loops.
 *
 * The process-wide pool (`ThreadPool::global()`) is sized from the
 * `TDFE_NUM_THREADS` environment variable, falling back to the
 * hardware concurrency; `setGlobalThreadCount()` lets CLI front ends
 * override it before the first parallel region.
 */

#ifndef TDFE_BASE_THREAD_POOL_HH
#define TDFE_BASE_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tdfe
{

/**
 * Work-sharing pool. A job is a chunk counter plus a body; workers
 * and the submitting thread race on the counter until every chunk
 * has been claimed, then the submitter waits for stragglers.
 */
class ThreadPool
{
  public:
    /**
     * One unit of pool work: a chunk counter plus a body. Treat as
     * opaque outside the pool — it is public only so JobHandle can
     * name it; submit()/wait()/finished() are the API.
     */
    struct Job
    {
        /** Body to run (runChunks points at the caller's stack
         *  copy; submit() stores its own in `owned`). */
        const std::function<void(std::size_t)> *fn = nullptr;
        std::function<void(std::size_t)> owned;
        std::size_t nchunks = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::mutex m;
        std::condition_variable cv;
    };

    /** Completion token of an asynchronously submitted job. */
    using JobHandle = std::shared_ptr<Job>;

    /**
     * @param threads Total thread count including the caller
     *        (so `threads - 1` workers are spawned). 0 means
     *        auto-size from TDFE_NUM_THREADS / the hardware.
     */
    explicit ThreadPool(int threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return configured thread count (workers + caller). */
    int threadCount() const { return nThreads; }

    /**
     * Re-size the pool (joins and respawns workers). Must not be
     * called while a parallel region is active.
     */
    void resize(int threads);

    /**
     * Execute @p fn(chunk) for every chunk in [0, nchunks). The
     * calling thread participates; returns once all chunks have
     * completed. Safe to call concurrently from several threads and
     * from inside a running chunk.
     */
    void runChunks(std::size_t nchunks,
                   const std::function<void(std::size_t)> &fn);

    /**
     * Enqueue @p nchunks chunks of @p fn for asynchronous execution
     * and return immediately; workers pick the job up in submission
     * order. The body is moved into the job, so it may outlive the
     * caller's scope — but everything it captures must stay valid
     * until the job is waited on. Unlike runChunks there is no
     * inline fast path: with zero workers (or all of them busy) the
     * chunks simply run during wait(), on the waiting thread.
     *
     * @return completion token for finished()/wait().
     */
    JobHandle submit(std::size_t nchunks,
                     std::function<void(std::size_t)> fn);

    /** @return true once every chunk of @p job completed (a null
     *  handle counts as finished). */
    static bool finished(const JobHandle &job);

    /**
     * Block until @p job completes. The caller claims outstanding
     * chunks like any worker, so waiting is nested-safe: it makes
     * progress even from inside another job's chunk and with zero
     * workers.
     */
    void wait(const JobHandle &job);

    /** Process-wide shared pool (lazily constructed). */
    static ThreadPool &global();

  private:
    void spawnWorkers();
    void joinWorkers();
    void workerLoop();

    /** Claim and run chunks of @p job until the cursor is spent. */
    static void helpWith(Job &job);

    /** Push @p job onto the queue and wake the workers. */
    void enqueue(const std::shared_ptr<Job> &job);

    /** Help with @p job, unlink it from the queue, await stragglers. */
    void awaitJob(const std::shared_ptr<Job> &job);

    int nThreads = 1;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable cv;
    std::deque<std::shared_ptr<Job>> pending;
    bool shutdown = false;
};

/** Largest thread count a user may request: each is an OS thread. */
constexpr int maxThreadCount = 1024;

/**
 * Parse a requested thread count. The whole of @p text must be a
 * decimal integer in [1, maxThreadCount].
 *
 * @return the count, or 0 when @p text is anything else.
 */
int parseThreadCount(const char *text);

/**
 * Thread count requested by the environment: TDFE_NUM_THREADS when
 * it parses (parseThreadCount), otherwise the hardware concurrency.
 * An invalid TDFE_NUM_THREADS warns and falls back.
 */
int configuredThreadCount();

/** Resize the global pool (CLI front ends; call before first use). */
void setGlobalThreadCount(int threads);

/** @return thread count of the global pool. */
int globalThreadCount();

/**
 * Run @p fn(begin, end) over subranges of [0, n) with at most
 * @p grain indices per subrange. Subranges are disjoint; the body
 * must not write to state shared across them.
 */
template <typename Fn>
inline void
parallelForRange(std::size_t n, std::size_t grain, Fn &&fn)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = 1;
    const std::size_t nchunks = (n + grain - 1) / grain;
    ThreadPool &pool = ThreadPool::global();
    if (nchunks <= 1 || pool.threadCount() <= 1) {
        fn(static_cast<std::size_t>(0), n);
        return;
    }
    const std::function<void(std::size_t)> chunk =
        [&](std::size_t c) {
            const std::size_t b = c * grain;
            fn(b, std::min(n, b + grain));
        };
    pool.runChunks(nchunks, chunk);
}

/** Element-wise parallel loop: @p fn(i) for i in [0, n). */
template <typename Fn>
inline void
parallelFor(std::size_t n, std::size_t grain, Fn &&fn)
{
    parallelForRange(n, grain, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            fn(i);
    });
}

/**
 * Deterministic reduction over [0, n). @p chunk_fn(begin, end)
 * returns the partial for one grain-sized chunk; partials are
 * combined with @p combine serially in chunk order, so the result
 * does not depend on the thread count.
 */
template <typename T, typename ChunkFn, typename CombineFn>
inline T
parallelReduce(std::size_t n, std::size_t grain, T identity,
               ChunkFn &&chunk_fn, CombineFn &&combine)
{
    if (n == 0)
        return identity;
    if (grain == 0)
        grain = 1;
    const std::size_t nchunks = (n + grain - 1) / grain;
    if (nchunks == 1)
        return combine(identity, chunk_fn(static_cast<std::size_t>(0),
                                          n));
    std::vector<T> partials(nchunks, identity);
    // Iterate chunk *indices* (grain 1) rather than the element
    // range: the serial fast path then still evaluates chunk_fn once
    // per chunk, keeping the partial association — and the result —
    // identical to every parallel execution.
    parallelFor(nchunks, std::size_t{1}, [&](std::size_t c) {
        const std::size_t b = c * grain;
        partials[c] = chunk_fn(b, std::min(n, b + grain));
    });
    T acc = identity;
    for (const T &p : partials)
        acc = combine(acc, p);
    return acc;
}

} // namespace tdfe

#endif // TDFE_BASE_THREAD_POOL_HH
