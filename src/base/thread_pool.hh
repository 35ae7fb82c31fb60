/**
 * @file
 * Shared parallel-compute backbone: a chunked thread pool with
 * `parallelFor` / `parallelForRange` / `parallelReduce` front ends,
 * and `post()` / `wait()` for a job that runs while its caller does
 * other work (the async digest epoch of a Region).
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
 *  4. No allocation per dispatch. Every job is owned by its caller
 *     (a `runChunks` job lives on the caller's stack, a `post()`ed
 *     one wherever the caller keeps it) and refers to the body
 *     through a non-owning ChunkRef; the queue links jobs
 *     intrusively; reductions keep their partials on the stack.
 *  5. Cheap wake-ups. A dispatch wakes at most one parked worker per
 *     run it leaves for others, and makes no futex call when none is
 *     parked. A worker that finishes a job spins on the queue for a
 *     fixed bound (ThreadPool::spinWindow) before it parks, so the
 *     next dispatch of a tight solver loop finds it awake; a freshly
 *     spawned worker parks at once, and shutdown ends every spin.
 *  6. Batched claims. Participants claim runs of consecutive chunks
 *     (about two runs per thread), which cuts cursor traffic without
 *     moving a chunk boundary — so constraint 1 still holds.
 *
 * The process-wide pool (`ThreadPool::global()`) is sized from the
 * `TDFE_NUM_THREADS` environment variable, falling back to the
 * hardware concurrency; `setGlobalThreadCount()` lets CLI front ends
 * override it before the first parallel region.
 */

#ifndef TDFE_BASE_THREAD_POOL_HH
#define TDFE_BASE_THREAD_POOL_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tdfe
{

/**
 * Work-sharing pool. A job is a run cursor plus a body; workers and
 * the waiting thread race on the cursor until every run has been
 * claimed, then the waiter waits for the workers to leave the job.
 */
class ThreadPool
{
  public:
    /**
     * Non-owning reference to a chunk body (object pointer plus
     * trampoline): copying it never allocates. The referenced
     * callable must outlive every call through the reference.
     */
    class ChunkRef
    {
      public:
        template <typename F,
                  typename = std::enable_if_t<
                      !std::is_same_v<std::decay_t<F>, ChunkRef>>>
        ChunkRef(F &&fn) noexcept
            : obj(const_cast<void *>(
                  static_cast<const void *>(std::addressof(fn)))),
              call(&invoke<std::remove_reference_t<F>>)
        {
        }

        /** An empty reference, held by a job never posted; calling
         *  it is undefined. */
        ChunkRef() noexcept = default;

        void operator()(std::size_t c) const { call(obj, c); }

      private:
        template <typename F>
        static void
        invoke(void *obj, std::size_t c)
        {
            (*static_cast<F *>(obj))(c);
        }

        void *obj = nullptr;
        void (*call)(void *, std::size_t) = nullptr;
    };

    /**
     * One unit of pool work, owned by its caller: runChunks keeps one
     * on its stack, a post() caller wherever it likes. The owner must
     * wait() for a posted job before it destroys the job or posts it
     * again. The fields are the pool's; treat them as opaque.
     */
    struct Job
    {
        ChunkRef fn;
        std::size_t nchunks = 0;
        /** Consecutive chunks per claim, and the number of runs. */
        std::size_t run = 1;
        std::size_t nruns = 0;
        /** Next unclaimed run. */
        std::atomic<std::size_t> next{0};
        /** Workers inside the job; changed under the pool mutex. */
        std::atomic<int> active{0};

        /** Queue links, guarded by the pool mutex. @{ */
        Job *prev = nullptr;
        Job *succ = nullptr;
        bool queued = false;
        /** @} */
    };

    /**
     * How long a worker that finished a job spins on the queue
     * before it parks, and how long a caller spins for its job's
     * last workers before it blocks.
     */
    static constexpr std::chrono::microseconds spinWindow{50};

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
     * completed and no worker still refers to @p fn. Safe to call
     * concurrently from several threads and from inside a running
     * chunk. Never allocates.
     */
    void runChunks(std::size_t nchunks, ChunkRef fn);

    /**
     * Queue @p nchunks chunks of @p fn as @p job and return at once;
     * workers pick jobs up in posting order. There is no inline fast
     * path: with zero workers (or all of them busy) the chunks run
     * during wait(), on the waiting thread. @p fn and everything it
     * refers to must stay valid until the job is waited on. A
     * zero-chunk post completes at once and is not queued.
     */
    void post(Job &job, std::size_t nchunks, ChunkRef fn);

    /**
     * Block until @p job completes and no worker is inside it. The
     * caller claims outstanding runs like any worker, so waiting is
     * nested-safe: it makes progress even from inside another job's
     * chunk and with zero workers. Waiting on a job that was never
     * posted, or is already waited for, returns at once.
     */
    void wait(Job &job);

    /** Process-wide shared pool (lazily constructed). */
    static ThreadPool &global();

  private:
    void spawnWorkers();
    void joinWorkers();
    void workerLoop();

    /** Claims per participant: about two runs per thread. */
    std::size_t runLength(std::size_t nchunks) const;

    /** Claim the next run of @p job; @return it, or nruns if the
     *  cursor is spent. */
    std::size_t claim(Job &job);

    /** Run run @p r of @p job, then claim and run more until the
     *  cursor is spent. */
    void helpWith(Job &job, std::size_t r);

    /** Re-arm @p job to run @p nchunks chunks of @p fn. */
    void arm(Job &job, std::size_t nchunks, ChunkRef fn) const;

    /** Queue @p job; wake up to @p helpers parked workers. */
    void enqueue(Job &job, std::size_t helpers);

    /** Drop @p job from the queue if it is still there (mtx held). */
    void unlink(Job &job);

    /** Unlink spent jobs at the head; @return the head (mtx held). */
    Job *claimable();

    /** Unlink @p job and wait for its workers to leave. */
    void retire(Job &job);

    int nThreads = 1;
    std::vector<std::thread> workers;

    /** Guards the queue, the counts and the link fields of jobs. */
    std::mutex mtx;
    /** Parked workers wait here for a job. */
    std::condition_variable work;
    /** Callers wait here for a job's last worker to leave. */
    std::condition_variable idle;
    Job *head = nullptr;
    Job *tail = nullptr;
    int parked = 0;
    int waiters = 0;
    /** Queued jobs with unclaimed runs; spinning workers poll it
     *  without the lock. */
    std::atomic<std::size_t> openJobs{0};
    /** Set (under mtx) to end every worker. */
    std::atomic<bool> shutdown{false};
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
    const auto chunk = [&](std::size_t c) {
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

/** Chunk partials a reduction keeps on the stack per dispatch. */
constexpr std::size_t reduceBatch = 128;

/**
 * Deterministic reduction over [0, n). @p chunk_fn(begin, end)
 * returns the partial for one grain-sized chunk; partials are
 * combined with @p combine serially in chunk order, so the result
 * does not depend on the thread count. T must be default-
 * constructible: partials live in a stack array of reduceBatch, and
 * a range with more chunks is reduced in several dispatches.
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
    T acc = identity;
    if (nchunks == 1 || ThreadPool::global().threadCount() <= 1) {
        for (std::size_t c = 0; c < nchunks; ++c) {
            const std::size_t b = c * grain;
            acc = combine(acc, chunk_fn(b, std::min(n, b + grain)));
        }
        return acc;
    }
    std::array<T, reduceBatch> partials;
    for (std::size_t first = 0; first < nchunks; first += reduceBatch) {
        const std::size_t count = std::min(reduceBatch, nchunks - first);
        // Iterate chunk *indices* (grain 1) rather than the element
        // range, so each partial covers exactly one grain-sized chunk.
        parallelFor(count, std::size_t{1}, [&](std::size_t k) {
            const std::size_t b = (first + k) * grain;
            partials[k] = chunk_fn(b, std::min(n, b + grain));
        });
        for (std::size_t k = 0; k < count; ++k)
            acc = combine(acc, partials[k]);
    }
    return acc;
}

} // namespace tdfe

#endif // TDFE_BASE_THREAD_POOL_HH
