/**
 * @file
 * Tests of the parallel-compute backbone: determinism of
 * parallelReduce across thread counts, nested use from inside
 * ThreadComm rank bodies (no deadlock), empty/short ranges,
 * concurrent submissions from independent threads, and resizing
 * while workers spin. Jobs live on their caller's stack, so the
 * ASan build of this binary also catches a worker touching a job
 * after its caller returned.
 */

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.hh"
#include "par/thread_comm.hh"

namespace
{

using namespace tdfe;

/** Deterministic pseudo-random payload. */
std::vector<double>
payload(std::size_t n)
{
    std::vector<double> v(n);
    double x = 0.37;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 1.7 - static_cast<long>(x * 1.7) + 0.1;
        v[i] = x;
    }
    return v;
}

double
reduceSum(const std::vector<double> &v, std::size_t grain)
{
    return parallelReduce(
        v.size(), grain, 0.0,
        [&](std::size_t b, std::size_t e) {
            double acc = 0.0;
            for (std::size_t i = b; i < e; ++i)
                acc += v[i];
            return acc;
        },
        [](double a, double b) { return a + b; });
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 10007; // prime: ragged last chunk
    std::vector<int> hits(n, 0);
    parallelFor(n, std::size_t{64}, [&](std::size_t i) {
        ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, EmptyAndShortRanges)
{
    int calls = 0;
    parallelFor(std::size_t{0}, std::size_t{8},
                [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    parallelForRange(std::size_t{0}, std::size_t{8},
                     [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    // A range smaller than one grain runs inline as a single chunk.
    std::vector<int> hits(3, 0);
    parallelFor(hits.size(), std::size_t{1024},
                [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(hits[0] + hits[1] + hits[2], 3);

    // Single-element reduction.
    const std::vector<double> one{42.0};
    EXPECT_DOUBLE_EQ(reduceSum(one, 16), 42.0);
}

TEST(ParallelReduce, BitwiseIdenticalAcrossThreadCounts)
{
    const std::vector<double> v = payload(65537);
    constexpr std::size_t grain = 512;

    const int original = globalThreadCount();
    setGlobalThreadCount(1);
    const double serial_sum = reduceSum(v, grain);
    const double serial_min = parallelReduce(
        v.size(), grain, 1e30,
        [&](std::size_t b, std::size_t e) {
            double m = 1e30;
            for (std::size_t i = b; i < e; ++i)
                m = std::min(m, v[i]);
            return m;
        },
        [](double a, double b) { return std::min(a, b); });

    for (const int threads : {2, 3, 4, 8}) {
        setGlobalThreadCount(threads);
        EXPECT_EQ(reduceSum(v, grain), serial_sum)
            << "sum drifted at " << threads << " threads";
        const double min_n = parallelReduce(
            v.size(), grain, 1e30,
            [&](std::size_t b, std::size_t e) {
                double m = 1e30;
                for (std::size_t i = b; i < e; ++i)
                    m = std::min(m, v[i]);
                return m;
            },
            [](double a, double b) { return std::min(a, b); });
        EXPECT_EQ(min_n, serial_min)
            << "min drifted at " << threads << " threads";
    }
    setGlobalThreadCount(original);
}

TEST(ParallelReduce, MatchesKnownClosedForm)
{
    // sum of 1..n with a grain that does not divide n.
    const std::size_t n = 12345;
    const double sum = parallelReduce(
        n, std::size_t{100}, 0.0,
        [](std::size_t b, std::size_t e) {
            double acc = 0.0;
            for (std::size_t i = b; i < e; ++i)
                acc += static_cast<double>(i + 1);
            return acc;
        },
        [](double a, double b) { return a + b; });
    EXPECT_DOUBLE_EQ(sum, 0.5 * 12345.0 * 12346.0);
}

TEST(ParallelFor, NestedInsideParallelForMakesProgress)
{
    const int original = globalThreadCount();
    setGlobalThreadCount(4);
    std::atomic<long> total{0};
    parallelFor(std::size_t{16}, std::size_t{1}, [&](std::size_t) {
        // Inner region submitted from a worker (or the caller):
        // the submitting thread participates, so this completes
        // even with every other thread busy.
        long local = 0;
        std::vector<long> partial(8, 0);
        parallelFor(std::size_t{8}, std::size_t{1},
                    [&](std::size_t j) {
                        partial[j] = static_cast<long>(j);
                    });
        for (const long p : partial)
            local += p;
        total += local;
    });
    EXPECT_EQ(total.load(), 16 * 28);
    setGlobalThreadCount(original);
}

TEST(ParallelFor, NestedInsideThreadCommRanksDoesNotDeadlock)
{
    const int original = globalThreadCount();
    setGlobalThreadCount(2); // fewer pool threads than ranks

    constexpr int nranks = 4;
    ThreadCommWorld world(nranks);
    std::vector<double> sums(nranks, 0.0);
    const std::vector<double> v = payload(4096);

    world.run([&](Communicator &comm) {
        // Every rank drives its own parallel region concurrently,
        // then synchronises — the pattern the solvers use when a
        // ThreadComm-decomposed run also fans out loops.
        const double s = reduceSum(v, 256);
        sums[static_cast<std::size_t>(comm.rank())] = s;
        comm.barrier();
        const double all = comm.allreduce(s, ReduceOp::Sum);
        EXPECT_NEAR(all, s * nranks, 1e-9);
    });

    for (int r = 1; r < nranks; ++r)
        EXPECT_EQ(sums[r], sums[0]);
    setGlobalThreadCount(original);
}

TEST(ThreadPool, ResizeAndEnvSizing)
{
    EXPECT_GE(configuredThreadCount(), 1);
    ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3);

    std::atomic<int> runs{0};
    const std::function<void(std::size_t)> fn =
        [&](std::size_t) { ++runs; };
    pool.runChunks(10, fn);
    EXPECT_EQ(runs.load(), 10);

    pool.resize(1);
    EXPECT_EQ(pool.threadCount(), 1);
    pool.runChunks(5, fn);
    EXPECT_EQ(runs.load(), 15);
}

TEST(ThreadPool, PostWaitRunsEveryChunkOnce)
{
    ThreadPool pool(3);

    // A zero-chunk job runs nothing; wait returns at once, as it
    // does for a job never posted.
    ThreadPool::Job never;
    pool.wait(never);
    ThreadPool::Job empty;
    const auto fail = [](std::size_t) { FAIL(); };
    pool.post(empty, 0, fail);
    pool.wait(empty);

    // Posted chunks complete exactly once each by the time wait()
    // returns.
    std::vector<std::atomic<int>> hits(64);
    const auto count = [&](std::size_t c) { ++hits[c]; };
    ThreadPool::Job job;
    pool.post(job, hits.size(), count);
    pool.wait(job);
    for (std::size_t c = 0; c < hits.size(); ++c)
        ASSERT_EQ(hits[c].load(), 1) << "chunk " << c;

    // Zero workers: nothing runs until the waiter helps.
    ThreadPool solo(1);
    std::atomic<int> solo_runs{0};
    const auto solo_body = [&](std::size_t) { ++solo_runs; };
    ThreadPool::Job deferred;
    solo.post(deferred, 8, solo_body);
    EXPECT_EQ(solo_runs.load(), 0);
    solo.wait(deferred);
    EXPECT_EQ(solo_runs.load(), 8);
}

TEST(ThreadPool, APostedJobRunsAgainWhenPostedAgain)
{
    // The owner re-arms one job per epoch, as a Region does.
    for (const int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        constexpr std::size_t chunks = 5;
        constexpr int epochs = 200;
        std::vector<std::atomic<int>> hits(chunks);
        const auto body = [&](std::size_t c) { ++hits[c]; };
        ThreadPool::Job job;
        for (int e = 1; e <= epochs; ++e) {
            pool.post(job, chunks, body);
            pool.wait(job);
            for (std::size_t c = 0; c < chunks; ++c)
                ASSERT_EQ(hits[c].load(), e)
                    << threads << " threads, epoch " << e
                    << ", chunk " << c;
        }
    }
}

/**
 * Holds every worker of a pool inside one posted job, one blocking
 * chunk per worker, for the occupier's lifetime.
 */
class WorkerOccupier
{
  public:
    explicit WorkerOccupier(ThreadPool &pool)
        : pool(pool),
          workers(static_cast<std::size_t>(pool.threadCount() - 1))
    {
        pool.post(job, workers, *this);
        while (entered.load() < workers)
            std::this_thread::yield();
    }

    /** Lets the chunks return, and waits for the job. */
    ~WorkerOccupier()
    {
        released = true;
        pool.wait(job);
        EXPECT_EQ(entered.load(), workers);
    }

    void
    operator()(std::size_t)
    {
        entered.fetch_add(1);
        while (!released.load())
            std::this_thread::yield();
    }

  private:
    ThreadPool &pool;
    const std::size_t workers;
    std::atomic<std::size_t> entered{0};
    std::atomic<bool> released{false};
    ThreadPool::Job job;
};

TEST(ThreadPool, ConcurrentRunChunksBesideAPendingPost)
{
    ThreadPool pool(4);
    // A slow posted job is queued first and holds a worker while
    // three threads dispatch their own jobs.
    std::atomic<bool> release{false};
    std::atomic<int> slow_runs{0};
    const auto slow_body = [&](std::size_t) {
        while (!release.load())
            std::this_thread::yield();
        ++slow_runs;
    };
    ThreadPool::Job slow;
    pool.post(slow, 1, slow_body);

    constexpr int callers = 3;
    constexpr std::size_t chunks = 257;
    constexpr int rounds = 50;
    std::vector<std::vector<std::atomic<int>>> hits(callers);
    for (auto &h : hits)
        h = std::vector<std::atomic<int>>(chunks);
    std::vector<std::thread> threads;
    for (int t = 0; t < callers; ++t) {
        threads.emplace_back([&, t] {
            for (int r = 0; r < rounds; ++r) {
                pool.runChunks(chunks, [&](std::size_t c) {
                    hits[static_cast<std::size_t>(t)][c].fetch_add(1);
                });
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(slow_runs.load(), 0);
    release = true;
    pool.wait(slow);
    EXPECT_EQ(slow_runs.load(), 1);

    for (int t = 0; t < callers; ++t) {
        for (std::size_t c = 0; c < chunks; ++c) {
            ASSERT_EQ(hits[static_cast<std::size_t>(t)][c].load(),
                      rounds)
                << "caller " << t << " chunk " << c;
        }
    }
}

TEST(ThreadPool, ResizeWhileWorkersSpinStaysUsable)
{
    ThreadPool pool(4);
    std::atomic<long> runs{0};
    const auto body = [&](std::size_t) { ++runs; };
    constexpr int rounds = 20;
    for (int r = 0; r < rounds; ++r) {
        // Each resize follows a job at once, while the workers are
        // still in their post-job spin; it must end the spin.
        pool.runChunks(64, body);
        pool.resize(1);
        EXPECT_EQ(pool.threadCount(), 1);
        pool.runChunks(8, body);
        pool.resize(4);
        EXPECT_EQ(pool.threadCount(), 4);
    }
    pool.runChunks(64, body);
    EXPECT_EQ(runs.load(), rounds * (64 + 8) + 64);
}

TEST(ThreadPool, NestedBatchedRunChunksFinishOnTheCallerAlone)
{
    ThreadPool pool(4);
    WorkerOccupier busy(pool);

    // Every worker is blocked, so the caller claims every run of the
    // outer job (runs of several chunks at 4 threads) and of each
    // nested inner job itself.
    const std::thread::id caller = std::this_thread::get_id();
    constexpr std::size_t outer = 32;
    constexpr std::size_t inner = 24;
    std::vector<int> hits(outer * inner, 0);
    std::atomic<int> off_caller{0};
    pool.runChunks(outer, [&](std::size_t o) {
        pool.runChunks(inner, [&](std::size_t i) {
            if (std::this_thread::get_id() != caller)
                ++off_caller;
            ++hits[o * inner + i];
        });
    });
    EXPECT_EQ(off_caller.load(), 0);
    for (std::size_t k = 0; k < hits.size(); ++k)
        ASSERT_EQ(hits[k], 1) << "chunk " << k;
}

TEST(ThreadPool, ThrowOnTheCallerWaitsForWorkersAndRethrows)
{
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 20; ++round) {
        // Workers hold their first run until the caller has entered
        // one, so the caller always claims a chunk and throws.
        std::atomic<bool> thrown{false};
        std::atomic<int> runs{0};
        const auto body = [&](std::size_t) {
            if (std::this_thread::get_id() == caller) {
                thrown = true;
                throw std::runtime_error("chunk failed");
            }
            while (!thrown.load())
                std::this_thread::yield();
            ++runs;
        };
        EXPECT_THROW(pool.runChunks(64, body), std::runtime_error);
        // The stack job is gone; the pool must still work.
        std::atomic<int> after{0};
        pool.runChunks(64, [&](std::size_t) { ++after; });
        EXPECT_EQ(after.load(), 64);
        EXPECT_LT(runs.load(), 64);
    }
}

} // namespace
