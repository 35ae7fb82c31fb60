#include "base/thread_pool.hh"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "base/logging.hh"

namespace tdfe
{

int
parseThreadCount(const char *text)
{
    if (text == nullptr || *text == '\0')
        return 0;
    errno = 0;
    char *end = nullptr;
    const long n = std::strtol(text, &end, 10);
    if (errno != 0 || *end != '\0' || n < 1 || n > maxThreadCount)
        return 0;
    return static_cast<int>(n);
}

int
configuredThreadCount()
{
    if (const char *env = std::getenv("TDFE_NUM_THREADS")) {
        if (const int n = parseThreadCount(env))
            return n;
        TDFE_WARN("ignoring invalid TDFE_NUM_THREADS='", env,
                  "' (want 1..", maxThreadCount, ")");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace
{

/** Hint to the core that this thread is spinning. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

using Clock = std::chrono::steady_clock;

/**
 * Spin until @p ready() holds or @p deadline has passed.
 * @return the last value of @p ready().
 */
template <typename Ready>
bool
spinUntil(Clock::time_point deadline, Ready &&ready)
{
    constexpr int pollsPerClockRead = 32;
    for (;;) {
        for (int k = 0; k < pollsPerClockRead; ++k) {
            if (ready())
                return true;
            cpuRelax();
        }
        if (Clock::now() >= deadline)
            return ready();
    }
}

/**
 * Take @p lock, polling try_lock for a moment before blocking. The
 * pool's critical sections are a few dozen instructions, and a
 * thread that sleeps on the mutex costs a futex round trip to wake.
 */
void
lockSoon(std::unique_lock<std::mutex> &lock)
{
    constexpr int tries = 64;
    for (int k = 0; k < tries; ++k) {
        if (lock.try_lock())
            return;
        cpuRelax();
    }
    lock.lock();
}

} // namespace

ThreadPool::ThreadPool(int threads)
{
    nThreads = threads > 0 ? threads : configuredThreadCount();
    spawnWorkers();
}

ThreadPool::~ThreadPool()
{
    joinWorkers();
}

void
ThreadPool::spawnWorkers()
{
    shutdown.store(false, std::memory_order_relaxed);
    workers.reserve(static_cast<std::size_t>(nThreads - 1));
    for (int w = 1; w < nThreads; ++w)
        workers.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::joinWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        shutdown.store(true, std::memory_order_relaxed);
    }
    work.notify_all();
    for (std::thread &w : workers)
        w.join();
    workers.clear();
}

void
ThreadPool::resize(int threads)
{
    const int n = threads > 0 ? threads : configuredThreadCount();
    if (n == nThreads)
        return;
    joinWorkers();
    nThreads = n;
    spawnWorkers();
}

std::size_t
ThreadPool::runLength(std::size_t nchunks) const
{
    const std::size_t runs = 2 * static_cast<std::size_t>(nThreads);
    return std::max<std::size_t>(1, nchunks / runs);
}

std::size_t
ThreadPool::claim(Job &job)
{
    const std::size_t r = job.next.fetch_add(1, std::memory_order_relaxed);
    if (r >= job.nruns)
        return job.nruns;
    if (r + 1 == job.nruns)
        openJobs.fetch_sub(1, std::memory_order_relaxed);
    return r;
}

void
ThreadPool::helpWith(Job &job, std::size_t r)
{
    for (; r < job.nruns; r = claim(job)) {
        const std::size_t b = r * job.run;
        const std::size_t e = std::min(job.nchunks, b + job.run);
        for (std::size_t c = b; c < e; ++c)
            job.fn(c);
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mtx);
    bool spin = false; // a freshly spawned worker parks at once
    for (;;) {
        if (spin) {
            // Spin out the whole window. A spinner takes the lock only
            // while some job has unclaimed runs, and only when the
            // lock is free, so it never sleeps on the mutex; a job
            // that others spent first does not end the spin.
            const auto deadline = Clock::now() + spinWindow;
            while (claimable() == nullptr && !shutdown) {
                lock.unlock();
                const bool locked = spinUntil(deadline, [&] {
                    return (openJobs.load(std::memory_order_relaxed) !=
                                0 ||
                            shutdown.load(std::memory_order_relaxed)) &&
                           lock.try_lock();
                });
                if (!locked) {
                    lock.lock();
                    break;
                }
            }
        }
        if (claimable() == nullptr && !shutdown) {
            ++parked;
            work.wait(lock, [this] {
                return claimable() != nullptr || shutdown;
            });
            --parked;
        }
        if (shutdown)
            return;

        // Join the job only with a run in hand, so the caller never
        // waits for a worker that had nothing left to do.
        Job &job = *head;
        spin = true;
        const std::size_t first = claim(job);
        if (first == job.nruns) {
            unlink(job);
            continue;
        }
        job.active.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        helpWith(job, first);
        lockSoon(lock);
        // The cursor is spent: drop the job from the queue, then
        // leave it. Its owner may destroy it the moment `active`
        // reaches zero, so nothing below touches it.
        unlink(job);
        job.active.fetch_sub(1, std::memory_order_release);
        if (waiters > 0)
            idle.notify_all();
    }
}

void
ThreadPool::arm(Job &job, std::size_t nchunks, ChunkRef fn) const
{
    job.fn = fn;
    job.nchunks = nchunks;
    job.run = runLength(nchunks);
    job.nruns = (nchunks + job.run - 1) / job.run;
    job.next.store(0, std::memory_order_relaxed);
}

void
ThreadPool::enqueue(Job &job, std::size_t helpers)
{
    std::size_t wake = 0;
    {
        std::unique_lock<std::mutex> lock(mtx, std::defer_lock);
        lockSoon(lock);
        job.prev = tail;
        job.succ = nullptr;
        (tail ? tail->succ : head) = &job;
        tail = &job;
        job.queued = true;
        openJobs.fetch_add(1, std::memory_order_relaxed);
        wake = std::min(helpers, static_cast<std::size_t>(parked));
    }
    for (std::size_t k = 0; k < wake; ++k)
        work.notify_one();
}

void
ThreadPool::unlink(Job &job)
{
    if (!job.queued)
        return;
    (job.prev ? job.prev->succ : head) = job.succ;
    (job.succ ? job.succ->prev : tail) = job.prev;
    job.prev = job.succ = nullptr;
    job.queued = false;
    // Close the cursor. Only a job whose caller is unwinding from a
    // throwing chunk still has unclaimed runs here; it runs no more
    // of them.
    if (job.next.exchange(job.nruns, std::memory_order_relaxed) <
        job.nruns)
        openJobs.fetch_sub(1, std::memory_order_relaxed);
}

ThreadPool::Job *
ThreadPool::claimable()
{
    // A linked job is alive (its owner unlinks it before leaving),
    // so its cursor can be read here.
    while (head != nullptr &&
           head->next.load(std::memory_order_relaxed) >= head->nruns)
        unlink(*head);
    return head;
}

void
ThreadPool::retire(Job &job)
{
    const auto left = [&job] {
        return job.active.load(std::memory_order_acquire) == 0;
    };
    std::unique_lock<std::mutex> lock(mtx, std::defer_lock);
    lockSoon(lock);
    // Unlinked, the job gains no new workers; `active` only falls.
    unlink(job);
    if (left())
        return;
    lock.unlock();
    if (spinUntil(Clock::now() + spinWindow, left))
        return;
    lock.lock();
    ++waiters;
    idle.wait(lock, left);
    --waiters;
}

void
ThreadPool::wait(Job &job)
{
    // Retire even if a chunk throws on this thread: workers may
    // still be inside a job its caller is about to free.
    struct Retire
    {
        ThreadPool &pool;
        Job &job;
        ~Retire() { pool.retire(job); }
    } retire_on_exit{*this, job};

    // Participate: the waiter claims runs like any worker, so the
    // job completes even if every worker is busy elsewhere
    // (including the nested case where *this thread* is a worker).
    helpWith(job, claim(job));
}

void
ThreadPool::post(Job &job, std::size_t nchunks, ChunkRef fn)
{
    TDFE_ASSERT(!job.queued, "post of a job that was not waited for");
    arm(job, nchunks, fn);
    // The poster does not join until wait(), so every run may go to
    // a worker.
    if (job.nruns > 0)
        enqueue(job, job.nruns);
}

void
ThreadPool::runChunks(std::size_t nchunks, ChunkRef fn)
{
    if (nchunks == 0)
        return;
    if (nchunks == 1 || workers.empty()) {
        for (std::size_t c = 0; c < nchunks; ++c)
            fn(c);
        return;
    }

    Job job;
    arm(job, nchunks, fn);
    enqueue(job, job.nruns - 1);
    wait(job);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

void
setGlobalThreadCount(int threads)
{
    ThreadPool::global().resize(threads);
}

int
globalThreadCount()
{
    return ThreadPool::global().threadCount();
}

} // namespace tdfe
