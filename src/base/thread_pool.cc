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
    shutdown = false;
    workers.reserve(static_cast<std::size_t>(nThreads - 1));
    for (int w = 1; w < nThreads; ++w)
        workers.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::joinWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        shutdown = true;
    }
    cv.notify_all();
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

void
ThreadPool::helpWith(Job &job)
{
    for (;;) {
        const std::size_t c =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= job.nchunks)
            return;
        (*job.fn)(c);
        if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            job.nchunks) {
            // Last chunk: wake the submitter (it may already be
            // waiting on the job's condition variable).
            std::lock_guard<std::mutex> lock(job.m);
            job.cv.notify_all();
        }
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cv.wait(lock,
                    [this] { return shutdown || !pending.empty(); });
            if (shutdown)
                return;
            job = pending.front();
        }
        helpWith(*job);
        {
            // The job's cursor is spent; drop it from the queue if
            // another helper has not done so already.
            std::lock_guard<std::mutex> lock(mtx);
            for (auto it = pending.begin(); it != pending.end(); ++it) {
                if (it->get() == job.get()) {
                    pending.erase(it);
                    break;
                }
            }
        }
    }
}

void
ThreadPool::enqueue(const std::shared_ptr<Job> &job)
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        pending.push_back(job);
    }
    cv.notify_all();
}

void
ThreadPool::awaitJob(const std::shared_ptr<Job> &job)
{
    // Participate: the waiter claims chunks like any worker, so the
    // job completes even if every worker is busy elsewhere
    // (including the nested case where *this thread* is a worker).
    helpWith(*job);

    {
        std::lock_guard<std::mutex> lock(mtx);
        for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (it->get() == job.get()) {
                pending.erase(it);
                break;
            }
        }
    }

    if (job->done.load(std::memory_order_acquire) != job->nchunks) {
        std::unique_lock<std::mutex> lock(job->m);
        job->cv.wait(lock, [&job] {
            return job->done.load(std::memory_order_acquire) ==
                   job->nchunks;
        });
    }
}

void
ThreadPool::runChunks(std::size_t nchunks,
                      const std::function<void(std::size_t)> &fn)
{
    if (nchunks == 0)
        return;
    if (nchunks == 1 || workers.empty()) {
        for (std::size_t c = 0; c < nchunks; ++c)
            fn(c);
        return;
    }

    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->nchunks = nchunks;
    enqueue(job);
    awaitJob(job);
}

ThreadPool::JobHandle
ThreadPool::submit(std::size_t nchunks,
                   std::function<void(std::size_t)> fn)
{
    auto job = std::make_shared<Job>();
    job->owned = std::move(fn);
    job->fn = &job->owned;
    job->nchunks = nchunks;
    if (nchunks == 0) {
        // Nothing to run: return an already-completed token so
        // finished()/wait() stay uniform for the caller.
        return job;
    }
    enqueue(job);
    return job;
}

bool
ThreadPool::finished(const JobHandle &job)
{
    return !job ||
           job->done.load(std::memory_order_acquire) == job->nchunks;
}

void
ThreadPool::wait(const JobHandle &job)
{
    if (!job || job->nchunks == 0)
        return;
    awaitJob(job);
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
