#include "par/thread_comm.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "base/logging.hh"

namespace tdfe
{

ThreadCommWorld::ThreadCommWorld(int nranks) : nRanks(nranks)
{
    TDFE_ASSERT(nranks > 0, "need at least one rank");
}

void
ThreadCommWorld::barrier()
{
    std::unique_lock<std::mutex> lock(mtx);
    const std::uint64_t my_generation = generation;
    if (++arrived == nRanks) {
        arrived = 0;
        ++generation;
        cv.notify_all();
    } else {
        cv.wait(lock, [&] { return generation != my_generation; });
    }
}

void
ThreadCommWorld::run(const std::function<void(Communicator &)> &body)
{
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nRanks));
    for (int r = 0; r < nRanks; ++r) {
        threads.emplace_back([this, r, &body] {
            ThreadCommRank comm(*this, r);
            body(comm);
        });
    }
    for (auto &t : threads)
        t.join();

    TDFE_ASSERT(arrived == 0, "ranks left a barrier half-entered");
    if (!nbOps.empty()) {
        TDFE_WARN(nbOps.size(), " collective(s) were never "
                  "completed by every rank (posted on some ranks "
                  "only); clearing them");
        nbOps.clear();
    }
    for (const auto &[key, queue] : mailboxes) {
        if (!queue.empty()) {
            TDFE_WARN("undelivered messages remain from rank ",
                      std::get<0>(key), " to rank ", std::get<1>(key),
                      " (tag ", std::get<2>(key), ")");
        }
    }
}

ThreadCommRank::ThreadCommRank(ThreadCommWorld &world, int rank)
    : world(world), myRank(rank)
{
}

namespace
{

/** Fold @p v into @p acc with @p op. */
inline double
reduceOne(double acc, double v, ReduceOp op)
{
    switch (op) {
      case ReduceOp::Sum:
        return acc + v;
      case ReduceOp::Min:
        return std::min(acc, v);
      case ReduceOp::Max:
        return std::max(acc, v);
    }
    return acc;
}

} // namespace

/**
 * Per-rank view of one posted collective: completion is observed —
 * and the result copied into this rank's output buffer — only from
 * this rank's own test()/wait() calls.
 */
class ThreadNbOp : public CommOp
{
  public:
    ThreadNbOp(ThreadCommWorld &world,
               std::shared_ptr<NbCollective> op, double *out)
        : world(world), op(std::move(op)), out(out)
    {
    }

    bool
    test() override
    {
        std::lock_guard<std::mutex> lock(world.mtx);
        if (!op->complete)
            return false;
        copyOut();
        return true;
    }

    void
    wait() override
    {
        std::unique_lock<std::mutex> lock(world.mtx);
        world.nbCv.wait(lock, [&] { return op->complete; });
        copyOut();
    }

    bool
    waitFor(double seconds) override
    {
        std::unique_lock<std::mutex> lock(world.mtx);
        const bool done = world.nbCv.wait_for(
            lock,
            std::chrono::duration<double>(std::max(seconds, 0.0)),
            [&] { return op->complete; });
        if (!done)
            return false; // timed out: no result, buffers untouched
        copyOut();
        return true;
    }

  private:
    /** Idempotent: the result is immutable once complete. */
    void
    copyOut()
    {
        if (out)
            std::copy(op->result.begin(), op->result.end(), out);
    }

    ThreadCommWorld &world;
    std::shared_ptr<NbCollective> op;
    double *out;
};

CommRequest
ThreadCommRank::postCollective(bool blocking, NbCollective::Kind kind,
                               const double *contribution,
                               std::size_t count, ReduceOp op,
                               int root, double *out)
{
    // Blocking posts keep their own sequence: a rank that stops
    // posting non-blocking collectives (a silenced or degraded stop
    // protocol) must not shift the pairing of its solver's blocking
    // ones, and vice versa.
    const std::pair<bool, std::uint64_t> key(
        blocking, blocking ? blockingSeq++ : nbSeq++);
    std::shared_ptr<NbCollective> c;
    bool completed = false;
    {
        std::lock_guard<std::mutex> lock(world.mtx);
        auto &slot = world.nbOps[key];
        if (!slot) {
            slot = std::make_shared<NbCollective>();
            slot->kind = kind;
            slot->op = op;
            slot->count = count;
            slot->root = root;
            slot->parts.resize(
                static_cast<std::size_t>(world.nRanks));
        }
        c = slot;
        TDFE_ASSERT(c->kind == kind && c->count == count &&
                        c->root == root && c->op == op,
                    "collective mismatch across ranks (",
                    blocking ? "blocking" : "non-blocking", " slot ",
                    key.second, "): every rank must post the same "
                    "operations in the same order");

        if (contribution) {
            c->parts[static_cast<std::size_t>(myRank)].assign(
                contribution, contribution + count);
        }
        if (++c->contributions == world.nRanks) {
            // Last contributor completes the op: reduce the parts in
            // rank order (deterministic whatever the arrival order)
            // and retire the slot — nobody will look it up again.
            if (kind == NbCollective::Kind::Bcast) {
                c->result =
                    c->parts[static_cast<std::size_t>(c->root)];
            } else {
                c->result = c->parts[0];
                for (int r = 1; r < world.nRanks; ++r) {
                    const auto &part =
                        c->parts[static_cast<std::size_t>(r)];
                    for (std::size_t i = 0; i < count; ++i)
                        c->result[i] = reduceOne(c->result[i],
                                                 part[i], c->op);
                }
            }
            c->parts.clear();
            c->complete = true;
            world.nbOps.erase(key);
            completed = true;
        }
    }
    if (completed)
        world.nbCv.notify_all();
    return CommRequest(
        std::make_shared<ThreadNbOp>(world, std::move(c), out));
}

CommRequest
ThreadCommRank::iallreduce(double value, ReduceOp op, double *result)
{
    return postCollective(false, NbCollective::Kind::Allreduce, &value,
                          1, op, 0, result);
}

CommRequest
ThreadCommRank::iallreduceVec(double *data, std::size_t count,
                              ReduceOp op)
{
    return postCollective(false, NbCollective::Kind::AllreduceVec,
                          data, count, op, 0, data);
}

CommRequest
ThreadCommRank::ibcast(double *data, std::size_t count, int root)
{
    TDFE_ASSERT(root >= 0 && root < size(),
                "ibcast root out of range");
    // Only the root's payload matters; other ranks contribute just
    // their arrival and receive the payload into data at completion.
    return postCollective(false, NbCollective::Kind::Bcast,
                          myRank == root ? data : nullptr, count,
                          ReduceOp::Sum, root, data);
}

void
ThreadCommRank::bcast(double *data, std::size_t count, int root)
{
    TDFE_ASSERT(root >= 0 && root < size(), "bcast root out of range");
    postCollective(true, NbCollective::Kind::Bcast,
                   myRank == root ? data : nullptr, count,
                   ReduceOp::Sum, root, data)
        .wait();
}

double
ThreadCommRank::allreduce(double value, ReduceOp op)
{
    double result = 0.0;
    postCollective(true, NbCollective::Kind::Allreduce, &value, 1, op,
                   0, &result)
        .wait();
    return result;
}

void
ThreadCommRank::allreduceVec(double *data, std::size_t count,
                             ReduceOp op)
{
    postCollective(true, NbCollective::Kind::AllreduceVec, data, count,
                   op, 0, data)
        .wait();
}

void
ThreadCommRank::send(int dest, int tag,
                     const std::vector<double> &payload)
{
    TDFE_ASSERT(dest >= 0 && dest < size(), "send dest out of range");
    {
        std::lock_guard<std::mutex> lock(world.mtx);
        world.mailboxes[{myRank, dest, tag}].push_back(payload);
    }
    world.mailCv.notify_all();
}

std::vector<double>
ThreadCommRank::recv(int src, int tag)
{
    TDFE_ASSERT(src >= 0 && src < size(), "recv src out of range");
    std::unique_lock<std::mutex> lock(world.mtx);
    auto key = std::make_tuple(src, myRank, tag);
    world.mailCv.wait(lock, [&] {
        auto it = world.mailboxes.find(key);
        return it != world.mailboxes.end() && !it->second.empty();
    });
    auto &queue = world.mailboxes[key];
    std::vector<double> out = std::move(queue.front());
    queue.pop_front();
    return out;
}

} // namespace tdfe
