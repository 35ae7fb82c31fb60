/**
 * @file
 * Thread-backed rank emulation.
 *
 * ThreadCommWorld::run(nranks, body) spawns one std::thread per rank
 * and hands each a Communicator bound to shared state. The one
 * collective primitive, post(), completes through shared
 * per-sequence slots — every collective, barrier included, is a post
 * (blocking front ends then wait) — and point-to-point messages flow
 * through mutex-protected mailboxes. This gives the paper's MPI call
 * pattern real synchronisation cost (which the overhead tables
 * measure) without an MPI installation. A one-rank world completes
 * every collective at post time.
 */

#ifndef TDFE_PAR_THREAD_COMM_HH
#define TDFE_PAR_THREAD_COMM_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "par/comm.hh"

namespace tdfe
{

/**
 * Shared state of one in-flight collective slot; the matching and
 * fold rules are Communicator::post's. The last rank to post folds
 * the parts in rank order. Each rank then copies the result into
 * its own output buffer from its own thread, at its first
 * successful test() or at wait() — never from another rank's
 * thread, so a rank may drop its request (and even free its
 * buffers) without affecting the rest.
 */
struct NbCollective
{
    CollectiveKind kind = CollectiveKind::Allreduce;
    ReduceOp op = ReduceOp::Sum;
    std::size_t count = 0;
    int root = 0;
    int contributions = 0;
    /** Per-rank contributions (bcast: only parts[root] is used;
     *  barrier: all empty). */
    std::vector<std::vector<double>> parts;
    /** Reduced/broadcast payload, written by the last contributor. */
    std::vector<double> result;
    bool complete = false;
};

/**
 * Owns the shared synchronisation state for a set of thread ranks
 * and runs a rank body across all of them.
 */
class ThreadCommWorld
{
  public:
    /** @param nranks Number of emulated ranks (threads). */
    explicit ThreadCommWorld(int nranks);

    /**
     * Execute @p body once per rank, each on its own thread, and
     * join. The Communicator passed in is valid only for the call.
     */
    void run(const std::function<void(Communicator &)> &body);

    /** @return configured rank count. */
    int size() const { return nRanks; }

  private:
    friend class ThreadCommRank;
    friend class ThreadNbOp;

    int nRanks;

    std::mutex mtx;

    // In-flight collectives keyed by (blocking?, sequence slot); the
    // last contributor completes the op and erases the entry (the
    // requests keep the shared state alive).
    std::map<std::pair<bool, std::uint64_t>,
             std::shared_ptr<NbCollective>> nbOps;
    std::condition_variable nbCv;

    // Mailboxes keyed by (src, dest, tag).
    std::map<std::tuple<int, int, int>,
             std::deque<std::vector<double>>> mailboxes;
    std::condition_variable mailCv;
};

/**
 * Per-rank Communicator view onto a ThreadCommWorld. Instances are
 * created by ThreadCommWorld::run and passed to the rank body.
 */
class ThreadCommRank : public Communicator
{
  public:
    ThreadCommRank(ThreadCommWorld &world, int rank);

    int rank() const override { return myRank; }
    int size() const override { return world.nRanks; }
    CommRequest post(CollectiveSeq seq, CollectiveKind kind,
                     const double *contribution, std::size_t count,
                     ReduceOp op, int root, double *out) override;
    void send(int dest, int tag,
              const std::vector<double> &payload) override;
    std::vector<double> recv(int src, int tag) override;

  private:
    ThreadCommWorld &world;
    int myRank;
    /** Next slot this rank will post into, per sequence. @{ */
    std::uint64_t nbSeq = 0;
    std::uint64_t blockingSeq = 0;
    /** @} */
};

} // namespace tdfe

#endif // TDFE_PAR_THREAD_COMM_HH
