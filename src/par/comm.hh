/**
 * @file
 * Abstract message-passing interface.
 *
 * The paper runs its applications under MPI and uses broadcasts to
 * distribute the current prediction, the rank holding the wave front,
 * and the stop flag (Sec. III-C). This repository has no MPI
 * installation, so the same call pattern is provided behind this
 * interface; ThreadComm (std::thread-backed ranks with real
 * synchronisation) implements it. A single-rank run passes a null
 * communicator instead and makes no communication calls at all.
 *
 * A backend supplies one collective primitive, post(): it posts
 * this rank's part of the next collective and returns a CommRequest
 * that is completed lazily with test()/wait(). The front ends
 * (barrier / allreduce / allreduceVec, which post and wait, and the
 * non-blocking iallreduce / ibcast, which only post) are written
 * once on top of it. Collectives follow MPI's matching rule: every
 * rank must post them in the same order (they pair up by per-rank
 * sequence number, not by content). Blocking collectives count a
 * sequence of their own, so the two kinds never pair with each
 * other. The caller's buffers must stay valid until the request has
 * completed or been dropped. Results only ever land in the caller's
 * buffers from the caller's own thread, inside a successful test()
 * or a wait() — never asynchronously — so dropping a request
 * without completing it is always safe: the contribution made at
 * post time still completes the collective for the other ranks,
 * only this rank's output is never written.
 */

#ifndef TDFE_PAR_COMM_HH
#define TDFE_PAR_COMM_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace tdfe
{

/** Reduction operators of the reducing collectives. */
enum class ReduceOp
{
    Sum,
    Min,
    Max,
};

/**
 * Completion state of one in-flight non-blocking collective.
 * Implementations are provided by the concrete communicators;
 * CommRequest is the only user of this interface.
 */
class CommOp
{
  public:
    virtual ~CommOp() = default;

    /**
     * Poll for completion. @return true once the collective has
     * completed — the result has then been copied into the caller's
     * buffers. Idempotent: further calls keep returning true.
     */
    virtual bool test() = 0;

    /** Block until the collective completes (results landed). */
    virtual void wait() = 0;

    /**
     * Block up to @p seconds for completion. @return true once the
     * collective has completed (results landed), false on timeout —
     * the operation is then still outstanding and the caller owns
     * the degrade decision (typically: adopt the last known value
     * and drop the request). The default suits backends whose ops
     * cannot stall (they complete inline): it just waits.
     */
    virtual bool
    waitFor(double seconds)
    {
        (void)seconds;
        wait();
        return true;
    }
};

/**
 * Handle of one posted non-blocking collective. Value type; a
 * default-constructed (or reset) request counts as complete. Copies
 * share the same underlying operation, and completing any copy
 * completes them all. Requests must not outlive the communicator
 * that issued them.
 */
class CommRequest
{
  public:
    CommRequest() = default;

    /** Wrap implementation state (communicators only). */
    explicit CommRequest(std::shared_ptr<CommOp> op)
        : op(std::move(op))
    {
    }

    /** @return true while an operation is attached (it may already
     *  have completed; this does not poll). */
    bool valid() const { return static_cast<bool>(op); }

    /** Poll; @return true once complete (null request: true). */
    bool
    test()
    {
        return !op || op->test();
    }

    /** Block until complete (null request: no-op). */
    void
    wait()
    {
        if (op)
            op->wait();
    }

    /**
     * Block up to @p seconds; @return true once complete (null
     * request: true immediately). On false the request is still
     * attached — the comm-watchdog caller decides whether to keep
     * polling or degrade and reset().
     */
    bool
    waitFor(double seconds)
    {
        return !op || op->waitFor(seconds);
    }

    /** Detach from the operation (outstanding ops complete anyway). */
    void reset() { op.reset(); }

  private:
    std::shared_ptr<CommOp> op;
};

/** Which per-rank sequence a collective post is counted in. */
enum class CollectiveSeq
{
    Blocking,
    NonBlocking,
};

/** Shape of one collective post. */
enum class CollectiveKind
{
    Allreduce,
    AllreduceVec,
    Bcast,
    Barrier,
};

/**
 * Minimal communicator: the subset of MPI the paper's library and
 * the rank-decomposed solvers actually use. A backend implements
 * rank(), size(), post(), send() and recv(); every collective front
 * end below is written once on top of post().
 */
class Communicator
{
  public:
    virtual ~Communicator() = default;

    /** @return this rank's id in [0, size()). */
    virtual int rank() const = 0;

    /** @return number of ranks in the communicator. */
    virtual int size() const = 0;

    /**
     * The backend's one collective primitive: post this rank's part
     * of the next collective in sequence @p seq and return its
     * request. Ranks pair posts by per-rank position within a
     * sequence; blocking and non-blocking posts count separate
     * sequences, so the two kinds never pair with each other. Every
     * rank must post the same (@p kind, @p count, @p op, @p root) at
     * the same position; a mismatch is a caller bug.
     *
     * @p contribution (@p count doubles; null for a non-root Bcast
     * and for a Barrier) is copied before the call returns. Reducing
     * kinds fold the contributions in rank order, so a result never
     * depends on arrival order and the blocking and non-blocking
     * paths agree bitwise. Bcast delivers the root's contribution.
     * The result is written to @p out (null: discarded) only from
     * the caller's own thread, inside a successful test() or a
     * wait() on the returned request.
     */
    virtual CommRequest post(CollectiveSeq seq, CollectiveKind kind,
                             const double *contribution,
                             std::size_t count, ReduceOp op, int root,
                             double *out) = 0;

    /** Block until every rank has entered the barrier. */
    void barrier();

    /** Reduce one double across ranks; every rank gets the result. */
    double allreduce(double value, ReduceOp op);

    /**
     * Elementwise in-place reduction of @p count doubles across all
     * ranks (used to gather distributed probe lines: owners
     * contribute values, the rest contribute zeros, Sum merges).
     */
    void allreduceVec(double *data, std::size_t count, ReduceOp op);

    /**
     * Non-blocking allreduce of one double. The rank's contribution
     * is captured before the call returns; the reduced value is
     * written to @p *result (which must stay valid until then) when
     * the returned request first tests true or wait() returns. The
     * result is bitwise identical to the blocking allreduce().
     */
    CommRequest iallreduce(double value, ReduceOp op, double *result);

    /**
     * Non-blocking broadcast of @p count doubles from @p root. The
     * root's payload is captured at post time; every other rank's
     * @p data is overwritten at completion and must stay valid until
     * then (or until the request is dropped).
     */
    CommRequest ibcast(double *data, std::size_t count, int root);

    /**
     * Non-blocking enqueue of a message to @p dest: the payload is
     * copied into the destination mailbox before the call returns,
     * with no rendezvous — the send completes even if the receiver
     * never posts a matching recv before the world shuts down (it is
     * then reported as undelivered). Messages from one (src, dest)
     * pair with the same tag are delivered in send order (FIFO per
     * tag); ordering across different tags or different senders is
     * unspecified.
     */
    virtual void send(int dest, int tag,
                      const std::vector<double> &payload) = 0;

    /** Blocking receive of the next message from @p src with @p tag. */
    virtual std::vector<double> recv(int src, int tag) = 0;
};

} // namespace tdfe

#endif // TDFE_PAR_COMM_HH
