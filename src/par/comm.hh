/**
 * @file
 * Abstract message-passing interface.
 *
 * The paper runs its applications under MPI and uses broadcasts to
 * distribute the current prediction, the rank holding the wave front,
 * and the stop flag (Sec. III-C). This repository has no MPI
 * installation, so the same call pattern is provided behind this
 * interface with two implementations: SerialComm (single rank) and
 * ThreadComm (std::thread-backed ranks with real synchronisation).
 *
 * Besides the blocking collectives the interface offers non-blocking
 * ones (iallreduce / iallreduceVec / ibcast) returning a CommRequest
 * that is completed lazily with test()/wait(). They follow MPI's
 * matching rule: every rank must post its non-blocking collectives in
 * the same order (they pair up by per-rank sequence number, not by
 * content). Blocking collectives count a sequence of their own, so
 * the two kinds never pair with each other. The caller's buffers
 * must stay valid until the request has completed or been dropped.
 * Results only ever land in the caller's buffers from the caller's
 * own thread, inside a successful test() or a wait() — never
 * asynchronously — so dropping a request without completing it is
 * always safe: the contribution made at post time still completes
 * the collective for the other ranks, only this rank's output is
 * never written.
 */

#ifndef TDFE_PAR_COMM_HH
#define TDFE_PAR_COMM_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace tdfe
{

/** Reduction operators for allreduce(). */
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

/**
 * Minimal communicator: the subset of MPI the paper's library and
 * the rank-decomposed solvers actually use.
 */
class Communicator
{
  public:
    virtual ~Communicator() = default;

    /** @return this rank's id in [0, size()). */
    virtual int rank() const = 0;

    /** @return number of ranks in the communicator. */
    virtual int size() const = 0;

    /** Block until every rank has entered the barrier. */
    virtual void barrier() = 0;

    /**
     * Broadcast @p count doubles from @p root to all ranks.
     * @p data is both input (on root) and output (elsewhere).
     */
    virtual void bcast(double *data, std::size_t count, int root) = 0;

    /** Reduce one double across ranks; every rank gets the result. */
    virtual double allreduce(double value, ReduceOp op) = 0;

    /**
     * Elementwise in-place reduction of @p count doubles across all
     * ranks (used to gather distributed probe lines: owners
     * contribute values, the rest contribute zeros, Sum merges).
     */
    virtual void allreduceVec(double *data, std::size_t count,
                              ReduceOp op) = 0;

    /**
     * Non-blocking allreduce of one double. The rank's contribution
     * is captured before the call returns; the reduced value is
     * written to @p *result (which must stay valid until then) when
     * the returned request first tests true or wait() returns. The
     * reduction combines contributions in rank order, so the result
     * is bitwise identical to the blocking allreduce().
     */
    virtual CommRequest iallreduce(double value, ReduceOp op,
                                   double *result) = 0;

    /**
     * Non-blocking elementwise in-place reduction of @p count
     * doubles. @p data is read (contribution) at post time and
     * overwritten with the reduced vector at completion; it must
     * stay valid until the request completes or is dropped. The
     * reduction folds contributions in rank order, so the result is
     * bitwise identical to the blocking allreduceVec().
     */
    virtual CommRequest iallreduceVec(double *data, std::size_t count,
                                      ReduceOp op) = 0;

    /**
     * Non-blocking broadcast of @p count doubles from @p root. The
     * root's payload is captured at post time; every other rank's
     * @p data is overwritten at completion and must stay valid until
     * then (or until the request is dropped).
     */
    virtual CommRequest ibcast(double *data, std::size_t count,
                               int root) = 0;

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

    /** Convenience: broadcast a single double. */
    double
    bcastValue(double value, int root)
    {
        bcast(&value, 1, root);
        return value;
    }
};

} // namespace tdfe

#endif // TDFE_PAR_COMM_HH
