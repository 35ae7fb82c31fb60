#include "par/faulty_comm.hh"

#include <memory>
#include <utility>

#include "base/logging.hh"

namespace tdfe
{

namespace
{

/**
 * The swallowed post of a silenced rank: never completes. wait()
 * fatals instead of hanging — a deliberate tripwire: any code path
 * that can face a silent peer must go through the watchdog
 * (waitFor) and own a degrade decision, never an unbounded wait.
 */
class SilentOp : public CommOp
{
  public:
    bool test() override { return false; }

    void
    wait() override
    {
        TDFE_FATAL("wait() on a silenced rank's collective would "
                   "hang forever; use waitFor() and degrade");
    }

    bool
    waitFor(double seconds) override
    {
        (void)seconds;
        return false;
    }
};

/**
 * Slow-but-alive: holds the completion back for a fixed number of
 * polls. Only test() is throttled — a real timed wait outlasts a
 * bounded delay, so waitFor()/wait() see the true completion; this
 * is what lets the watchdog distinguish slow from dead.
 */
class DelayedOp : public CommOp
{
  public:
    DelayedOp(CommRequest inner, int polls)
        : inner_(std::move(inner)), held_(polls)
    {
    }

    bool
    test() override
    {
        if (held_ > 0) {
            --held_;
            return false;
        }
        return inner_.test();
    }

    void
    wait() override
    {
        held_ = 0;
        inner_.wait();
    }

    bool
    waitFor(double seconds) override
    {
        held_ = 0;
        return inner_.waitFor(seconds);
    }

  private:
    CommRequest inner_;
    int held_;
};

} // namespace

CommRequest
FaultyComm::post(CollectiveSeq seq, CollectiveKind kind,
                 const double *contribution, std::size_t count,
                 ReduceOp op, int root, double *out)
{
    if (seq == CollectiveSeq::Blocking)
        return inner_.post(seq, kind, contribution, count, op, root,
                           out);
    const int op_index = posted_++;
    if (op_index >= plan_.silentAfterOp) {
        silent_ = true;
        return CommRequest(std::make_shared<SilentOp>());
    }
    CommRequest request =
        inner_.post(seq, kind, contribution, count, op, root, out);
    if (op_index >= plan_.delayAfterOp && plan_.delayPolls > 0) {
        return CommRequest(std::make_shared<DelayedOp>(
            std::move(request), plan_.delayPolls));
    }
    return request;
}

} // namespace tdfe
