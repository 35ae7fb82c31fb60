/**
 * @file
 * Deterministic fault injection for the comm layer, the par-side
 * sibling of store::FaultyFile: a decorator over any Communicator
 * that makes a rank's *non-blocking* collectives misbehave in the
 * two ways a watchdog must distinguish — slow (completions held back
 * for a bounded number of polls, the watchdog must NOT fire) and
 * dead (the rank stops contributing entirely, peers' requests never
 * complete and the watchdog must degrade instead of hanging).
 *
 * The decorator overrides the one collective primitive, post(), so
 * every front end goes through it. Faults target the non-blocking
 * sequence only. The blocking collectives the solvers themselves
 * use (timestep allreduce, probe gather, merge barrier) pass
 * through untouched: the scenario modeled is a wedged analysis/stop
 * protocol on one rank, not a dead node — exactly the place the
 * Region's overlapped stop protocol has to degrade gracefully while
 * the simulation keeps stepping.
 *
 * Plans are counted in posted non-blocking operations (a
 * deterministic, content-independent clock), so a test can silence a
 * rank at exactly the Nth collective of a run, reproducibly.
 */

#ifndef TDFE_PAR_FAULTY_COMM_HH
#define TDFE_PAR_FAULTY_COMM_HH

#include <climits>
#include <cstddef>
#include <vector>

#include "par/comm.hh"

namespace tdfe
{

/** Deterministic misbehaviour plan for one rank's comm. */
struct CommFaultPlan
{
    /**
     * The rank goes permanently silent starting with its Nth posted
     * non-blocking collective (0-based): that post and all later
     * ones are swallowed — never delivered to the inner comm — so
     * peers' matching collectives never complete and this rank's own
     * requests poll false forever. INT_MAX: never.
     */
    int silentAfterOp = INT_MAX;

    /**
     * Completions are delayed starting with the Nth posted
     * non-blocking collective: the first delayPolls polls
     * (test()/waitFor() calls) on such a request report incomplete
     * even when the inner operation has completed. The operation
     * itself is posted normally, so nothing is lost — just late.
     * INT_MAX: never.
     */
    int delayAfterOp = INT_MAX;

    /** Polls held back per delayed request. */
    int delayPolls = 0;
};

/**
 * Communicator decorator applying a CommFaultPlan to the posts of
 * the non-blocking sequence; blocking posts and point-to-point
 * messages forward to the inner comm. The inner communicator must
 * outlive the decorator.
 */
class FaultyComm final : public Communicator
{
  public:
    FaultyComm(Communicator &inner, CommFaultPlan plan)
        : inner_(inner), plan_(plan)
    {
    }

    int rank() const override { return inner_.rank(); }
    int size() const override { return inner_.size(); }

    /** Blocking posts forward; non-blocking ones follow the plan. */
    CommRequest post(CollectiveSeq seq, CollectiveKind kind,
                     const double *contribution, std::size_t count,
                     ReduceOp op, int root, double *out) override;

    void
    send(int dest, int tag,
         const std::vector<double> &payload) override
    {
        inner_.send(dest, tag, payload);
    }

    std::vector<double>
    recv(int src, int tag) override
    {
        return inner_.recv(src, tag);
    }

    /** Non-blocking collectives posted through this decorator. */
    int postedOps() const { return posted_; }

    /** @return true once a post has been swallowed (rank silent). */
    bool wentSilent() const { return silent_; }

  private:
    Communicator &inner_;
    CommFaultPlan plan_;
    int posted_ = 0;
    bool silent_ = false;
};

} // namespace tdfe

#endif // TDFE_PAR_FAULTY_COMM_HH
