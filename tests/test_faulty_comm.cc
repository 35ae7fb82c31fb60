/**
 * @file
 * Comm watchdog tests: CommRequest::waitFor timeout semantics on
 * the thread-backed collectives, the deterministic FaultyComm
 * decorator (delayed completions must NOT trip the watchdog, a
 * silent rank must), and the region-level degrade path — a run with
 * a permanently silent rank finishes with commDegraded set and
 * results identical to a run whose stop protocol never fires,
 * instead of hanging.
 */

#include <chrono>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "blastapp/runner.hh"
#include "par/faulty_comm.hh"
#include "par/thread_comm.hh"

namespace
{

using namespace tdfe;
using namespace tdfe::blast;

TEST(CommWaitFor, OneRankCompletesImmediately)
{
    ThreadCommWorld world(1);
    world.run([](Communicator &c) {
        double r = -1.0;
        CommRequest req = c.iallreduce(2.0, ReduceOp::Sum, &r);
        EXPECT_TRUE(req.waitFor(0.001));
        EXPECT_DOUBLE_EQ(r, 2.0);
        req.wait(); // idempotent after completion

        // A default-constructed (dropped) request counts as complete.
        CommRequest none;
        EXPECT_FALSE(none.valid());
        EXPECT_TRUE(none.test());
        EXPECT_TRUE(none.waitFor(0.0));
    });
}

TEST(CommWaitFor, TimesOutWhileAPeerLags)
{
    ThreadCommWorld world(2);
    world.run([](Communicator &comm) {
        double out = 0.0;
        if (comm.rank() == 0) {
            CommRequest req =
                comm.iallreduce(1.0, ReduceOp::Sum, &out);
            // Rank 1 is asleep: the bounded wait must report a
            // timeout instead of blocking.
            EXPECT_FALSE(req.waitFor(0.02));
            req.wait(); // unbounded wait still completes later
            EXPECT_DOUBLE_EQ(out, 2.0);
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(150));
            CommRequest req =
                comm.iallreduce(1.0, ReduceOp::Sum, &out);
            req.wait();
            EXPECT_DOUBLE_EQ(out, 2.0);
        }
    });
}

TEST(FaultyComm, DelayedCompletionIsLateButLossless)
{
    ThreadCommWorld world(1);
    world.run([](Communicator &inner) {
        CommFaultPlan plan;
        plan.delayAfterOp = 0;
        plan.delayPolls = 2;
        FaultyComm comm(inner, plan);

        double out = -1.0;
        CommRequest req = comm.iallreduce(3.0, ReduceOp::Sum, &out);
        // The first delayPolls polls report incomplete even though
        // the one-rank op completed at post time...
        EXPECT_FALSE(req.test());
        EXPECT_FALSE(req.test());
        EXPECT_TRUE(req.test());
        EXPECT_DOUBLE_EQ(out, 3.0);

        // ...but a bounded wait drains the held polls: slow is not
        // dead, so the watchdog path must not observe a timeout.
        double out2 = -1.0;
        CommRequest req2 =
            comm.iallreduce(4.0, ReduceOp::Sum, &out2);
        EXPECT_TRUE(req2.waitFor(0.001));
        EXPECT_DOUBLE_EQ(out2, 4.0);
        EXPECT_EQ(comm.postedOps(), 2);
        EXPECT_FALSE(comm.wentSilent());
    });
}

TEST(FaultyComm, SilentRankSwallowsPosts)
{
    ThreadCommWorld world(1);
    world.run([](Communicator &inner) {
        CommFaultPlan plan;
        plan.silentAfterOp = 1;
        FaultyComm comm(inner, plan);

        double out = -1.0;
        CommRequest first = comm.iallreduce(1.0, ReduceOp::Sum, &out);
        EXPECT_TRUE(first.waitFor(0.001));
        EXPECT_FALSE(comm.wentSilent());

        double never = -1.0;
        CommRequest second =
            comm.iallreduce(1.0, ReduceOp::Sum, &never);
        EXPECT_TRUE(comm.wentSilent());
        EXPECT_FALSE(second.test());
        EXPECT_FALSE(second.waitFor(0.01));
        EXPECT_DOUBLE_EQ(never, -1.0); // nothing was ever delivered
        EXPECT_EQ(comm.postedOps(), 2);

        // Blocking collectives bypass the plan: a silenced rank's
        // solver keeps reducing (and posts no op-clock tick).
        EXPECT_DOUBLE_EQ(comm.allreduce(5.0, ReduceOp::Max), 5.0);
        comm.barrier();
        EXPECT_EQ(comm.postedOps(), 2);
    });
}

// ---------------------------------------------------------------
// Region-level watchdog: silent rank degrades, delays do not.
// ---------------------------------------------------------------

BlastConfig
watchdogBlast()
{
    BlastConfig cfg;
    cfg.size = 12;
    return cfg;
}

AnalysisConfig
watchdogAnalysis()
{
    AnalysisConfig ac;
    ac.space = IterParam(1, 8, 1);
    ac.time = IterParam(10, 80, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = 0.05;
    ac.searchEnd = 12;
    ac.minLocation = 1;
    ac.stopWhenConverged = true;
    ac.ar.order = 3;
    ac.ar.lag = 2;
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 16;
    ac.ar.convergeTol = 0.1;
    ac.ar.convergePatience = 3;
    ac.ar.minBatches = 4;
    return ac;
}

struct WorldOutcome
{
    long iterations = 0;
    double feature = -2.0;
    bool commDegraded = false;
};

std::vector<WorldOutcome>
runWorld(int nranks, const CommFaultPlan *plan_for_rank1,
         double deadline, bool honor_stop)
{
    ThreadCommWorld world(nranks);
    std::vector<WorldOutcome> out(
        static_cast<std::size_t>(nranks));
    world.run([&](Communicator &comm) {
        RunOptions opts;
        opts.instrument = true;
        opts.honorStop = honor_stop;
        opts.analysis = watchdogAnalysis();
        opts.commDeadlineSeconds = deadline;

        Communicator *use = &comm;
        std::unique_ptr<FaultyComm> faulty;
        if (plan_for_rank1 && comm.rank() == 1) {
            faulty = std::make_unique<FaultyComm>(
                comm, *plan_for_rank1);
            use = faulty.get();
        }
        const RunResult r =
            runBlast(watchdogBlast(), use, opts);
        WorldOutcome &mine =
            out[static_cast<std::size_t>(comm.rank())];
        mine.iterations = r.iterations;
        mine.feature = r.featureValue;
        mine.commDegraded = r.commDegraded;
    });
    return out;
}

TEST(RegionWatchdog, SilentRankDegradesInsteadOfHanging)
{
    // Reference: the same world with a healthy stop protocol. A
    // degraded region falls back to its locally computed decision,
    // and the analyses are replicated across ranks, so the early
    // stop must still fire on the identical iteration with
    // identical features — the only visible difference is the
    // commDegraded flag (and the absence of a hang).
    const std::vector<WorldOutcome> ref =
        runWorld(2, nullptr, 0.0, /*honor_stop=*/true);

    CommFaultPlan silent;
    silent.silentAfterOp = 0; // protocol dead from the first post
    const std::vector<WorldOutcome> res =
        runWorld(2, &silent, 0.05, /*honor_stop=*/true);

    for (int r = 0; r < 2; ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        EXPECT_FALSE(ref[r].commDegraded);
        EXPECT_TRUE(res[r].commDegraded);
        EXPECT_EQ(res[r].iterations, ref[r].iterations);
        EXPECT_EQ(res[r].feature, ref[r].feature);
    }
}

TEST(RegionWatchdog, BoundedDelayDoesNotDegrade)
{
    const std::vector<WorldOutcome> ref =
        runWorld(2, nullptr, 0.0, /*honor_stop=*/true);

    CommFaultPlan slow;
    slow.delayAfterOp = 0;
    slow.delayPolls = 3;
    const std::vector<WorldOutcome> res =
        runWorld(2, &slow, 5.0, /*honor_stop=*/true);

    for (int r = 0; r < 2; ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        EXPECT_FALSE(res[r].commDegraded);
        EXPECT_EQ(res[r].iterations, ref[r].iterations);
        EXPECT_EQ(res[r].feature, ref[r].feature);
    }
}

} // namespace
