/**
 * @file
 * Stress and interleaving tests for the non-blocking collectives
 * (iallreduce / iallreduceVec / ibcast + CommRequest): thousands of
 * posted-then-lazily-completed operations per rank with randomized
 * completion order, bitwise agreement with the blocking collectives,
 * dropped requests, and no deadlock under nested ThreadPool use.
 */

#include <cmath>
#include <deque>
#include <gtest/gtest.h>
#include <memory>
#include <random>
#include <vector>

#include "base/thread_pool.hh"
#include "par/serial_comm.hh"
#include "par/thread_comm.hh"

namespace
{

using namespace tdfe;

TEST(SerialCommNonblocking, CompletesImmediately)
{
    SerialComm c;
    double r = -1.0;
    CommRequest req = c.iallreduce(5.0, ReduceOp::Sum, &r);
    EXPECT_TRUE(req.test());
    EXPECT_DOUBLE_EQ(r, 5.0);
    req.wait(); // idempotent after completion

    double vec[3] = {1.0, 2.0, 3.0};
    CommRequest rv = c.iallreduceVec(vec, 3, ReduceOp::Max);
    EXPECT_TRUE(rv.test());
    EXPECT_DOUBLE_EQ(vec[2], 3.0);

    double payload[2] = {7.0, 8.0};
    CommRequest rb = c.ibcast(payload, 2, 0);
    EXPECT_TRUE(rb.test());
    EXPECT_DOUBLE_EQ(payload[0], 7.0);

    // A default-constructed request counts as complete.
    CommRequest none;
    EXPECT_FALSE(none.valid());
    EXPECT_TRUE(none.test());
    none.wait();
}

/**
 * One posted operation awaiting lazy completion, together with the
 * values it must produce. The output buffer is pre-sized before the
 * post so its data() stays put until completion.
 */
struct Outstanding
{
    CommRequest req;
    std::vector<double> buf;
    std::vector<double> expected;
};

/**
 * Post operation @p i on @p c: the kind, reduction, length, and root
 * all derive deterministically from @p i so every rank posts the
 * identical schedule; values are integers so every reduction is
 * exact regardless of combination order.
 */
std::unique_ptr<Outstanding>
postOp(Communicator &c, long i)
{
    const int n = c.size();
    const int rank = c.rank();
    auto out = std::make_unique<Outstanding>();

    const long kind = i % 3;
    if (kind == 0) {
        static const ReduceOp ops[] = {ReduceOp::Sum, ReduceOp::Min,
                                       ReduceOp::Max};
        const ReduceOp op = ops[(i / 3) % 3];
        const double v = static_cast<double>(i + rank);
        out->buf.assign(1, -1.0);
        switch (op) {
          case ReduceOp::Sum:
            out->expected = {static_cast<double>(n * i) +
                             n * (n - 1) / 2.0};
            break;
          case ReduceOp::Min:
            out->expected = {static_cast<double>(i)};
            break;
          case ReduceOp::Max:
            out->expected = {static_cast<double>(i + n - 1)};
            break;
        }
        out->req = c.iallreduce(v, op, out->buf.data());
    } else if (kind == 1) {
        const int root = static_cast<int>(i) % n;
        const std::size_t len = 1 + (i % 5);
        out->buf.resize(len);
        out->expected.resize(len);
        for (std::size_t j = 0; j < len; ++j) {
            out->expected[j] = static_cast<double>(1000 * i) + j;
            out->buf[j] = rank == root ? out->expected[j] : -1.0;
        }
        out->req = c.ibcast(out->buf.data(), len, root);
    } else {
        const std::size_t len = 1 + (i % 4);
        const bool use_max = (i / 3) % 2 == 0;
        out->buf.resize(len);
        out->expected.resize(len);
        for (std::size_t j = 0; j < len; ++j) {
            out->buf[j] = static_cast<double>(i + rank) + j;
            out->expected[j] =
                use_max ? static_cast<double>(i + n - 1) + j
                        : static_cast<double>(n * (i + j)) +
                              n * (n - 1) / 2.0;
        }
        out->req = c.iallreduceVec(out->buf.data(), len,
                                   use_max ? ReduceOp::Max
                                           : ReduceOp::Sum);
    }
    return out;
}

void
checkOp(Outstanding &op)
{
    ASSERT_EQ(op.buf.size(), op.expected.size());
    for (std::size_t j = 0; j < op.buf.size(); ++j)
        EXPECT_EQ(op.buf[j], op.expected[j]) << "element " << j;
}

/** Ranks to stress; 8 exceeds any hardware the fleet containers
 *  have, forcing heavy interleaving. */
class NonblockingStress : public ::testing::TestWithParam<int>
{
  protected:
    void TearDown() override { setGlobalThreadCount(1); }
};

TEST_P(NonblockingStress, ThousandsOfOpsRandomizedCompletion)
{
    const int n = GetParam();
    ThreadCommWorld world(n);
    world.run([&](Communicator &c) {
        // Per-rank generator: every rank completes its requests in
        // its own randomized order and mixes test() polling with
        // blocking wait(), while the posting order stays identical
        // across ranks (the matching rule).
        std::mt19937 rng(static_cast<unsigned>(c.rank()) + 1u);
        std::deque<std::unique_ptr<Outstanding>> window;
        const long ops = 1200;
        for (long i = 0; i < ops; ++i) {
            window.push_back(postOp(c, i));
            // Opportunistic polls anywhere in the window.
            for (auto &o : window) {
                if (rng() % 4 == 0 && o->req.test())
                    checkOp(*o);
            }
            // Keep at most 8 in flight; completion order inside the
            // window is random per rank.
            while (window.size() > 8) {
                const std::size_t pick =
                    rng() % std::min<std::size_t>(window.size(), 4);
                window[pick]->req.wait();
                checkOp(*window[pick]);
                window.erase(window.begin() +
                             static_cast<long>(pick));
            }
        }
        while (!window.empty()) {
            window.front()->req.wait();
            checkOp(*window.front());
            window.pop_front();
        }
    });
}

TEST_P(NonblockingStress, BitwiseMatchesBlockingCollectives)
{
    const int n = GetParam();
    ThreadCommWorld world(n);
    world.run([&](Communicator &c) {
        for (long i = 0; i < 120; ++i) {
            // Scalar allreduce: nasty irrational contributions. The
            // non-blocking reduction folds contributions in rank
            // order exactly like the blocking one, so even a Sum of
            // doubles must agree bitwise.
            static const ReduceOp ops[] = {
                ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max};
            const ReduceOp op = ops[i % 3];
            const double v =
                std::sin(static_cast<double>(i + c.rank() * 37));
            const double blocking = c.allreduce(v, op);
            double nonblocking = 0.0;
            CommRequest r = c.iallreduce(v, op, &nonblocking);
            r.wait();
            EXPECT_EQ(blocking, nonblocking) << "op " << i;

            // Broadcast from every root in turn.
            const int root = static_cast<int>(i) % n;
            double b1 = c.rank() == root ? v : 0.0;
            double b2 = b1;
            c.bcast(&b1, 1, root);
            CommRequest rb = c.ibcast(&b2, 1, root);
            rb.wait();
            EXPECT_EQ(b1, b2) << "bcast " << i;

            // Vector Sum and Max: both paths fold in rank order, so
            // even the floating-point Sum must agree bitwise.
            for (const ReduceOp vop : {ReduceOp::Sum, ReduceOp::Max}) {
                std::vector<double> v1(5), v2(5);
                for (std::size_t j = 0; j < v1.size(); ++j)
                    v1[j] = v2[j] =
                        std::cos(static_cast<double>(i) + j) *
                        std::exp(3.0 * c.rank());
                c.allreduceVec(v1.data(), v1.size(), vop);
                CommRequest rv =
                    c.iallreduceVec(v2.data(), v2.size(), vop);
                rv.wait();
                EXPECT_EQ(v1, v2) << "vec " << i;
            }
        }
    });
}

TEST_P(NonblockingStress, DroppedRequestsStillCompleteForOthers)
{
    const int n = GetParam();
    ThreadCommWorld world(n);
    world.run([&](Communicator &c) {
        for (long i = 0; i < 400; ++i) {
            auto op = postOp(c, i);
            // A rotating subset of ranks abandons its request
            // without ever completing it; the rest must still see
            // the full reduction (the dropped rank's contribution
            // was captured at post time).
            if ((i + c.rank()) % 3 == 0)
                continue;
            op->req.wait();
            checkOp(*op);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Ranks, NonblockingStress,
                         ::testing::Values(2, 4, 8));

TEST(NonblockingNested, NoDeadlockUnderThreadPoolUse)
{
    // Four comm ranks sharing a four-thread process pool: requests
    // are posted, parallel work runs on the pool while they are in
    // flight, and completion happens from *inside* pool chunks.
    // Completion only depends on the other rank threads posting —
    // never on pool workers — so this must not deadlock even with
    // every pool thread busy.
    setGlobalThreadCount(4);
    ThreadCommWorld world(4);
    world.run([&](Communicator &c) {
        for (long round = 0; round < 60; ++round) {
            std::vector<std::unique_ptr<Outstanding>> ops;
            for (long k = 0; k < 4; ++k)
                ops.push_back(postOp(c, round * 4 + k));

            // Pool work between post and completion.
            double acc = parallelReduce(
                256, std::size_t{32}, 0.0,
                [&](std::size_t b, std::size_t e) {
                    double s = 0.0;
                    for (std::size_t j = b; j < e; ++j)
                        s += std::sqrt(static_cast<double>(j));
                    return s;
                },
                [](double a, double b) { return a + b; });
            EXPECT_GT(acc, 0.0);

            // Complete from inside pool chunks.
            parallelFor(ops.size(), std::size_t{1},
                        [&](std::size_t k) {
                            ops[k]->req.wait();
                        });
            for (auto &o : ops)
                checkOp(*o);
        }
    });
    setGlobalThreadCount(1);
}

} // namespace
