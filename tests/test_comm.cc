/**
 * @file
 * Unit tests for the message-passing substrate: the Communicator
 * front ends over the thread-backed ThreadCommWorld.
 */

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "par/thread_comm.hh"

namespace
{

using namespace tdfe;

TEST(ThreadComm, RanksAndSizes)
{
    ThreadCommWorld world(4);
    std::atomic<int> sum{0};
    world.run([&](Communicator &c) {
        EXPECT_EQ(c.size(), 4);
        sum += c.rank();
    });
    EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(ThreadComm, AllreduceOps)
{
    ThreadCommWorld world(5);
    world.run([&](Communicator &c) {
        const double r = static_cast<double>(c.rank());
        EXPECT_DOUBLE_EQ(c.allreduce(r, ReduceOp::Sum), 10.0);
        EXPECT_DOUBLE_EQ(c.allreduce(r, ReduceOp::Min), 0.0);
        EXPECT_DOUBLE_EQ(c.allreduce(r, ReduceOp::Max), 4.0);
    });
}

TEST(ThreadComm, BroadcastFromEveryRoot)
{
    ThreadCommWorld world(4);
    world.run([&](Communicator &c) {
        for (int root = 0; root < c.size(); ++root) {
            double v = c.rank() == root ? 42.0 + root : -1.0;
            c.ibcast(&v, 1, root).wait();
            EXPECT_DOUBLE_EQ(v, 42.0 + root);
        }
    });
}

TEST(ThreadComm, VectorAllreduceSum)
{
    ThreadCommWorld world(3);
    world.run([&](Communicator &c) {
        // Each rank owns one slot of the "probe line".
        std::vector<double> line(3, 0.0);
        line[static_cast<std::size_t>(c.rank())] =
            10.0 * (c.rank() + 1);
        c.allreduceVec(line.data(), line.size(), ReduceOp::Sum);
        EXPECT_DOUBLE_EQ(line[0], 10.0);
        EXPECT_DOUBLE_EQ(line[1], 20.0);
        EXPECT_DOUBLE_EQ(line[2], 30.0);
    });
}

TEST(ThreadComm, VectorAllreduceIsRankOrdered)
{
    // Floating-point Sum is not associative: folding these in
    // arrival order (2, 0, 1) gives (v2 + v0) + v1 = 1, the rank
    // order gives (v0 + v1) + v2 = 0. Every rank must get the
    // rank-order result, whoever arrives first.
    const double v[3] = {1e16, 1.0, -1e16};
    const double expect = (v[0] + v[1]) + v[2];
    ASSERT_NE(expect, (v[2] + v[0]) + v[1]);
    const int delay_ms[3] = {50, 100, 0};
    ThreadCommWorld world(3);
    world.run([&](Communicator &c) {
        const auto r = static_cast<std::size_t>(c.rank());
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay_ms[r]));
        std::vector<double> x(4, v[r]);
        c.allreduceVec(x.data(), x.size(), ReduceOp::Sum);
        for (double e : x)
            EXPECT_EQ(e, expect) << "rank " << r;
    });
}

TEST(ThreadComm, VectorAllreduceRepeatedRounds)
{
    ThreadCommWorld world(4);
    world.run([&](Communicator &c) {
        for (int round = 0; round < 50; ++round) {
            std::vector<double> v(8, static_cast<double>(c.rank()));
            c.allreduceVec(v.data(), v.size(), ReduceOp::Max);
            for (double x : v)
                EXPECT_DOUBLE_EQ(x, 3.0);
        }
    });
}

TEST(ThreadComm, PointToPointRing)
{
    ThreadCommWorld world(4);
    world.run([&](Communicator &c) {
        const int next = (c.rank() + 1) % c.size();
        const int prev = (c.rank() + c.size() - 1) % c.size();
        c.send(next, 0, {static_cast<double>(c.rank())});
        const auto got = c.recv(prev, 0);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_DOUBLE_EQ(got[0], static_cast<double>(prev));
    });
}

TEST(ThreadComm, MessagesKeepFifoOrderPerTag)
{
    ThreadCommWorld world(2);
    world.run([&](Communicator &c) {
        if (c.rank() == 0) {
            for (int i = 0; i < 20; ++i)
                c.send(1, 5, {static_cast<double>(i)});
        } else {
            for (int i = 0; i < 20; ++i)
                EXPECT_DOUBLE_EQ(c.recv(0, 5)[0],
                                 static_cast<double>(i));
        }
    });
}

TEST(ThreadComm, SendIsBufferedEnqueueNoRendezvous)
{
    // The doc promise on Communicator::send: the payload is copied
    // and buffered before the call returns, with no rendezvous.
    // Rank 0 completes every send before rank 1 posts a single
    // recv (the barrier separates the two phases), so a send that
    // blocked on its receiver would deadlock here.
    ThreadCommWorld world(2);
    world.run([&](Communicator &c) {
        const int msgs = 64;
        if (c.rank() == 0) {
            for (int i = 0; i < msgs; ++i)
                c.send(1, 3, {static_cast<double>(i), 0.5 * i});
            c.barrier();
        } else {
            c.barrier();
            for (int i = 0; i < msgs; ++i) {
                const auto got = c.recv(0, 3);
                ASSERT_EQ(got.size(), 2u);
                EXPECT_DOUBLE_EQ(got[0], static_cast<double>(i));
                EXPECT_DOUBLE_EQ(got[1], 0.5 * i);
            }
        }
    });
}

TEST(ThreadComm, SendOrderingFifoPerSourceAndTagUnderContention)
{
    // Completion/ordering guarantee: messages from one (src, dest)
    // pair with the same tag arrive in send order even when several
    // senders and several tags interleave heavily. Payload encodes
    // (src, tag, seq) so any reordering is caught exactly.
    const int n = 4, per_tag = 250;
    ThreadCommWorld world(n);
    world.run([&](Communicator &c) {
        if (c.rank() == 0) {
            // Drain per (src, tag) stream; FIFO within each stream
            // must hold regardless of cross-stream interleaving.
            for (int src = 1; src < n; ++src) {
                for (int tag = 0; tag < 2; ++tag) {
                    for (int i = 0; i < per_tag; ++i) {
                        const auto got = c.recv(src, tag);
                        ASSERT_EQ(got.size(), 3u);
                        EXPECT_DOUBLE_EQ(got[0],
                                         static_cast<double>(src));
                        EXPECT_DOUBLE_EQ(got[1],
                                         static_cast<double>(tag));
                        EXPECT_DOUBLE_EQ(got[2],
                                         static_cast<double>(i));
                    }
                }
            }
        } else {
            // Interleave the two tag streams message by message.
            for (int i = 0; i < per_tag; ++i) {
                for (int tag = 0; tag < 2; ++tag) {
                    c.send(0, tag,
                           {static_cast<double>(c.rank()),
                            static_cast<double>(tag),
                            static_cast<double>(i)});
                }
            }
        }
    });
}

TEST(ThreadComm, BarrierSeparatesPhases)
{
    ThreadCommWorld world(8);
    std::atomic<int> phase_one{0};
    std::atomic<bool> ok{true};
    world.run([&](Communicator &c) {
        ++phase_one;
        c.barrier();
        if (phase_one.load() != 8)
            ok = false;
    });
    EXPECT_TRUE(ok.load());
}

/** Property: collectives agree for any rank count. */
class ThreadCommSizeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ThreadCommSizeProperty, SumOfRanksMatchesFormula)
{
    const int n = GetParam();
    ThreadCommWorld world(n);
    world.run([&](Communicator &c) {
        const double s = c.allreduce(
            static_cast<double>(c.rank()), ReduceOp::Sum);
        EXPECT_DOUBLE_EQ(s, n * (n - 1) / 2.0);
    });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ThreadCommSizeProperty,
                         ::testing::Values(1, 2, 3, 8, 16, 27));

} // namespace
