/**
 * @file
 * Unit tests for the lock-free VC buffer: visibility, credits,
 * negedge-committed pops, flow accounting, and producer/consumer
 * concurrency. Contention stress lives in test_vc_buffer_stress.cc.
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "net/vc_buffer.h"

namespace hornet::net {
namespace {

Flit
make_flit(FlowId flow, Cycle arrival, std::uint32_t seq = 0)
{
    Flit f;
    f.flow = flow;
    f.original_flow = flow;
    f.arrival_cycle = arrival;
    f.seq = seq;
    return f;
}

TEST(VcBuffer, StartsEmptyWithFullCredit)
{
    VcBuffer b(4);
    EXPECT_EQ(b.capacity(), 4u);
    EXPECT_EQ(b.free_slots(), 4u);
    EXPECT_TRUE(b.empty_raw());
    EXPECT_TRUE(b.logically_empty());
    EXPECT_EQ(b.front_ready(100), nullptr);
}

TEST(VcBuffer, PushConsumesCreditImmediately)
{
    VcBuffer b(2);
    b.push(make_flit(1, 5));
    EXPECT_EQ(b.free_slots(), 1u);
    b.push(make_flit(1, 6));
    EXPECT_EQ(b.free_slots(), 0u);
}

TEST(VcBuffer, BatchedModeStagesUntilFlush)
{
    // Window-batched handoff: staged pushes consume credit and count
    // in every producer-side logical view immediately, but stay
    // invisible to the consumer until flush_staged() publishes them
    // in push order.
    VcBuffer b(4);
    EXPECT_FALSE(b.batched());
    b.set_batched(true);
    EXPECT_TRUE(b.batched());

    b.push(make_flit(1, 5, 0));
    b.push(make_flit(1, 6, 1));
    EXPECT_EQ(b.staged_count(), 2u);
    EXPECT_EQ(b.free_slots(), 2u);      // credit view sees staged
    EXPECT_EQ(b.logical_size(), 2u);    // occupancy view sees staged
    EXPECT_FALSE(b.logically_empty());
    EXPECT_TRUE(b.exclusively_holds(1)); // flow view sees staged
    EXPECT_FALSE(b.exclusively_holds(2));
    EXPECT_TRUE(b.empty_raw());          // physical view does not
    EXPECT_EQ(b.front_ready(100), nullptr);
    EXPECT_EQ(b.total_pushed(), 0u);

    EXPECT_EQ(b.flush_staged(), 2u);
    EXPECT_EQ(b.staged_count(), 0u);
    EXPECT_EQ(b.total_pushed(), 2u);
    EXPECT_EQ(b.free_slots(), 2u);
    ASSERT_NE(b.front_ready(5), nullptr);
    EXPECT_EQ(b.front_ready(5)->seq, 0u); // push order preserved

    // Disabling batching flushes any leftovers.
    b.push(make_flit(1, 7, 2)); // still batched
    EXPECT_EQ(b.staged_count(), 1u);
    b.set_batched(false);
    EXPECT_EQ(b.staged_count(), 0u);
    EXPECT_EQ(b.total_pushed(), 3u);

    // Unbatched again: pushes publish directly.
    b.push(make_flit(1, 8, 3));
    EXPECT_EQ(b.total_pushed(), 4u);
    EXPECT_EQ(b.free_slots(), 0u);
}

TEST(VcBuffer, FlitInvisibleBeforeArrivalCycle)
{
    VcBuffer b(4);
    b.push(make_flit(1, 10));
    EXPECT_EQ(b.front_ready(9), nullptr);
    ASSERT_NE(b.front_ready(10), nullptr);
    EXPECT_EQ(b.front_ready(10)->flow, 1u);
}

TEST(VcBuffer, FrontReadyNamesTheFrontFlitUntilPop)
{
    // front_ready() reads the front flit in place, in both locality
    // modes: nullptr on an empty buffer and before the arrival cycle,
    // then a pointer to the front flit that stays valid — same
    // address, same contents — until pop(), however many pushes land
    // behind it. pop() returns the flit the pointer named.
    for (const bool local : {false, true}) {
        SCOPED_TRACE(local ? "local" : "cross-thread");
        VcBuffer b(4);
        b.set_local(local);
        EXPECT_EQ(b.front_ready(0), nullptr);
        EXPECT_EQ(b.front_ready(~Cycle{0}), nullptr);

        b.push(make_flit(3, 10, 0));
        EXPECT_EQ(b.front_ready(9), nullptr); // arrival_cycle > now
        const Flit *f = b.front_ready(10);
        ASSERT_NE(f, nullptr);
        EXPECT_EQ(f->flow, 3u);
        EXPECT_EQ(f->seq, 0u);
        EXPECT_EQ(f->arrival_cycle, 10u);

        for (std::uint32_t i = 1; i < 4; ++i)
            b.push(make_flit(4, 5, i));
        EXPECT_EQ(b.front_ready(10), f);
        EXPECT_EQ(f->flow, 3u);
        EXPECT_EQ(f->seq, 0u);

        const Flit popped = b.pop();
        EXPECT_EQ(popped.flow, 3u);
        EXPECT_EQ(popped.seq, 0u);
        const Flit *g = b.front_ready(10);
        ASSERT_NE(g, nullptr);
        EXPECT_NE(g, f);
        EXPECT_EQ(g->seq, 1u);
        EXPECT_EQ(g->flow, 4u);

        std::uint32_t drained = 1;
        while (b.front_ready(10) != nullptr) {
            EXPECT_EQ(b.pop().seq, drained);
            ++drained;
        }
        EXPECT_EQ(drained, 4u);
        EXPECT_TRUE(b.empty_raw());
        b.commit_negedge();
        EXPECT_EQ(b.free_slots(), 4u);
    }
}

TEST(VcBuffer, LocalPushWakesThroughNotifyLocal)
{
    // A push into a local buffer wakes its consumer through the
    // same-thread entry point, Wakeable::notify_local; a cross-thread
    // push, and the flush of a staged batch, through notify_activity.
    struct Recorder final : Wakeable
    {
        void notify_activity(Cycle at) override { remote.push_back(at); }
        void notify_local(Cycle at) override { local.push_back(at); }
        std::vector<Cycle> remote, local;
    };
    Recorder r;
    VcBuffer b(4);
    b.set_wake_target(&r);
    b.set_local(true);
    b.push(make_flit(1, 7));
    b.set_local(false);
    b.push(make_flit(1, 8));
    b.set_batched(true);
    b.push(make_flit(1, 9));
    EXPECT_EQ(b.flush_staged(), 1u);
    EXPECT_EQ(r.local, std::vector<Cycle>{7});
    EXPECT_EQ(r.remote, (std::vector<Cycle>{8, 9}));
}

TEST(VcBuffer, PopDoesNotReturnCreditUntilCommit)
{
    VcBuffer b(2);
    b.push(make_flit(1, 0));
    b.push(make_flit(1, 1));
    ASSERT_NE(b.front_ready(1), nullptr);
    b.pop();
    // Credit still consumed until the negedge commit.
    EXPECT_EQ(b.free_slots(), 0u);
    b.commit_negedge();
    EXPECT_EQ(b.free_slots(), 1u);
}

TEST(VcBuffer, FifoOrderPreserved)
{
    VcBuffer b(8);
    for (std::uint32_t i = 0; i < 5; ++i)
        b.push(make_flit(7, i, i));
    for (std::uint32_t i = 0; i < 5; ++i) {
        auto f = b.front_ready(100);
        ASSERT_NE(f, nullptr);
        EXPECT_EQ(f->seq, i);
        b.pop();
    }
    b.commit_negedge();
    EXPECT_EQ(b.free_slots(), 8u);
}

TEST(VcBuffer, OverflowPanics)
{
    VcBuffer b(1);
    b.push(make_flit(1, 0));
    EXPECT_THROW(b.push(make_flit(1, 1)), std::logic_error);
}

TEST(VcBuffer, UnderflowPanics)
{
    VcBuffer b(1);
    EXPECT_THROW(b.pop(), std::logic_error);
}

TEST(VcBuffer, RingWrapsAroundManyTimes)
{
    VcBuffer b(3);
    for (std::uint32_t i = 0; i < 100; ++i) {
        b.push(make_flit(1, i, i));
        auto f = b.front_ready(1000);
        ASSERT_NE(f, nullptr);
        EXPECT_EQ(f->seq, i);
        b.pop();
        b.commit_negedge();
    }
    EXPECT_EQ(b.total_pushed(), 100u);
    EXPECT_EQ(b.total_popped_committed(), 100u);
}

TEST(VcBuffer, ExclusivelyHoldsTracksFlows)
{
    VcBuffer b(4);
    EXPECT_TRUE(b.exclusively_holds(5)); // empty: any flow qualifies
    b.push(make_flit(5, 0));
    EXPECT_TRUE(b.exclusively_holds(5));
    EXPECT_FALSE(b.exclusively_holds(6));
    b.push(make_flit(6, 1));
    EXPECT_FALSE(b.exclusively_holds(5));
    EXPECT_EQ(b.distinct_flows(), 2u);
}

TEST(VcBuffer, FlowAccountingClearsOnlyAtCommit)
{
    VcBuffer b(4);
    b.push(make_flit(5, 0));
    ASSERT_NE(b.front_ready(10), nullptr);
    b.pop();
    // Logically the flit is still charged to flow 5 until the commit.
    EXPECT_FALSE(b.logically_empty());
    EXPECT_TRUE(b.exclusively_holds(5));
    EXPECT_FALSE(b.exclusively_holds(9));
    b.commit_negedge();
    EXPECT_TRUE(b.logically_empty());
    EXPECT_TRUE(b.exclusively_holds(9));
    EXPECT_EQ(b.distinct_flows(), 0u);
}

TEST(VcBuffer, LogicalSizeFollowsCommits)
{
    VcBuffer b(4);
    b.push(make_flit(1, 0));
    b.push(make_flit(1, 0));
    EXPECT_EQ(b.logical_size(), 2u);
    ASSERT_NE(b.front_ready(5), nullptr);
    b.pop();
    EXPECT_EQ(b.logical_size(), 2u);
    EXPECT_EQ(b.size_raw(), 1u);
    b.commit_negedge();
    EXPECT_EQ(b.logical_size(), 1u);
}

/**
 * Concurrency smoke: a producer thread pushes N flits (respecting
 * credits) while a consumer pops and periodically commits. All flits
 * must arrive in order with none lost — the paper's functional-
 * correctness requirement for the SPSC ring protocol.
 */
TEST(VcBuffer, ConcurrentProducerConsumerPreservesOrder)
{
    VcBuffer b(4);
    constexpr std::uint32_t kFlits = 20000;

    std::thread producer([&] {
        std::uint32_t sent = 0;
        while (sent < kFlits) {
            if (b.free_slots() > 0) {
                b.push(make_flit(1, 0, sent));
                ++sent;
            }
        }
    });

    std::uint32_t got = 0;
    while (got < kFlits) {
        auto f = b.front_ready(~Cycle{0});
        if (f != nullptr) {
            ASSERT_EQ(f->seq, got);
            b.pop();
            ++got;
            if (got % 3 == 0)
                b.commit_negedge();
        } else {
            b.commit_negedge(); // return credits so the producer moves
        }
    }
    producer.join();
    b.commit_negedge();
    EXPECT_EQ(b.total_pushed(), kFlits);
    EXPECT_TRUE(b.logically_empty());
}

} // namespace
} // namespace hornet::net
