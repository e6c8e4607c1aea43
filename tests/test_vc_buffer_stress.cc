/**
 * @file
 * Contention stress tests for the lock-free VC buffer: flit
 * conservation, negedge credit exactness, EDVCA exclusivity, and
 * staged-flush ordering, each exercised with a producer and a consumer
 * thread racing through the acquire/release ring protocol. These are
 * the tests the ThreadSanitizer CI leg leans on hardest.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
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

constexpr Cycle kAlways = ~Cycle{0};

/**
 * Free-running producer/consumer race on the direct (unbatched) path:
 * every flit arrives exactly once, in push order, with per-flow FIFO
 * preserved, and the final counters balance. A third thread hammers
 * the credit view the way a cross-shard link arbiter does and checks
 * it stays within [0, capacity].
 */
TEST(VcBufferStress, ConservationAndOrderUnderContention)
{
    VcBuffer b(4);
    constexpr std::uint32_t kFlits = 50000;
    constexpr std::uint32_t kFlows = 3;
    std::atomic<bool> stop{false};

    std::thread arbiter([&] {
        while (!stop.load(std::memory_order_acquire)) {
            // Remote credit snapshots may be stale in either direction
            // (see free_slots docs), but free_slots clamps occupancy
            // overshoot, so the arbiter-visible credit can never
            // exceed the capacity. (logical_size has no such clamp
            // and is deliberately not asserted from a third thread.)
            std::uint32_t free = b.free_slots();
            ASSERT_LE(free, b.capacity());
            std::this_thread::yield();
        }
    });

    std::thread producer([&] {
        std::uint32_t sent = 0;
        while (sent < kFlits) {
            if (b.free_slots() > 0)
                b.push(make_flit(sent % kFlows, 0, sent)), ++sent;
            else
                std::this_thread::yield();
        }
    });

    std::vector<std::uint32_t> next_per_flow(kFlows, 0);
    std::uint32_t got = 0;
    while (got < kFlits) {
        auto f = b.front_ready(kAlways);
        if (f == nullptr) {
            b.commit_negedge();
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(f->seq, got);                  // global FIFO
        ASSERT_EQ(f->flow, got % kFlows);        // payload intact
        ASSERT_EQ(next_per_flow[f->flow], f->seq / kFlows);
        ++next_per_flow[f->flow];
        b.pop();
        ++got;
        if ((got & 7) == 0)
            b.commit_negedge();
    }
    producer.join();
    stop.store(true, std::memory_order_release);
    arbiter.join();

    b.commit_negedge();
    EXPECT_EQ(b.total_pushed(), kFlits);
    EXPECT_EQ(b.total_popped_committed(), kFlits);
    EXPECT_TRUE(b.logically_empty());
    EXPECT_TRUE(b.empty_raw());
    EXPECT_EQ(b.distinct_flows(), 0u);
    EXPECT_EQ(b.free_slots(), b.capacity());
}

/**
 * Negedge credit exactness across threads: producer and consumer run
 * in engine-style lockstep phases (posedge: producer pushes, consumer
 * pops; negedge: consumer commits), synchronized by a barrier like
 * shard threads at cycle boundaries. At every phase boundary the
 * producer's credit view must be *exact*: capacity minus flits pushed
 * and not yet committed — freed space appears only after the commit,
 * never at the pop.
 */
TEST(VcBufferStress, NegedgeCreditExactnessInLockstep)
{
    VcBuffer b(4);
    constexpr std::uint32_t kCycles = 20000;
    std::barrier sync(2);

    std::uint64_t pushed = 0;
    std::atomic<std::uint64_t> committed{0};

    std::thread consumer([&] {
        std::uint64_t popped = 0, done = 0;
        for (std::uint32_t c = 0; c < kCycles; ++c) {
            sync.arrive_and_wait(); // posedge begins
            // Pop at most one visible flit (router SA style).
            if (b.front_ready(kAlways) != nullptr) {
                b.pop();
                ++popped;
            }
            sync.arrive_and_wait(); // negedge: commit pops
            b.commit_negedge();
            done = popped;
            committed.store(done, std::memory_order_release);
            sync.arrive_and_wait(); // cycle ends; producer checks
        }
    });

    for (std::uint32_t c = 0; c < kCycles; ++c) {
        sync.arrive_and_wait(); // posedge: push up to the credit limit
        if (b.free_slots() > 0)
            b.push(make_flit(7, 0, static_cast<std::uint32_t>(pushed))),
                ++pushed;
        sync.arrive_and_wait(); // negedge happens on the consumer
        sync.arrive_and_wait(); // cycle ended: exact credit check
        const std::uint64_t in_flight =
            pushed - committed.load(std::memory_order_acquire);
        ASSERT_LE(in_flight, b.capacity());
        ASSERT_EQ(b.free_slots(),
                  b.capacity() - static_cast<std::uint32_t>(in_flight));
    }
    consumer.join();
    EXPECT_EQ(b.total_pushed(), pushed);
}

/**
 * EDVCA exclusivity under contention: while the producer has only ever
 * pushed flow A, exclusively_holds(A) must hold at every instant on
 * the producer's thread, whatever the consumer does; after a drain
 * barrier the producer switches to flow B and the same must hold for
 * B. distinct_flows can never exceed the number of flows in flight.
 */
TEST(VcBufferStress, EdvcaExclusivityUnderContention)
{
    VcBuffer b(4);
    constexpr std::uint32_t kPerFlow = 30000;
    std::atomic<bool> producer_done{false};

    std::thread consumer([&] {
        while (!producer_done.load(std::memory_order_acquire) ||
               !b.empty_raw()) {
            if (b.front_ready(kAlways) != nullptr) {
                b.pop();
                b.commit_negedge();
            } else {
                b.commit_negedge();
                std::this_thread::yield();
            }
        }
    });

    for (FlowId flow : {FlowId{11}, FlowId{22}}) {
        // Drain between flows so the EDVCA invariant is unconditional
        // within each phase: with only `flow` ever in the buffer,
        // exclusivity for it can never be violated.
        while (!b.logically_empty())
            std::this_thread::yield();
        std::uint32_t sent = 0;
        while (sent < kPerFlow) {
            if (b.free_slots() > 0)
                b.push(make_flit(flow, 0, sent)), ++sent;
            else
                std::this_thread::yield();
            ASSERT_TRUE(b.exclusively_holds(flow));
            ASSERT_LE(b.distinct_flows(), 1u);
        }
    }
    producer_done.store(true, std::memory_order_release);
    consumer.join();
    b.commit_negedge();
    EXPECT_TRUE(b.logically_empty());
}

/**
 * Staged-flush ordering under contention: a batched producer stages
 * window-sized bursts and publishes them with flush_staged() while the
 * consumer drains concurrently. Flits must arrive in exact push order
 * (batches are published in order, atomically at the flush), staged
 * flits must consume producer-side credit immediately, and each flush
 * must wake the consumer with the earliest staged arrival cycle.
 */
TEST(VcBufferStress, StagedFlushOrderingUnderContention)
{
    /// Records every wake for later ordering checks (producer thread
    /// calls it; counters read after the join).
    class CountingWake final : public Wakeable
    {
      public:
        void
        notify_activity(Cycle at) override
        {
            ++wakes;
            last_at = at;
        }
        std::uint64_t wakes = 0; ///< publications observed
        Cycle last_at = 0;       ///< earliest arrival of the last batch
    };

    VcBuffer b(8);
    CountingWake wake;
    b.set_wake_target(&wake);
    b.set_batched(true);
    constexpr std::uint32_t kFlits = 30000;
    std::uint64_t flushes = 0;

    std::thread producer([&] {
        std::uint32_t sent = 0;
        while (sent < kFlits) {
            std::uint32_t staged = 0;
            while (b.free_slots() > 0 && sent < kFlits) {
                // Arrival cycles decrease within a batch, so the wake
                // must report the *last* staged flit's cycle as the
                // earliest of the window.
                b.push(make_flit(5, 1000000 - sent, sent));
                ++sent;
                ++staged;
            }
            ASSERT_EQ(b.staged_count(), staged);
            if (staged != 0) {
                ASSERT_EQ(b.flush_staged(), staged);
                ++flushes;
                ASSERT_EQ(wake.last_at, 1000000 - (sent - 1));
            }
            if (b.free_slots() == 0)
                std::this_thread::yield();
        }
    });

    std::uint32_t got = 0;
    while (got < kFlits) {
        auto f = b.front_ready(kAlways);
        if (f == nullptr) {
            b.commit_negedge();
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(f->seq, got); // push order survives batching
        b.pop();
        ++got;
        if ((got & 7) == 0)
            b.commit_negedge();
    }
    producer.join();
    b.commit_negedge();

    EXPECT_EQ(b.total_pushed(), kFlits);
    EXPECT_EQ(b.total_popped_committed(), kFlits);
    EXPECT_EQ(b.staged_count(), 0u);
    EXPECT_EQ(wake.wakes, flushes); // one wake per publication
    EXPECT_TRUE(b.logically_empty());
}

/**
 * The unsynchronized same-thread fast path must preserve the full
 * semantics bit for bit: credits, visibility, negedge commits, EDVCA
 * views and batching all behave exactly as in synchronized mode.
 */
TEST(VcBufferStress, LocalModeSemanticsMatchSynchronized)
{
    for (bool local : {false, true}) {
        VcBuffer b(3);
        b.set_local(local);
        EXPECT_EQ(b.local(), local);

        b.push(make_flit(1, 5, 0));
        b.push(make_flit(2, 6, 1));
        EXPECT_EQ(b.free_slots(), 1u);
        EXPECT_EQ(b.distinct_flows(), 2u);
        EXPECT_FALSE(b.exclusively_holds(1));
        EXPECT_EQ(b.front_ready(4), nullptr);
        ASSERT_NE(b.front_ready(5), nullptr);

        b.pop();
        EXPECT_EQ(b.free_slots(), 1u); // credit held until the commit
        EXPECT_EQ(b.distinct_flows(), 2u);
        b.commit_negedge();
        EXPECT_EQ(b.free_slots(), 2u);
        EXPECT_EQ(b.distinct_flows(), 1u);
        EXPECT_TRUE(b.exclusively_holds(2));

        // Batched staging on the same-thread path (a 1-thread engine
        // run with batching requested should still be exact).
        b.set_batched(true);
        b.push(make_flit(2, 9, 2));
        EXPECT_EQ(b.staged_count(), 1u);
        EXPECT_EQ(b.free_slots(), 1u);
        EXPECT_TRUE(b.exclusively_holds(2));
        EXPECT_EQ(b.flush_staged(), 1u);
        b.set_batched(false);

        std::uint32_t drained = 0;
        while (b.front_ready(kAlways) != nullptr) {
            b.pop();
            ++drained;
        }
        b.commit_negedge();
        EXPECT_EQ(drained, 2u);
        EXPECT_TRUE(b.logically_empty());
        EXPECT_EQ(b.free_slots(), b.capacity());
        EXPECT_EQ(b.distinct_flows(), 0u);
    }
}

/**
 * Flow-table churn: many distinct flows cycling through a small buffer
 * from two threads, so table slots are claimed, drained to zero and
 * reclaimed by different flows continuously. Guards the slot-recycling
 * protocol (a freed slot's stale flow id must never be trusted).
 */
TEST(VcBufferStress, FlowTableRecyclingUnderContention)
{
    VcBuffer b(2);
    constexpr std::uint32_t kFlits = 40000;

    std::thread producer([&] {
        std::uint32_t sent = 0;
        while (sent < kFlits) {
            if (b.free_slots() > 0) {
                // A fresh flow id nearly every push: maximal slot
                // claim/free traffic in the 2-slot table.
                b.push(make_flit(1000 + (sent % 977), 0, sent));
                ++sent;
            } else {
                std::this_thread::yield();
            }
        }
    });

    std::uint32_t got = 0;
    while (got < kFlits) {
        auto f = b.front_ready(kAlways);
        if (f != nullptr) {
            ASSERT_EQ(f->flow, 1000 + (got % 977));
            b.pop();
            ++got;
            b.commit_negedge();
        } else {
            b.commit_negedge();
            std::this_thread::yield();
        }
        ASSERT_LE(b.distinct_flows(), 2u);
    }
    producer.join();
    b.commit_negedge();
    EXPECT_EQ(b.distinct_flows(), 0u);
    EXPECT_EQ(b.total_popped_committed(), kFlits);
}

} // namespace
} // namespace hornet::net
