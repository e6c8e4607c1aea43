/**
 * @file
 * Tests for the lock-free cross-shard wake mailbox (ISSUE 5): the
 * common::MpscRing protocol itself (FIFO per producer, conservation
 * under multi-producer contention, full-ring refusal, lap reuse), the
 * Shard mailbox built on it (wake conservation with and without
 * overflow, no lost or duplicated activations, drain visibility at the
 * rendezvous points), and an end-to-end engine run where every
 * cross-shard push crosses the mailbox. The whole file runs under both
 * HORNET_SCHEDULE values and under the TSAN/ASan CI legs like every
 * test binary.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/ring.h"
#include "sim/engine.h"
#include "sim/sync_policy.h"
#include "sim/tile.h"
#include "test_util.h"

namespace hornet {
namespace {

using common::MpscRing;
using sim::Shard;
using sim::Tile;

// ----------------------------------------------------------------------
// MpscRing protocol.
// ----------------------------------------------------------------------

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(MpscRing<int>(1).capacity(), 2u);
    EXPECT_EQ(MpscRing<int>(2).capacity(), 2u);
    EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
    EXPECT_EQ(MpscRing<int>(256).capacity(), 256u);
    EXPECT_EQ(MpscRing<int>(257).capacity(), 512u);
}

TEST(MpscRing, SingleProducerFifoAcrossLaps)
{
    MpscRing<int> ring(8);
    // Several laps around the ring: cell sequence reuse must preserve
    // FIFO order and never hand back a stale element.
    int expect = 0;
    for (int lap = 0; lap < 5; ++lap) {
        for (int i = 0; i < 6; ++i)
            ASSERT_TRUE(ring.try_push(lap * 6 + i));
        int v;
        for (int i = 0; i < 6; ++i) {
            ASSERT_TRUE(ring.try_pop(v));
            EXPECT_EQ(v, expect++);
        }
        ASSERT_FALSE(ring.try_pop(v));
    }
}

TEST(MpscRing, RefusesWhenFullAndRecoversAfterDrain)
{
    MpscRing<int> ring(4);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.try_push(i));
    EXPECT_FALSE(ring.try_push(99)); // full: caller must overflow
    int v;
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(ring.try_push(4)); // freed cell is reusable
    for (int expect = 1; expect <= 4; ++expect) {
        ASSERT_TRUE(ring.try_pop(v));
        EXPECT_EQ(v, expect);
    }
}

TEST(MpscRing, MultiProducerConservationAndPerProducerOrder)
{
    // P producers push K tagged items each while the consumer drains
    // concurrently. Every item must arrive exactly once, and each
    // producer's items must arrive in its push order (the ring is
    // FIFO in claim order; claims are program-ordered per producer).
    constexpr unsigned kProducers = 4;
    constexpr std::uint64_t kPerProducer = 20000;
    MpscRing<std::uint64_t> ring(64); // small: forces full-ring retries

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (unsigned p = 0; p < kProducers; ++p) {
        producers.emplace_back([&ring, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                const std::uint64_t item =
                    (static_cast<std::uint64_t>(p) << 32) | i;
                while (!ring.try_push(item))
                    std::this_thread::yield();
            }
        });
    }

    std::vector<std::uint64_t> next_seq(kProducers, 0);
    std::uint64_t received = 0;
    while (received < kProducers * kPerProducer) {
        std::uint64_t item;
        if (!ring.try_pop(item)) {
            std::this_thread::yield();
            continue;
        }
        const unsigned p = static_cast<unsigned>(item >> 32);
        const std::uint64_t seq = item & 0xffffffffu;
        ASSERT_LT(p, kProducers);
        ASSERT_EQ(seq, next_seq[p]) << "producer " << p;
        ++next_seq[p];
        ++received;
    }
    for (auto &t : producers)
        t.join();
    std::uint64_t leftover;
    EXPECT_FALSE(ring.try_pop(leftover));
}

// ----------------------------------------------------------------------
// Shard wake mailbox.
// ----------------------------------------------------------------------

/** A shard of @p n bare tiles (no components: always idle, next_event
 *  kNoEvent), prepared for an event-driven run and ticked one cycle so
 *  every tile has retired to the wake heap as an external-wake-only
 *  sleeper. Wakes posted from other threads go through the mailbox
 *  because no worker thread was bound. */
struct SleepingShard
{
    std::vector<std::unique_ptr<Tile>> tiles;
    Shard shard;

    explicit SleepingShard(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            tiles.push_back(std::make_unique<Tile>(
                static_cast<NodeId>(i), /*seed=*/i + 1));
            shard.add_tile(tiles.back().get());
        }
        shard.prepare_run(sim::Schedule::EventFine);
        shard.posedge();
        shard.negedge();
        EXPECT_EQ(shard.active_tiles(), 0u);
    }

    ~SleepingShard() { shard.finish_run(); }
};

TEST(WakeMailbox, CrossThreadWakesVisibleAfterRendezvousDrain)
{
    // One posting thread per tile, distinct wake cycles; after the
    // threads complete, a prepare_summaries() drain must surface the
    // earliest wake in next_event() — the property the engine's
    // stop_when_done veto relies on.
    constexpr std::size_t kTiles = 8;
    SleepingShard s(kTiles);
    ASSERT_EQ(s.shard.next_event(), kNoEvent);

    std::vector<std::thread> posters;
    for (std::size_t i = 0; i < kTiles; ++i)
        posters.emplace_back([&s, i] {
            s.shard.wake(*s.tiles[i], static_cast<Cycle>(20 + i));
        });
    for (auto &t : posters)
        t.join();

    s.shard.prepare_summaries();
    EXPECT_EQ(s.shard.next_event(), 20u);
}

TEST(WakeMailbox, ConservationUnderOverflowStorm)
{
    // Far more posts than the mailbox ring holds (kMailboxCapacity is
    // 1024), with no drain in between: the overflow fallback must
    // lose nothing and duplicates must collapse. Every tile is woken for
    // exactly one cycle (10 + slot) by many redundant posts from
    // several threads; after the storm the shard must activate each
    // tile exactly once.
    constexpr std::size_t kTiles = 16;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPostsPerThread = 4000; // >> ring capacity
    SleepingShard s(kTiles);
    const std::uint64_t ticks_before = s.shard.tile_cycles_run();

    std::vector<std::thread> posters;
    for (unsigned t = 0; t < kThreads; ++t) {
        posters.emplace_back([&s, t] {
            for (std::uint64_t i = 0; i < kPostsPerThread; ++i) {
                const std::size_t slot = (t + i) % kTiles;
                s.shard.wake(*s.tiles[slot],
                             static_cast<Cycle>(10 + slot));
            }
        });
    }
    for (auto &t : posters)
        t.join();

    s.shard.prepare_summaries();
    EXPECT_EQ(s.shard.next_event(), 10u);

    // Each tile activates at its wake cycle, ticks exactly one cycle
    // (it is still component-less, so it immediately re-sleeps), and
    // must not be re-activated by any of the redundant posts.
    s.shard.run_until(10 + kTiles + 5);
    EXPECT_EQ(s.shard.tile_cycles_run() - ticks_before, kTiles);
    EXPECT_EQ(s.shard.active_tiles(), 0u);
    EXPECT_EQ(s.shard.next_event(), kNoEvent);
}

TEST(WakeMailbox, WakeForActiveTileIsNoOp)
{
    // Wakes addressed to a tile that never slept must not disturb the
    // schedule (active tiles re-evaluate their state every negedge).
    constexpr std::size_t kTiles = 4;
    std::vector<std::unique_ptr<Tile>> tiles;
    Shard shard;
    for (std::size_t i = 0; i < kTiles; ++i) {
        tiles.push_back(std::make_unique<Tile>(
            static_cast<NodeId>(i), /*seed=*/i + 1));
        shard.add_tile(tiles.back().get());
    }
    shard.prepare_run(sim::Schedule::EventFine); // all tiles start active
    EXPECT_EQ(shard.active_tiles(), kTiles);

    std::thread poster([&] {
        for (int i = 0; i < 1000; ++i)
            shard.wake(*tiles[i % kTiles], 5);
    });
    poster.join();
    shard.prepare_summaries();
    EXPECT_EQ(shard.active_tiles(), kTiles);
    shard.finish_run();
}

TEST(WakeMailbox, EarlierWakeSupersedesLaterOne)
{
    // A tile sleeping on a late wake must be re-scheduled when an
    // earlier one arrives (lazy heap re-sort), and the stale entry
    // must not cause a second activation.
    SleepingShard s(2);
    const std::uint64_t ticks_before = s.shard.tile_cycles_run();
    s.shard.wake(*s.tiles[0], 100);
    s.shard.prepare_summaries();
    EXPECT_EQ(s.shard.next_event(), 100u);
    s.shard.wake(*s.tiles[0], 30);
    s.shard.prepare_summaries();
    EXPECT_EQ(s.shard.next_event(), 30u);

    s.shard.run_until(150);
    // Exactly one activation (at cycle 30), not one per posted wake.
    EXPECT_EQ(s.shard.tile_cycles_run() - ticks_before, 1u);
}

// ----------------------------------------------------------------------
// End to end: every cross-shard push crosses the mailbox.
// ----------------------------------------------------------------------

TEST(WakeMailbox, LockstepMultiShardRunStaysBitwiseIdentical)
{
    // 8x8 transpose mesh under cycle-accurate sync: with 4 shards,
    // every boundary-crossing flit wakes its consumer through the
    // mailbox at every cycle barrier. The statistics fingerprint must
    // match the sequential polling run bit for bit — the mailbox is
    // scheduling machinery, never an observable simulation event.
    auto ref_sys = testutil::make_mesh_system(8, 0.2, 11);
    sim::CycleAccurateSync ref_policy;
    sim::EngineOptions ref_opts;
    ref_opts.max_cycles = 1500;
    ref_opts.schedule = sim::Schedule::Poll;
    ref_sys->run(ref_policy, ref_opts, /*threads=*/1);
    const std::string ref = testutil::snapshot(ref_sys->collect_stats());

    auto sys = testutil::make_mesh_system(8, 0.2, 11);
    sim::CycleAccurateSync policy;
    sim::EngineOptions opts;
    opts.max_cycles = 1500;
    opts.schedule = sim::Schedule::EventFine;
    sys->run(policy, opts, /*threads=*/4);
    EXPECT_EQ(testutil::snapshot(sys->collect_stats()), ref);
}

} // namespace
} // namespace hornet
