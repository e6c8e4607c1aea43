/**
 * @file
 * Giant-mesh coverage for the arena-backed layout (ISSUE 6): a 64x64
 * mesh constructs and runs under both shard schedulers, placement
 * grouping never changes results (it only moves objects), the 32x32
 * poll/event-fine legs stay bitwise identical (bidirectional links
 * included), and the arena footprint is observable — and bounded —
 * through SystemStats.
 *
 * Every system here uses the shuffle pattern: flow tables are built
 * per source-destination pair, so all-pairs traffic ("uniform") is
 * quadratic in nodes and would make construction, not simulation, the
 * cost at this size.
 */
#include <gtest/gtest.h>

#include <memory>

#include "sim/system.h"
#include "test_util.h"

namespace hornet {
namespace {

using testutil::make_big_mesh;

TEST(BigMesh, Mesh64RunsUnderAllSchedulers)
{
    // The headline acceptance case: 4096 tiles construct into the
    // per-group arenas and run. All scheduler legs must agree on
    // delivered traffic (full bitwise identity is asserted on the
    // cheaper 32x32 below).
    std::uint64_t delivered[2];
    int i = 0;
    for (const char *sched : {"poll", "event-fine"}) {
        auto sys = make_big_mesh(64, 0.02, /*seed=*/11);
        ASSERT_EQ(sys->num_tiles(), 4096u);
        sim::RunOptions ro;
        ro.max_cycles = 150;
        ro.schedule = sched;
        sys->run(ro);
        delivered[i++] = sys->collect_stats().total.flits_delivered;
    }
    EXPECT_GT(delivered[0], 0u);
    EXPECT_EQ(delivered[0], delivered[1]);
}

TEST(BigMesh, Mesh32SchedulersBitwiseIdentical)
{
    // Single-shard event-driven scheduling carries the paper's
    // determinism contract to giant meshes: the full per-tile /
    // per-flow fingerprint must match the polling leg exactly, with
    // unidirectional and with bidirectional links — and event-fine
    // must still sleep tiles when every tile is a link endpoint.
    for (bool bidir : {false, true}) {
        SCOPED_TRACE(bidir ? "bidirectional" : "unidirectional");
        net::NetworkConfig cfg;
        cfg.bidirectional_links = bidir;
        std::string snaps[2];
        int i = 0;
        for (const char *sched : {"poll", "event-fine"}) {
            auto sys = make_big_mesh(32, 0.05, /*seed=*/23, {}, cfg);
            sim::RunOptions ro;
            ro.max_cycles = 400;
            ro.schedule = sched;
            sys->run(ro);
            snaps[i++] = testutil::snapshot(sys->collect_stats());
            if (std::string(sched) == "event-fine")
                EXPECT_GT(sys->last_engine_stats().tile_cycles_skipped,
                          0u);
        }
        EXPECT_EQ(snaps[0], snaps[1]);
    }
}

TEST(BigMesh, PlacementGroupsNeverChangeResults)
{
    // Placement moves objects between arenas and first-touch threads;
    // it must be invisible to simulation results — sequentially and
    // under lockstep sharding.
    for (unsigned threads : {1u, 4u}) {
        std::string snaps[2];
        int i = 0;
        for (unsigned groups : {1u, 4u}) {
            sim::SystemLayout layout;
            layout.placement_groups = groups;
            auto sys = make_big_mesh(16, 0.1, /*seed=*/7, layout);
            EXPECT_EQ(sys->placement_groups(), groups);
            sim::RunOptions ro;
            ro.max_cycles = 600;
            ro.threads = threads;
            sys->run(ro);
            snaps[i++] = testutil::snapshot(sys->collect_stats());
        }
        EXPECT_EQ(snaps[0], snaps[1]) << "threads=" << threads;
    }
}

TEST(BigMesh, PinModesNeverChangeResults)
{
    // Thread affinity is a performance knob only.
    std::string snaps[3];
    int i = 0;
    for (const char *pin : {"none", "compact", "spread"}) {
        auto sys = make_big_mesh(16, 0.1, /*seed=*/7, {});
        sim::RunOptions ro;
        ro.max_cycles = 600;
        ro.threads = 2;
        ro.pin = pin;
        sys->run(ro);
        snaps[i++] = testutil::snapshot(sys->collect_stats());
    }
    EXPECT_EQ(snaps[0], snaps[1]);
    EXPECT_EQ(snaps[0], snaps[2]);
}

TEST(BigMesh, ArenaFootprintReportedAndBounded)
{
    sim::SystemLayout layout;
    layout.placement_groups = 1;
    auto sys = make_big_mesh(32, 0.02, /*seed=*/5, layout);
    const SystemStats stats = sys->collect_stats();
    ASSERT_EQ(stats.arena_per_group.size(), 1u);
    EXPECT_GT(stats.arena_bytes_used, 0u);
    EXPECT_GE(stats.arena_bytes_reserved, stats.arena_bytes_used);
    EXPECT_EQ(stats.arena_per_group[0].bytes_used,
              stats.arena_bytes_used);
    // The construction arena holds each tile's router, VC buffers,
    // rings and flow tables — ~21.6 KiB/tile packed (vs ~30 KiB/tile
    // of total heap before the arena; docs/BENCHMARKS.md). The cap
    // leaves a little headroom; growing past it means per-flit state
    // is creeping back toward the heap-era footprint.
    EXPECT_GT(stats.arena_bytes_per_tile, 0.0);
    EXPECT_LT(stats.arena_bytes_per_tile, 24.0 * 1024);
    // The footprint shows up in the human-readable summary.
    EXPECT_NE(stats.summary().find("arena bytes"), std::string::npos);
}

} // namespace
} // namespace hornet
