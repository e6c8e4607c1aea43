/**
 * @file
 * Tests for the event-driven (event-fine) shard scheduler: bitwise
 * equivalence with the polling scheduler under every sync backend,
 * wake propagation across (batched) cross-shard pushes, Tile
 * aggregate/wake-hint edge cases, the scheduling-effectiveness
 * counters, and the config/env plumbing that selects the scheduler.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "net/routing/builders.h"
#include "sim/engine.h"
#include "sim/sync_policy.h"
#include "sim/system.h"
#include "test_util.h"
#include "traffic/system_builder.h"
#include "traffic/trace.h"

namespace hornet {
namespace {

using sim::AdaptiveSync;
using sim::CycleAccurateSync;
using sim::EngineOptions;
using sim::FastForwardSync;
using sim::PeriodicSync;
using sim::RunOptions;
using sim::Schedule;
using sim::System;
using testutil::make_mesh_system;
using testutil::run_scheduled;
using testutil::snapshot;

TEST(EventDriven, MatchesPollBitwiseUnderCycleAccurate)
{
    // Acceptance: 8x8 mesh, cycle-accurate sync — the event-driven
    // scheduler must produce bitwise-identical statistics to the
    // polling scheduler, sequentially and with 4 threads.
    auto ref_sys = make_mesh_system(8, 0.15, 7);
    CycleAccurateSync ref_policy;
    run_scheduled(*ref_sys, ref_policy, Schedule::Poll, 1, 2000);
    const std::string ref = snapshot(ref_sys->collect_stats());

    for (unsigned threads : {1u, 4u}) {
        auto sys = make_mesh_system(8, 0.15, 7);
        CycleAccurateSync policy;
        Cycle end =
            run_scheduled(*sys, policy, Schedule::EventFine, threads, 2000);
        EXPECT_EQ(end, 2000u);
        EXPECT_EQ(snapshot(sys->collect_stats()), ref)
            << "threads=" << threads;
    }
}

TEST(EventDriven, MatchesPollBitwiseUnderPeriodicFreeRun)
{
    // Free-running windows exercise the run_until jump path. A single
    // shard keeps free-running deterministic, so the comparison can
    // stay bitwise.
    auto ref_sys = make_mesh_system(4, 0.0, 5, /*burst_period=*/300);
    PeriodicSync ref_policy(16);
    run_scheduled(*ref_sys, ref_policy, Schedule::Poll, 1, 6000);
    const std::string ref = snapshot(ref_sys->collect_stats());

    auto sys = make_mesh_system(4, 0.0, 5, /*burst_period=*/300);
    PeriodicSync policy(16);
    run_scheduled(*sys, policy, Schedule::EventFine, 1, 6000);
    EXPECT_EQ(snapshot(sys->collect_stats()), ref);
}

TEST(EventDriven, MatchesPollBitwiseUnderAdaptiveBatchedLockstep)
{
    // Adaptive sync pinned to one-cycle windows (min == max == 1) is
    // lockstep, so 4 threads + batched handoff + event scheduling must
    // still be bitwise identical to the sequential polling run.
    AdaptiveSync::Options pinned;
    pinned.min_period = 1;
    pinned.max_period = 1;

    auto ref_sys = make_mesh_system(8, 0.15, 7);
    AdaptiveSync ref_policy(pinned);
    run_scheduled(*ref_sys, ref_policy, Schedule::Poll, 1, 2000);
    const std::string ref = snapshot(ref_sys->collect_stats());

    for (bool batch : {false, true}) {
        auto sys = make_mesh_system(8, 0.15, 7);
        AdaptiveSync policy(pinned);
        run_scheduled(*sys, policy, Schedule::EventFine, 4, 2000, batch);
        EXPECT_EQ(snapshot(sys->collect_stats()), ref) << "batch=" << batch;
    }
}

TEST(EventDriven, MatchesPollBitwiseUnderFastForward)
{
    // Fast-forward (global jumps) composes with event scheduling
    // (per-tile sleep): same results, and both skip counters move.
    auto ref_sys = make_mesh_system(4, 0.0, 9, /*burst_period=*/500);
    FastForwardSync ref_policy(std::make_unique<CycleAccurateSync>());
    run_scheduled(*ref_sys, ref_policy, Schedule::Poll, 1, 5000);
    const std::string ref = snapshot(ref_sys->collect_stats());

    for (unsigned threads : {1u, 3u}) {
        auto sys = make_mesh_system(4, 0.0, 9, /*burst_period=*/500);
        FastForwardSync policy(std::make_unique<CycleAccurateSync>());
        run_scheduled(*sys, policy, Schedule::EventFine, threads, 5000);
        EXPECT_EQ(snapshot(sys->collect_stats()), ref)
            << "threads=" << threads;
    }
}

TEST(EventDriven, AdaptiveBatchedMultiThreadConservesAllTraffic)
{
    // Loose multi-shard windows are not bitwise comparable across
    // schedulers (thread-timing dependent), but conservation must
    // hold: every injected flit is delivered, with wakes crossing
    // shard boundaries through the mailbox.
    auto sys = make_mesh_system(4, 0.0, 3, /*burst_period=*/100,
                                /*stop_at=*/2000);
    AdaptiveSync policy;
    EngineOptions opts;
    opts.max_cycles = 16000;
    opts.batch_cross_shard = true;
    opts.schedule = Schedule::EventFine;
    sys->run(policy, opts, /*threads=*/4);
    auto s = sys->collect_stats();
    EXPECT_GT(s.total.packets_injected, 0u);
    EXPECT_EQ(s.total.flits_delivered, s.total.flits_injected);
    EXPECT_EQ(s.total.packets_delivered, s.total.packets_injected);
}

TEST(EventDriven, PeriodicMultiThreadConservesAllTraffic)
{
    for (std::uint32_t period : {2u, 10u, 100u}) {
        auto sys = make_mesh_system(4, 0.0, 3, /*burst_period=*/100,
                                    /*stop_at=*/2000);
        PeriodicSync policy(period);
        EngineOptions opts;
        opts.max_cycles = 16000;
        opts.schedule = Schedule::EventFine;
        sys->run(policy, opts, /*threads=*/4);
        auto s = sys->collect_stats();
        EXPECT_GT(s.total.packets_injected, 0u) << "period=" << period;
        EXPECT_EQ(s.total.flits_delivered, s.total.flits_injected)
            << "period=" << period;
    }
}

TEST(EventDriven, WakeOrderingAcrossBatchedCrossShardPush)
{
    // Two tiles, two shards: tile 1 has nothing to do and goes to
    // sleep immediately; a single traced packet leaves tile 0 at
    // cycle 100 and must wake tile 1 through the staged (batched)
    // cross-shard publish. Delivered-packet statistics — including
    // the latency samples — must match the sequential polling run
    // for every scheduler x batching combination.
    auto build = [] {
        net::Topology topo = net::Topology::mesh2d(2, 1);
        auto sys = std::make_unique<System>(topo, net::NetworkConfig{},
                                            /*seed=*/21);
        auto events =
            traffic::parse_trace_string("100 1 0 1 4\n120 2 0 1 4\n");
        net::routing::build_xy(sys->network(),
                               traffic::flows_from_trace(events));
        sys->add_frontend(0, std::make_unique<traffic::TraceInjector>(
                                 sys->tile(0), events));
        return sys;
    };

    auto ref_sys = build();
    CycleAccurateSync ref_policy;
    run_scheduled(*ref_sys, ref_policy, Schedule::Poll, 1, 400);
    const std::string ref = snapshot(ref_sys->collect_stats());
    EXPECT_EQ(ref_sys->collect_stats().total.packets_delivered, 2u);

    for (Schedule sched : {Schedule::Poll, Schedule::EventFine}) {
        for (bool batch : {false, true}) {
            auto sys = build();
            CycleAccurateSync policy;
            run_scheduled(*sys, policy, sched, /*threads=*/2, 400,
                          batch);
            EXPECT_EQ(snapshot(sys->collect_stats()), ref)
                << "sched=" << static_cast<int>(sched)
                << " batch=" << batch;
        }
    }
}

TEST(EventDriven, BidirectionalLinkEndpointsSleepAndStayExact)
{
    // A pooled link's split reads both endpoints' demand of the
    // previous cycle, and a router that was not ticked publishes none
    // — exactly what an idle router publishes under polling. So the
    // endpoints sleep like any other tile and results stay bitwise
    // identical.
    auto build = [] {
        net::Topology topo = net::Topology::mesh2d(4, 4);
        net::NetworkConfig cfg;
        cfg.bidirectional_links = true;
        auto sys = std::make_unique<System>(topo, cfg, /*seed=*/3);
        auto pattern = traffic::pattern_by_name("transpose", 16);
        net::routing::build_xy(sys->network(),
                               traffic::flows_for_pattern(16, pattern));
        for (NodeId n = 0; n < 16; ++n) {
            traffic::SyntheticConfig sc;
            sc.pattern = pattern;
            sc.packet_size = 4;
            sc.rate = 0.1;
            sys->add_frontend(
                n, std::make_unique<traffic::SyntheticInjector>(
                       sys->tile(n), sc));
        }
        return sys;
    };

    auto ref_sys = build();
    CycleAccurateSync ref_policy;
    run_scheduled(*ref_sys, ref_policy, Schedule::Poll, 1, 1500);
    const std::string ref = snapshot(ref_sys->collect_stats());

    auto sys = build();
    CycleAccurateSync policy;
    run_scheduled(*sys, policy, Schedule::EventFine, 2, 1500);
    EXPECT_EQ(snapshot(sys->collect_stats()), ref);
    // Every tile is a link endpoint, and tiles still sleep.
    EXPECT_GT(sys->last_engine_stats().tile_cycles_skipped, 0u);
}

// ----------------------------------------------------------------------
// Tile aggregation / wake-hint edge cases.
// ----------------------------------------------------------------------

/** Scripted component for exercising the Tile aggregate folds. */
class StubFrontend final : public sim::Frontend
{
  public:
    StubFrontend(bool idle, Cycle next, bool done)
        : idle_(idle), next_(next), done_(done)
    {}

    void posedge(Cycle) override {}
    void negedge(Cycle) override {}
    bool idle(Cycle) const override { return idle_; }
    Cycle
    next_event(Cycle now) const override
    {
        return next_ == kRelativeNext ? now + 1 : next_;
    }
    bool done(Cycle) const override { return done_; }

    /** Sentinel: report next_event as now + 1 (cannot predict). */
    static constexpr Cycle kRelativeNext = ~Cycle{0} - 1;

  private:
    bool idle_;
    Cycle next_;
    bool done_;
};

TEST(EventDriven, TileAggregatesAllNoEventComponents)
{
    sim::Tile t(0, 1);
    t.add_frontend(std::make_unique<StubFrontend>(true, kNoEvent, true));
    t.add_frontend(std::make_unique<StubFrontend>(true, kNoEvent, true));
    EXPECT_FALSE(t.busy());
    EXPECT_EQ(t.next_event(), kNoEvent);
    EXPECT_TRUE(t.done());
}

TEST(EventDriven, TileAggregatesNowPlusOneComponent)
{
    // A component that cannot predict (returns now + 1) must dominate
    // the fold over kNoEvent siblings, and the cached fold must track
    // the clock across jumps.
    sim::Tile t(0, 1);
    t.add_frontend(std::make_unique<StubFrontend>(true, kNoEvent, true));
    t.add_frontend(std::make_unique<StubFrontend>(
        true, StubFrontend::kRelativeNext, false));
    EXPECT_EQ(t.next_event(), 1u); // now == 0
    EXPECT_FALSE(t.done());
    t.advance_to(41);
    EXPECT_EQ(t.next_event(), 42u); // cache invalidated by the jump
}

TEST(EventDriven, TileAggregatesMinAbsoluteEvent)
{
    sim::Tile t(0, 1);
    t.add_frontend(std::make_unique<StubFrontend>(true, 300, true));
    t.add_frontend(std::make_unique<StubFrontend>(true, 70, true));
    t.add_frontend(std::make_unique<StubFrontend>(true, kNoEvent, true));
    EXPECT_FALSE(t.busy());
    EXPECT_EQ(t.next_event(), 70u);

    sim::Tile busy_tile(1, 1);
    busy_tile.add_frontend(
        std::make_unique<StubFrontend>(false, 70, false));
    EXPECT_TRUE(busy_tile.busy());
}

TEST(EventDriven, TileNotifyActivityForwardsToSink)
{
    struct RecordingSink final : sim::Tile::WakeSink
    {
        sim::Tile *woken = nullptr;
        Cycle at = 0;
        void
        wake(sim::Tile &t, Cycle a) override
        {
            woken = &t;
            at = a;
        }
    };

    sim::Tile t(0, 1);
    RecordingSink sink;
    t.set_wake_sink(&sink);
    t.notify_activity(123);
    EXPECT_EQ(sink.woken, &t);
    EXPECT_EQ(sink.at, 123u);
    t.set_wake_sink(nullptr);
    t.notify_activity(456); // no sink: cache invalidation only
    EXPECT_EQ(sink.at, 123u);
}

// ----------------------------------------------------------------------
// Scheduling-effectiveness counters.
// ----------------------------------------------------------------------

TEST(EventDriven, SkippedCycleCountersAreReported)
{
    const Cycle horizon = 5000;

    // Fast-forward, polling: global jumps show up in both counters.
    auto ff_sys = make_mesh_system(4, 0.0, 9, /*burst_period=*/500);
    FastForwardSync ff(std::make_unique<CycleAccurateSync>());
    run_scheduled(*ff_sys, ff, Schedule::Poll, 1, horizon);
    auto ff_stats = ff_sys->collect_stats();
    EXPECT_GT(ff_stats.ff_skipped_cycles, 0u);
    EXPECT_GT(ff_stats.tile_cycles_skipped, 0u);
    EXPECT_EQ(ff_stats.tile_cycles_run + ff_stats.tile_cycles_skipped,
              16u * horizon);
    EXPECT_NE(ff_stats.summary().find("idle tile-cycles skipped"),
              std::string::npos);

    // Event-driven, no fast-forward: per-tile sleep shows up in the
    // tile-cycle counter, while no global jumps happen.
    auto ev_sys = make_mesh_system(4, 0.0, 9, /*burst_period=*/500);
    CycleAccurateSync ca;
    run_scheduled(*ev_sys, ca, Schedule::EventFine, 1, horizon);
    auto ev_stats = ev_sys->collect_stats();
    EXPECT_EQ(ev_stats.ff_skipped_cycles, 0u);
    EXPECT_GT(ev_stats.tile_cycles_skipped, 0u);
    EXPECT_EQ(ev_stats.tile_cycles_run + ev_stats.tile_cycles_skipped,
              16u * horizon);

    // Polling without fast-forward skips nothing.
    auto po_sys = make_mesh_system(4, 0.0, 9, /*burst_period=*/500);
    CycleAccurateSync ca2;
    run_scheduled(*po_sys, ca2, Schedule::Poll, 1, horizon);
    auto po_stats = po_sys->collect_stats();
    EXPECT_EQ(po_stats.tile_cycles_skipped, 0u);
    EXPECT_EQ(po_stats.tile_cycles_run, 16u * horizon);
}

TEST(EventDriven, ComponentCycleCountersAreReported)
{
    const Cycle horizon = 5000;

    // The component x cycle grid is invariant across schedulers; the
    // run/skip split is not. Event-fine scheduling must tick strictly
    // fewer component-cycles than polling on a sparse workload (same
    // results — the differential harness pins that; here only the
    // counters are of interest).
    auto po_sys = make_mesh_system(4, 0.01, 9);
    CycleAccurateSync ca;
    run_scheduled(*po_sys, ca, Schedule::Poll, 1, horizon);
    auto po = po_sys->collect_stats();

    auto fi_sys = make_mesh_system(4, 0.01, 9);
    CycleAccurateSync ca2;
    run_scheduled(*fi_sys, ca2, Schedule::EventFine, 1, horizon);
    auto fi = fi_sys->collect_stats();

    EXPECT_EQ(po.comp_cycles_run + po.comp_cycles_skipped,
              fi.comp_cycles_run + fi.comp_cycles_skipped);
    EXPECT_GT(po.comp_cycles_run, 0u);
    EXPECT_LT(fi.comp_cycles_run, po.comp_cycles_run);
    // Polling ticks whole tiles, so its component split is the tile
    // split scaled by the (uniform) per-tile component count.
    ASSERT_GT(po.tile_cycles_run, 0u);
    EXPECT_EQ(po.comp_cycles_run % po.tile_cycles_run, 0u);
    // Sleeping whole tiles alone would tick every component of each
    // awake tile-cycle; event-fine must also skip idle components
    // inside awake tiles.
    const std::uint64_t per_tile = po.comp_cycles_run / po.tile_cycles_run;
    EXPECT_LT(fi.comp_cycles_run, fi.tile_cycles_run * per_tile);
    EXPECT_NE(fi.summary().find("idle component-cycles skipped"),
              std::string::npos);
}

// ----------------------------------------------------------------------
// Selection plumbing: RunOptions, config file, environment.
// ----------------------------------------------------------------------

TEST(EventDriven, RunOptionsScheduleSelection)
{
    auto sys = make_mesh_system(2, 0.1, 1);
    RunOptions ro;
    ro.max_cycles = 100;
    ro.schedule = "event-fine";
    sys->run(ro);
    EXPECT_TRUE(sys->last_engine_stats().event_driven);

    ro.schedule = "poll";
    sys->run(ro);
    EXPECT_FALSE(sys->last_engine_stats().event_driven);

    ro.schedule = "bogus";
    EXPECT_THROW(sys->run(ro), std::runtime_error);
}

TEST(EventDriven, RetiredEventScheduleFailsNamingItsReplacement)
{
    // The tile-granularity "event" scheduler was folded into
    // event-fine; every way of asking for it must fail loudly and
    // point at the replacement.
    auto expect_names_event_fine = [](auto &&select) {
        try {
            select();
            ADD_FAILURE() << "schedule = event was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("event-fine"),
                      std::string::npos)
                << e.what();
        }
    };
    expect_names_event_fine([] { sim::schedule_from_name("event"); });
    expect_names_event_fine([] {
        traffic::run_options_from_config(
            Config::from_string("[sim]\nschedule = event\n"));
    });
    auto sys = make_mesh_system(2, 0.1, 1);
    RunOptions ro;
    ro.max_cycles = 100;
    ro.schedule = "event";
    expect_names_event_fine([&] { sys->run(ro); });
}

TEST(EventDriven, ConfigScheduleKey)
{
    Config poll = Config::from_string("[sim]\nschedule = poll\n");
    EXPECT_EQ(traffic::run_options_from_config(poll).schedule, "poll");

    Config fine = Config::from_string("[sim]\nschedule = event-fine\n");
    EXPECT_EQ(traffic::run_options_from_config(fine).schedule,
              "event-fine");

    Config dflt = Config::from_string("");
    EXPECT_EQ(traffic::run_options_from_config(dflt).schedule, "");

    Config bad = Config::from_string("[sim]\nschedule = sometimes\n");
    EXPECT_THROW(traffic::run_options_from_config(bad),
                 std::runtime_error);
}

TEST(EventDriven, EnvironmentSelectsSchedulerWhenUnset)
{
    // Preserve whatever schedule this test process itself runs under
    // (CI exercises the suite with HORNET_SCHEDULE=event-fine).
    const char *orig = std::getenv("HORNET_SCHEDULE");
    const std::string saved = orig ? orig : "";

    auto sys = make_mesh_system(2, 0.1, 1);
    RunOptions ro;
    ro.max_cycles = 100;

    ::setenv("HORNET_SCHEDULE", "event-fine", 1);
    sys->run(ro);
    EXPECT_TRUE(sys->last_engine_stats().event_driven);

    // An explicit selection beats the environment.
    ro.schedule = "poll";
    sys->run(ro);
    EXPECT_FALSE(sys->last_engine_stats().event_driven);

    ro.schedule.clear();
    ::setenv("HORNET_SCHEDULE", "mash", 1);
    EXPECT_THROW(sys->run(ro), std::runtime_error);
    ::setenv("HORNET_SCHEDULE", "event", 1); // retired
    EXPECT_THROW(sys->run(ro), std::runtime_error);

    // Unset, the default is event-fine.
    ::unsetenv("HORNET_SCHEDULE");
    sys->run(ro);
    EXPECT_TRUE(sys->last_engine_stats().event_driven);

    if (!saved.empty())
        ::setenv("HORNET_SCHEDULE", saved.c_str(), 1);
}

} // namespace
} // namespace hornet
