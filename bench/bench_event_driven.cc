/**
 * @file
 * Event-driven shard scheduling: O(active components) cycles vs the
 * polling scheduler's O(all tiles), extending the Fig 7 fast-forward
 * methodology from "skip globally idle stretches" to "skip every idle
 * tile, and every idle component inside the awake tiles, every cycle".
 *
 * The single-thread sweep crosses injection rate x mesh size x
 * scheduler (poll, event-fine) under cycle-accurate sync with
 * fast-forwarding off, so the entire difference comes from per-tile
 * and per-component sleeping. At low rates most of the tile x cycle
 * grid is idle: event-fine's cost tracks the handful of active tiles,
 * and inside them only the components with work. At saturation every
 * tile is busy every cycle and event-fine must stay within noise of
 * polling (its wake bookkeeping is the only overhead). A bursty row
 * (long fully-drained gaps, the Fig 7a regime) shows the trace-replay
 * case where sleeping wins even without fast-forward.
 *
 * The cross-thread section then re-runs the low-rate lockstep config
 * at 2 and 4 shards: every cross-shard push wakes the consumer tile
 * through the Shard wake mailbox, and lockstep windows drain it at
 * every cycle barrier, so these rows measure the mailbox hand-off
 * itself (mutex mailbox before ISSUE 5, lock-free MPSC ring after; see
 * docs/BENCHMARKS.md). Results must stay bitwise identical across
 * schedulers and thread counts (lockstep windows).
 *
 * Gates: the fine_over_poll ratio rows (best-of-3 per scheduler) on
 * the rate-0.01 rows keep per-component sleeping measured against the
 * polling reference; the wall rows guard both schedulers; saturation
 * rows bound the wake bookkeeping's overhead.
 *
 * --quick runs the CI-smoke subset (8x8 mesh, shortened horizons)
 * with unchanged row names; --json=PATH feeds the perf-regression
 * harness (scripts/check_bench_regression.py).
 */
#include <algorithm>
#include <cstdio>

#include "bench_util.h"

using namespace hornet;
using namespace hornet::benchutil;

namespace {

JsonReport report("bench_event_driven");

struct Sample
{
    double wall_s = 0.0;
    double skipped_frac = 0.0;
    std::uint64_t delivered = 0;
};

Sample
run_one(std::uint32_t side, const char *pattern, double rate,
        Cycle burst_period, sim::Schedule sched, Cycle cycles,
        unsigned threads)
{
    net::Topology topo = net::Topology::mesh2d(side, side);
    auto sys = make_synthetic(topo, {}, pattern, rate, 8, 17, "xy",
                              burst_period,
                              /*burst_size=*/burst_period ? 2 : 1);
    sim::CycleAccurateSync policy;
    sim::EngineOptions opts;
    opts.max_cycles = cycles;
    opts.schedule = sched;
    Sample out;
    out.wall_s = wall_seconds([&] { sys->run(policy, opts, threads); });
    auto stats = sys->collect_stats();
    const std::uint64_t grid =
        stats.tile_cycles_run + stats.tile_cycles_skipped;
    out.skipped_frac =
        grid ? static_cast<double>(stats.tile_cycles_skipped) /
                   static_cast<double>(grid)
             : 0.0;
    out.delivered = stats.total.flits_delivered;
    return out;
}

void
sweep_row(std::uint32_t side, const char *pattern, double rate,
          Cycle burst_period, Cycle cycles, bool gate_fine_ratio = false)
{
    Sample poll = run_one(side, pattern, rate, burst_period,
                          sim::Schedule::Poll, cycles, /*threads=*/1);
    Sample fine = run_one(side, pattern, rate, burst_period,
                          sim::Schedule::EventFine, cycles,
                          /*threads=*/1);
    if (poll.delivered != fine.delivered)
        fatal("scheduler changed results: delivered flits diverged");
    // us/flit: wall cost per delivered flit under event-fine — the
    // flatter this stays as rate drops, the closer the scheduler is to
    // true O(events) cost.
    const double us_per_flit =
        fine.delivered ? 1e6 * fine.wall_s /
                             static_cast<double>(fine.delivered)
                       : 0.0;
    std::printf("%ux%u,%s,%s,%.3f,%lu,%.3f,%.3f,%.1f%%,%.2f,%.2f\n",
                side, side, pattern, burst_period ? "burst" : "rate",
                rate, static_cast<unsigned long>(burst_period),
                poll.wall_s, fine.wall_s, 100.0 * fine.skipped_frac,
                poll.wall_s / fine.wall_s, us_per_flit);
    char name[96];
    std::snprintf(name, sizeof name, "%ux%u_%s_%s%.2f_fine_wall_s",
                  side, side, pattern, burst_period ? "burst" : "r",
                  rate);
    report.lower_is_better(name, fine.wall_s);
    if (gate_fine_ratio) {
        // Event-fine speedup over the polling reference on the
        // low-rate rows. A ratio of two sub-second walls jitters far
        // beyond either wall row, so gate on best-of-3 per scheduler
        // (timing noise is one-sided).
        double po = poll.wall_s;
        double fi = fine.wall_s;
        for (int rep = 0; rep < 2; ++rep) {
            po = std::min(po, run_one(side, pattern, rate, burst_period,
                                      sim::Schedule::Poll, cycles,
                                      /*threads=*/1)
                                  .wall_s);
            fi = std::min(fi, run_one(side, pattern, rate, burst_period,
                                      sim::Schedule::EventFine, cycles,
                                      /*threads=*/1)
                                  .wall_s);
        }
        std::snprintf(name, sizeof name,
                      "%ux%u_%s_r%.2f_fine_over_poll", side, side,
                      pattern, rate);
        report.higher_is_better(name, po / fi);
    }
}

/**
 * Cross-thread lockstep rows: the wake-mailbox hand-off. Lockstep
 * windows keep the result bitwise identical at every thread count and
 * drain each shard's mailbox at every cycle barrier, so the event-fine
 * rows pay one mailbox round-trip per cross-shard push.
 */
void
cross_thread_row(std::uint32_t side, double rate, Cycle cycles,
                 unsigned threads, std::uint64_t expect_delivered)
{
    // Fastest of three runs per scheduler (benchutil::best_of_3):
    // these are the mailbox regression canaries, and a single sample
    // of a sub-second multi-thread run jitters beyond the checker's
    // 15% gate. Bitwise identity is asserted on every repetition.
    auto fastest = [&](sim::Schedule sched) {
        return best_of_3(
            [&] {
                Sample s = run_one(side, "uniform", rate, 0, sched,
                                   cycles, threads);
                if (s.delivered != expect_delivered)
                    fatal("lockstep cross-thread run changed results");
                return s;
            },
            [](const Sample &s) { return -s.wall_s; });
    };
    const Sample poll = fastest(sim::Schedule::Poll);
    const Sample fine = fastest(sim::Schedule::EventFine);
    std::printf("%ux%u,uniform,xthread%u,%.3f,0,%.3f,%.3f,%.1f%%,%.2f,-\n",
                side, side, threads, rate, poll.wall_s, fine.wall_s,
                100.0 * fine.skipped_frac, poll.wall_s / fine.wall_s);
    char name[96];
    std::snprintf(name, sizeof name, "xthread_t%u_fine_wall_s",
                  threads);
    report.lower_is_better(name, fine.wall_s);
    std::snprintf(name, sizeof name, "xthread_t%u_poll_wall_s", threads);
    report.lower_is_better(name, poll.wall_s);
}

/**
 * Giant-mesh footprint row (ISSUE 6): bytes of construction-arena
 * storage per tile, from SystemStats. Deterministic — it measures the
 * layout, not the clock — so the regression gate holds it exactly.
 * One placement group pins the number regardless of the host's core
 * count (per-group chunk rounding would otherwise vary it).
 */
void
footprint_row(std::uint32_t side)
{
    net::Topology topo = net::Topology::mesh2d(side, side);
    sim::SystemLayout layout;
    layout.placement_groups = 1;
    layout.pin = common::PinMode::None;
    sim::System sys(topo, {}, /*seed=*/1, layout);
    const SystemStats stats = sys.collect_stats();
    std::printf("# %ux%u arena footprint: %.0f bytes/tile "
                "(%llu used, %llu reserved)\n",
                side, side, stats.arena_bytes_per_tile,
                static_cast<unsigned long long>(stats.arena_bytes_used),
                static_cast<unsigned long long>(
                    stats.arena_bytes_reserved));
    char name[96];
    std::snprintf(name, sizeof name, "%ux%u_arena_bytes_per_tile",
                  side, side);
    report.lower_is_better(name, stats.arena_bytes_per_tile);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = BenchCli::parse(argc, argv);

    std::printf("# Event-driven vs polling shard scheduling "
                "(cycle-accurate, no fast-forward)\n");
    std::printf("mesh,pattern,mode,rate,burst_period,poll_s,fine_s,"
                "tile_cycles_slept,fine_speedup,fine_us_per_flit\n");

    // Injection-rate sweep: O(active) scaling against offered load.
    // Two patterns bracket the busy-tile fraction a given rate
    // produces: shuffle (short paths, few busy routers per flit) and
    // uniform (near the longest average paths on a mesh). The
    // rate-0.01 rows carry the gated fine_over_poll ratio.
    for (std::uint32_t side : cli.quick
                                  ? std::vector<std::uint32_t>{8u}
                                  : std::vector<std::uint32_t>{8u, 16u})
    {
        const Cycle cycles = side >= 16 ? 15000
                             : cli.quick ? 12000
                                         : 40000;
        for (const char *pattern : {"shuffle", "uniform"})
            for (double rate : {0.01, 0.02, 0.05})
                sweep_row(side, pattern, rate, /*burst_period=*/0,
                          cycles, /*gate_fine_ratio=*/rate == 0.01);
        // Saturation guard: with every tile busy every cycle, the
        // wake bookkeeping is pure overhead and must stay in noise.
        for (double rate : {0.10, 0.30, 0.60})
            sweep_row(side, "uniform", rate, /*burst_period=*/0,
                      cycles);
    }

    // Bursty traffic with fully drained gaps (Fig 7a regime): the
    // trace-replay-with-idle-gaps case named in the issue.
    if (!cli.quick)
        sweep_row(16, "bitcomp", 0.0, /*burst_period=*/4000, 40000);

    // Giant meshes (ISSUE 6): the arena-backed layout's target. Rows
    // use the O(N)-flow shuffle pattern — all-pairs flow tables are
    // quadratic in nodes and would swamp construction at this size —
    // at a low rate where event-fine's O(active) cycles and the
    // packed per-shard slabs both matter. The bytes/tile rows pin
    // the construction footprint itself (deterministic, gated
    // exactly).
    for (std::uint32_t side : {32u, 64u}) {
        const Cycle cycles = cli.quick ? (side == 32 ? 1500 : 400)
                                       : (side == 32 ? 3000 : 1000);
        sweep_row(side, "shuffle", 0.02, /*burst_period=*/0, cycles);
        // The 32x32 low-rate ratio row: most of the grid idle, the
        // per-tile cost dominated by the handful of in-flight flits.
        if (side == 32)
            sweep_row(side, "shuffle", 0.01, /*burst_period=*/0,
                      cycles, /*gate_fine_ratio=*/true);
        footprint_row(side);
    }

    // Cross-thread lockstep: the wake-mailbox hand-off (see above).
    // The expected delivered count pins bitwise identity — it must
    // match the single-thread rows of the same config. The quick
    // horizon is sized so even the event rows stay above the
    // regression checker's tiny-row floor (sub-quarter-second
    // timings jitter beyond any useful gate).
    {
        const std::uint32_t side = cli.quick ? 8 : 16;
        const Cycle cycles = cli.quick ? 20000 : 15000;
        const Sample ref = run_one(side, "uniform", 0.05, 0,
                                   sim::Schedule::Poll, cycles,
                                   /*threads=*/1);
        for (unsigned threads : {2u, 4u})
            cross_thread_row(side, 0.05, cycles, threads,
                             ref.delivered);
    }

    std::printf("# fine_speedup = poll_s / fine_s; tile_cycles_slept is "
                "the fraction of the tile x cycle grid event-fine did "
                "not tick; xthreadN rows run N lockstep shards\n");
    report.write_if_requested(cli);
    return 0;
}
