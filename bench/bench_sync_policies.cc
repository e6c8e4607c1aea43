/**
 * @file
 * Synchronization-policy harness: sweeps sync backends × thread counts
 * and reports, for each combination, parallel speedup (the paper's
 * Fig 6a axis) and per-flit latency deviation from the cycle-accurate
 * baseline (the Fig 6b axis). This is the speed/accuracy methodology
 * behind the paper's core claim — loose synchronization buys speedup
 * at a bounded timing-fidelity cost — extended with the adaptive
 * backend, which retunes the window from observed cross-shard traffic
 * and so should match the best fixed period on bursty traffic without
 * being handed the right constant.
 *
 * Columns: scenario,policy,threads,wall_s,speedup,avg_flit_lat,
 * lat_dev_pct. Speedup is against the sequential cycle-accurate run
 * of the same scenario; lat_dev_pct is the relative error of the mean
 * delivered-flit latency against the same baseline (0 for
 * cycle-accurate runs at any thread count, by construction). Speedups
 * are real up to the host's CPU count (4 on the host the numbers in
 * docs/BENCHMARKS.md come from); rows with more threads than that
 * time-slice.
 */
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.h"

using namespace hornet;
using namespace hornet::benchutil;

namespace {

constexpr Cycle kCycles = 10000;
constexpr std::uint64_t kSeed = 42;

struct Scenario
{
    const char *name;
    double rate;
    Cycle burst_period;
    std::uint32_t burst_size;
};

// Bursty: heavy synchronized bursts separated by idle gaps — the case
// the adaptive controller is built for. Steady: constant offered load,
// where a fixed period is already near-optimal.
const Scenario kScenarios[] = {
    {"bursty-8x8", 0.0, 400, 8},
    {"steady-8x8", 0.12, 0, 1},
};

struct PolicySpec
{
    const char *name;
    std::uint32_t period; ///< 0 = adaptive, 1 = cycle-accurate, else periodic
    bool batch; ///< window-batched cross-shard handoff
};

// periodic-20-batched isolates the two variables the adaptive row
// combines: it has adaptive's batched handoff but a fixed window, so
// adaptive-vs-it measures the controller alone.
const PolicySpec kPolicies[] = {
    {"cycle-accurate", 1, false},
    {"periodic-5", 5, false},
    {"periodic-20", 20, false},
    {"periodic-20-batched", 20, true},
    {"adaptive", 0, true},
};

struct Outcome
{
    double wall_s = 0.0;
    double avg_flit_lat = 0.0;
    std::uint64_t delivered = 0;
    std::uint32_t widest = 0;   ///< adaptive only
    std::uint32_t narrowest = 0; ///< adaptive only
};

Outcome
run_one(const Scenario &sc, const PolicySpec &ps, unsigned threads)
{
    net::Topology topo = net::Topology::mesh2d(8, 8);
    auto sys = make_synthetic(topo, {}, "transpose", sc.rate, 4, kSeed,
                              "xy", sc.burst_period, sc.burst_size);

    std::unique_ptr<sim::SyncPolicy> policy;
    sim::EngineOptions opts;
    opts.max_cycles = kCycles;
    opts.batch_cross_shard = ps.batch;
    if (ps.period == 0)
        policy = std::make_unique<sim::AdaptiveSync>();
    else if (ps.period == 1)
        policy = std::make_unique<sim::CycleAccurateSync>();
    else
        policy = std::make_unique<sim::PeriodicSync>(ps.period);

    Outcome out;
    out.wall_s =
        wall_seconds([&] { sys->run(*policy, opts, threads); });
    auto stats = sys->collect_stats();
    out.avg_flit_lat = stats.avg_flit_latency();
    out.delivered = stats.total.flits_delivered;
    if (auto *ad = dynamic_cast<sim::AdaptiveSync *>(policy.get())) {
        out.widest = out.narrowest = ad->options().min_period;
        for (const auto &change : ad->history()) {
            out.widest = std::max(out.widest, change.second);
            out.narrowest = std::min(out.narrowest, change.second);
        }
    }
    return out;
}

} // namespace

int
main()
{
    std::printf("# sync-policy sweep: speedup (Fig 6a) and per-flit "
                "latency deviation (Fig 6b) per backend\n");
    std::printf("# host: %u hardware threads; rows with more threads "
                "than that time-slice\n",
                std::thread::hardware_concurrency());
    std::printf("scenario,policy,threads,wall_s,speedup,"
                "avg_flit_lat,lat_dev_pct\n");

    const unsigned thread_counts[] = {1, 2, 4};
    for (const Scenario &sc : kScenarios) {
        // Sequential cycle-accurate run: the accuracy and speed
        // reference for everything else in this scenario.
        const Outcome ref = run_one(sc, kPolicies[0], 1);

        double best_fixed_wall = 0.0; // best loose fixed period, 4 thr
        double adaptive_wall = 0.0;
        double adaptive_dev = 0.0;

        for (const PolicySpec &ps : kPolicies) {
            for (unsigned t : thread_counts) {
                const Outcome o = (ps.period == 1 && t == 1)
                                      ? ref
                                      : run_one(sc, ps, t);
                const double dev =
                    ref.avg_flit_lat > 0.0
                        ? 100.0 *
                              (o.avg_flit_lat - ref.avg_flit_lat) /
                              ref.avg_flit_lat
                        : 0.0;
                std::printf("%s,%s,%u,%.3f,%.2f,%.2f,%+.2f\n", sc.name,
                            ps.name, t, o.wall_s,
                            o.wall_s > 0.0 ? ref.wall_s / o.wall_s
                                           : 0.0,
                            o.avg_flit_lat, dev);
                if (t == 4) {
                    if (ps.period > 1) {
                        if (best_fixed_wall == 0.0 ||
                            o.wall_s < best_fixed_wall)
                            best_fixed_wall = o.wall_s;
                    } else if (ps.period == 0) {
                        adaptive_wall = o.wall_s;
                        adaptive_dev = dev;
                        std::printf("# adaptive window range on %s: "
                                    "%u..%u cycles\n",
                                    sc.name, o.narrowest, o.widest);
                    }
                }
            }
        }
        std::printf("# %s @4 threads: adaptive %.3fs vs best fixed "
                    "%.3fs (%.2fx), latency dev %+.2f%%\n",
                    sc.name, adaptive_wall, best_fixed_wall,
                    adaptive_wall > 0.0
                        ? best_fixed_wall / adaptive_wall
                        : 0.0,
                    adaptive_dev);
    }
    std::printf("# paper shape: loose sync trades bounded latency "
                "error for near-linear speedup (Fig 6); adaptive "
                "should sit at the knee without hand-tuning\n");
    return 0;
}
