/**
 * @file
 * Fig 6a: parallelization speedup vs simulation thread count, for
 * cycle-accurate and 5-cycle loose synchronization, on (a) synthetic
 * SHUFFLE traffic and (b) the blackscholes kernel on the MIPS
 * frontend.
 *
 * The paper measured 1..24 HT cores on a 2-die Xeon (5x+ speedup on 6
 * same-die cores, 11x+ with loose sync across dies). On a 4-vCPU host
 * every row here runs on real cores: cycle-accurate runs pay two
 * rendezvous barriers per simulated cycle, and loose synchronization
 * one per window, so the gap between the two modes is the barrier's
 * cost. Rows with more threads than the host has CPUs time-slice.
 * Each row is a median over three rounds of 1-, 2- and 4-thread runs
 * (about 3 minutes in all on a 4-vCPU host). Measured rows are in
 * docs/BENCHMARKS.md.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "mips/core.h"
#include "workloads/programs.h"

using namespace hornet;
using namespace hornet::benchutil;

namespace {

double
run_synthetic(unsigned threads, std::uint32_t sync)
{
    net::Topology topo = net::Topology::mesh2d(16, 16);
    auto sys = make_synthetic(topo, {}, "shuffle", 0.12, 8, 42);
    return wall_seconds([&] {
        sim::RunOptions ro;
        ro.max_cycles = 12000;
        ro.threads = threads;
        ro.sync_period = sync;
        sys->run(ro);
    });
}

double
run_blackscholes(unsigned threads, std::uint32_t sync)
{
    mips::MipsMachineConfig cfg;
    cfg.program = workloads::blackscholes_program(192, 1);
    cfg.mem.mc_nodes = {0, 63};
    cfg.mem.dram_latency = 40;
    mips::MipsMachine m(net::Topology::mesh2d(8, 8), cfg);
    return wall_seconds(
        [&] { m.run_until_done(3000000, threads, sync); });
}

/** Median of @p v (odd sizes; the upper middle otherwise). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Time @p run at 1, 2 and 4 threads, back to back, in each of kRounds
 * rounds, and print one row per thread count: the median wall time and
 * the median of the per-round speedups over that round's 1-thread run.
 * Host speed drifts between rounds on a shared VM; a round's runs are
 * seconds apart, so its ratio sees one host speed.
 */
template <typename Run>
void
speedup_rows(const char *workload, const char *sync_name, Run run)
{
    constexpr int kRounds = 3;
    const unsigned thread_counts[] = {1, 2, 4};
    std::vector<double> walls[3], ratios[3];
    for (int round = 0; round < kRounds; ++round) {
        double base = 0.0;
        for (int i = 0; i < 3; ++i) {
            const double w = run(thread_counts[i]);
            if (i == 0)
                base = w;
            walls[i].push_back(w);
            ratios[i].push_back(base / w);
        }
    }
    for (int i = 0; i < 3; ++i)
        std::printf("%s,%s,%u,%.3f,%.2f\n", workload, sync_name,
                    thread_counts[i], median(walls[i]), median(ratios[i]));
}

} // namespace

int
main()
{
    std::printf("# Fig 6a: speedup vs #simulation threads\n");
    std::printf("# host: %u hardware threads; rows with more threads "
                "than that time-slice\n",
                std::thread::hardware_concurrency());
    std::printf("# medians over 3 rounds; each round runs 1, 2 and 4 "
                "threads back to back, and its speedups divide by its "
                "own 1-thread run\n");
    std::printf("workload,sync,threads,wall_s,speedup_vs_1thread\n");

    for (const char *sync_name : {"cycle-accurate", "5-cycle"}) {
        const std::uint32_t sync =
            std::string(sync_name) == "cycle-accurate" ? 1 : 5;
        speedup_rows("shuffle-16x16", sync_name, [&](unsigned t) {
            return run_synthetic(t, sync);
        });
    }
    for (const char *sync_name : {"cycle-accurate", "5-cycle"}) {
        const std::uint32_t sync =
            std::string(sync_name) == "cycle-accurate" ? 1 : 5;
        speedup_rows("blackscholes-mips-8x8", sync_name, [&](unsigned t) {
            return run_blackscholes(t, sync);
        });
    }
    std::printf("# paper shape: near-linear scaling up to 6 same-die "
                "cores (cycle-accurate); loose sync needed to scale "
                "across dies\n");
    return 0;
}
