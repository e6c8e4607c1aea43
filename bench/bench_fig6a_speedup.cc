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
 * Measured rows are in docs/BENCHMARKS.md.
 */
#include <cstdio>
#include <thread>

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

} // namespace

int
main()
{
    std::printf("# Fig 6a: speedup vs #simulation threads\n");
    std::printf("# host: %u hardware threads; rows with more threads "
                "than that time-slice\n",
                std::thread::hardware_concurrency());
    std::printf(
        "workload,sync,threads,wall_s,speedup_vs_1thread\n");

    const unsigned thread_counts[] = {1, 2, 4};
    for (const char *sync_name : {"cycle-accurate", "5-cycle"}) {
        std::uint32_t sync =
            std::string(sync_name) == "cycle-accurate" ? 1 : 5;
        double base = 0.0;
        for (unsigned t : thread_counts) {
            double w = run_synthetic(t, sync);
            if (t == 1)
                base = w;
            std::printf("shuffle-16x16,%s,%u,%.3f,%.2f\n", sync_name, t,
                        w, base / w);
        }
    }
    for (const char *sync_name : {"cycle-accurate", "5-cycle"}) {
        std::uint32_t sync =
            std::string(sync_name) == "cycle-accurate" ? 1 : 5;
        double base = 0.0;
        for (unsigned t : thread_counts) {
            double w = run_blackscholes(t, sync);
            if (t == 1)
                base = w;
            std::printf("blackscholes-mips-8x8,%s,%u,%.3f,%.2f\n",
                        sync_name, t, w, base / w);
        }
    }
    std::printf("# paper shape: near-linear scaling up to 6 same-die "
                "cores (cycle-accurate); loose sync needed to scale "
                "across dies\n");
    return 0;
}
