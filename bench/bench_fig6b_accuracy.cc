/**
 * @file
 * Fig 6b: speedup and timing accuracy vs synchronization period for
 * TRANSPOSE traffic. Accuracy is the average-packet-latency agreement
 * with the fully clock-accurate run (same seeds), exactly the paper's
 * measurement method (Section III).
 */
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_util.h"

using namespace hornet;
using namespace hornet::benchutil;

namespace {

struct Sample
{
    double latency;
    double wall_s;
};

Sample
run_once(std::uint32_t sync_period, unsigned threads)
{
    net::Topology topo = net::Topology::mesh2d(16, 16);
    auto sys = make_synthetic(topo, {}, "transpose", 0.08, 8, 7);
    Sample s{};
    s.wall_s = wall_seconds([&] {
        sim::RunOptions ro;
        ro.max_cycles = 25000;
        ro.threads = threads;
        ro.sync_period = sync_period;
        sys->run(ro);
    });
    s.latency = sys->collect_stats().avg_packet_latency();
    return s;
}

} // namespace

int
main()
{
    std::printf("# Fig 6b: accuracy & speedup vs sync period "
                "(transpose on 16x16, 2 threads)\n");
    std::printf("sync_period,avg_latency,accuracy_pct,speedup\n");

    const unsigned threads = 2;
    Sample base = run_once(1, threads);
    std::printf("1,%.2f,100.00,1.00\n", base.latency);

    for (std::uint32_t period : {5u, 10u, 50u, 100u, 500u, 1000u}) {
        Sample s = run_once(period, threads);
        double accuracy =
            100.0 *
            (1.0 - std::abs(s.latency - base.latency) / base.latency);
        std::printf("%u,%.2f,%.2f,%.2f\n", period, s.latency, accuracy,
                    base.wall_s / s.wall_s);
    }
    std::printf("# paper shape: accuracy stays high (>90%%) at small "
                "periods and degrades with larger ones\n");
    std::printf("# host: %u hardware threads; with fewer than 2 the "
                "OS serializes whole windows, which makes large-period "
                "skew (and its accuracy cost) worst-case\n",
                std::thread::hardware_concurrency());
    return 0;
}
