/**
 * @file
 * Micro benchmarks (google-benchmark): raw component throughput used
 * as a performance-regression guard — VC buffer push/pop, routing
 * table lookups, router pipeline cycles, and whole-system cycles/sec
 * at several mesh sizes.
 */
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "net/vc_buffer.h"

using namespace hornet;
using namespace hornet::benchutil;

namespace {

void
BM_VcBufferPushPop(benchmark::State &state)
{
    net::VcBuffer buf(8);
    net::Flit f;
    f.flow = 1;
    std::uint64_t n = 0;
    for (auto _ : state) {
        f.arrival_cycle = n;
        buf.push(f);
        benchmark::DoNotOptimize(buf.front_ready(n));
        buf.pop();
        buf.commit_negedge();
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VcBufferPushPop);

void
BM_RoutingTableLookup(benchmark::State &state)
{
    // Destination entries, as build_xy installs them on a 32x32 mesh
    // router with four neighbours: the flow probe is skipped (no flow
    // keys), and the router's hot path names the input by port index.
    net::RoutingTable table(0, {1, 2, 3, 4});
    for (NodeId d = 0; d < 1024; ++d) {
        const net::RouteResult step{1 + d % 4, net::kKeepFlow, 1.0};
        table.add_destination(d % 5, d, &step, 1);
    }
    table.freeze();
    Rng rng(3);
    NodeId d = 0;
    for (auto _ : state) {
        const auto &opts = table.route_input((d + 4) % 5, d % 5, FlowId{d}, d);
        benchmark::DoNotOptimize(table.pick_from(opts, rng));
        d = (d + 1) % 1024;
    }
}
BENCHMARK(BM_RoutingTableLookup);

void
BM_SystemCyclesPerSecond(benchmark::State &state)
{
    const auto side = static_cast<std::uint32_t>(state.range(0));
    net::Topology topo = net::Topology::mesh2d(side, side);
    auto sys = make_synthetic(topo, {}, "uniform", 0.1, 8, 9);
    Cycle target = 0;
    for (auto _ : state) {
        target += 100;
        sim::RunOptions ro;
        ro.max_cycles = target;
        sys->run(ro);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(target) *
                            topo.num_nodes());
    state.counters["tile_cycles/s"] = benchmark::Counter(
        static_cast<double>(target) * topo.num_nodes(),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemCyclesPerSecond)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
