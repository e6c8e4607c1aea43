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
    net::RoutingTable table(0);
    for (FlowId f = 0; f < 1024; ++f)
        table.add({static_cast<NodeId>(f % 5), f},
                  net::RouteResult{1, f, 1.0});
    table.freeze();
    Rng rng(3);
    FlowId f = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.pick({static_cast<NodeId>(f % 5), f}, rng));
        f = (f + 1) % 1024;
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
