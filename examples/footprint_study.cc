/**
 * @file
 * Memory-footprint study for giant meshes (docs/BENCHMARKS.md, "Giant
 * meshes: the arena-backed layout" and "Dense destination routes").
 *
 *   example_footprint_study                 # shuffle at 16x16/32x32/64x64
 *   example_footprint_study all-pairs SIDE  # all-pairs XY on SIDE x SIDE
 *
 * The default mode builds shuffle traffic (one flow per source) at
 * three mesh sides and reports whole-process heap growth and wall time
 * across System construction, a short run, and the arena-internal view
 * from SystemStats. The heap numbers come from mallinfo2 (glibc); on
 * other platforms they read zero.
 *
 * The all-pairs mode builds one SIDE x SIDE mesh with XY routes for
 * every ordered pair, uniform traffic at 0.01 flits/node/cycle, runs
 * 200 cycles on one thread, and prints the process's peak RSS
 * (getrusage), the arena bytes per tile and the route entries. Run one
 * process per side: the peak RSS is the whole process's.
 */
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "net/routing/builders.h"
#include "net/topology.h"
#include "sim/system.h"
#include "traffic/flows.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"

using namespace hornet;

namespace {

/** Current malloc'd bytes (main arena + mmapped blocks); 0 when the
 *  platform offers no mallinfo2. */
std::size_t
heap_bytes()
{
#if defined(__GLIBC__)
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
#else
    return 0;
#endif
}

/** Seconds since @p t0. */
double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Attach a synthetic injector of @p pattern at @p rate to every tile. */
void
attach_injectors(sim::System &sys, const traffic::Pattern &pattern,
                 std::uint32_t packet_size, double rate)
{
    for (NodeId n = 0; n < sys.num_tiles(); ++n) {
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = packet_size;
        sc.rate = rate;
        sys.add_frontend(n, std::make_unique<traffic::SyntheticInjector>(
                                sys.tile(n), sc));
    }
}

/** The all-pairs mode (see the file comment). */
int
all_pairs(std::uint32_t side)
{
    const auto t0 = std::chrono::steady_clock::now();
    const net::Topology topo = net::Topology::mesh2d(side, side);
    const std::uint32_t n = topo.num_nodes();
    auto sys = std::make_unique<sim::System>(topo, net::NetworkConfig{},
                                             /*seed=*/17);
    net::routing::build_xy(sys->network(), traffic::flows_all_pairs(n));
    attach_injectors(*sys, traffic::pattern_by_name("uniform", n), 8, 0.01);
    sys->freeze_tables();
    const double setup_s = since(t0);
    std::size_t entries = 0;
    for (NodeId i = 0; i < n; ++i)
        entries += sys->network().router(i).routing_table().size();

    const auto r0 = std::chrono::steady_clock::now();
    sim::RunOptions ro;
    ro.max_cycles = 200;
    sys->run(ro);
    const double run_s = since(r0);
    const SystemStats stats = sys->collect_stats();

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    std::printf("all-pairs %ux%u: set-up %.3f s, 200 cycles %.3f s, "
                "delivered %llu\n",
                side, side, setup_s, run_s,
                static_cast<unsigned long long>(
                    stats.total.flits_delivered));
    std::printf("route_entries %zu\n", entries);
    std::printf("arena_bytes_per_tile %.0f\n", stats.arena_bytes_per_tile);
    // ru_maxrss is in KiB on Linux.
    std::printf("peak_rss_mb %.1f\n", ru.ru_maxrss / 1024.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        const long side = argc == 3 ? std::strtol(argv[2], nullptr, 10) : 0;
        if (std::strcmp(argv[1], "all-pairs") != 0 || side < 2 ||
            side > 64) {
            std::fprintf(stderr, "usage: %s [all-pairs SIDE]  "
                                 "(2 <= SIDE <= 64)\n",
                         argv[0]);
            return 2;
        }
        return all_pairs(static_cast<std::uint32_t>(side));
    }
    for (std::uint32_t side : {16u, 32u, 64u}) {
        const std::size_t before = heap_bytes();
        auto t0 = std::chrono::steady_clock::now();
        net::Topology topo = net::Topology::mesh2d(side, side);
        auto sys = std::make_unique<sim::System>(
            topo, net::NetworkConfig{}, /*seed=*/17);
        // Shuffle keeps the flow tables O(N); all-pairs would make
        // flow-table construction, not the mesh, the thing measured
        // (that is the all-pairs mode).
        auto pattern =
            traffic::pattern_by_name("shuffle", topo.num_nodes());
        auto flows =
            traffic::flows_for_pattern(topo.num_nodes(), pattern);
        net::routing::build_xy(sys->network(), flows);
        attach_injectors(*sys, pattern, 8, 0.02);
        const double ctor_s = since(t0);
        const std::size_t after = heap_bytes();
        const std::size_t n = topo.num_nodes();
        std::printf(
            "%ux%u: ctor %.3f s, heap %.1f MiB, %.0f bytes/tile\n",
            side, side, ctor_s, (after - before) / 1048576.0,
            static_cast<double>(after - before) / n);

        // Short run to confirm it simulates, and time 200 cycles.
        auto r0 = std::chrono::steady_clock::now();
        sim::RunOptions ro;
        ro.max_cycles = 200;
        sys->run(ro);
        const double run_s = since(r0);
        const SystemStats stats = sys->collect_stats();
        std::printf("  200 cycles: %.3f s, delivered %llu\n", run_s,
                    static_cast<unsigned long long>(
                        stats.total.flits_delivered));
        // The arena-internal view: the simulated hardware (tiles,
        // routers, links, VC buffers) and the frozen tables, no
        // frontends. Zero on a pre-arena tree.
        if (stats.arena_bytes_used != 0)
            std::printf("  arena: %.0f bytes/tile (%llu used, "
                        "%llu reserved, %zu groups)\n",
                        stats.arena_bytes_per_tile,
                        static_cast<unsigned long long>(
                            stats.arena_bytes_used),
                        static_cast<unsigned long long>(
                            stats.arena_bytes_reserved),
                        stats.arena_per_group.size());
    }
    return 0;
}
