/**
 * @file
 * VC-buffer fabric microbenchmark: push/pop throughput of a single
 * buffer on the paths the simulator actually exercises — same-thread
 * (synchronized and unsynchronized/local), cross-thread, and batched
 * (window) handoff — plus a 16x16 uniform-random mesh sweep across
 * thread counts, where VC buffers are the only inter-tile
 * communication points and therefore the hot path of every cycle.
 * Before/after numbers for the lock-free refactor are recorded in
 * docs/BENCHMARKS.md ("The communication fabric").
 *
 * The cross-thread loops yield when they stall (no credit / nothing
 * visible): on machines with fewer free cores than threads a bare spin
 * burns whole scheduler quanta and measures the OS, not the buffer.
 */
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "net/vc_buffer.h"

namespace {

using namespace hornet;
using net::Flit;
using net::VcBuffer;

Flit
make_flit(FlowId flow, Cycle arrival, std::uint32_t seq)
{
    Flit f;
    f.flow = flow;
    f.original_flow = flow;
    f.arrival_cycle = arrival;
    f.seq = seq;
    return f;
}

constexpr Cycle kAlways = ~Cycle{0};
constexpr std::uint32_t kCap = 8;

/** Same-thread fill/drain cycles, optionally on the local fast path. */
double
single_thread_mflits(std::uint64_t flits, bool local)
{
    VcBuffer b(kCap);
    b.set_local(local);
    const double s = benchutil::wall_seconds([&] {
        std::uint64_t sent = 0;
        while (sent < flits) {
            while (b.free_slots() > 0 && sent < flits)
                b.push(make_flit(1, 0, static_cast<std::uint32_t>(sent++)));
            while (b.front_ready(kAlways) != nullptr)
                b.pop();
            b.commit_negedge();
        }
    });
    return static_cast<double>(flits) / s / 1e6;
}

/** Same-thread staged window + flush + drain cycles. */
double
single_thread_batched_mflits(std::uint64_t flits)
{
    VcBuffer b(kCap);
    b.set_batched(true);
    const double s = benchutil::wall_seconds([&] {
        std::uint64_t sent = 0;
        while (sent < flits) {
            while (b.free_slots() > 0 && sent < flits)
                b.push(make_flit(1, 0, static_cast<std::uint32_t>(sent++)));
            b.flush_staged();
            while (b.front_ready(kAlways) != nullptr)
                b.pop();
            b.commit_negedge();
        }
    });
    return static_cast<double>(flits) / s / 1e6;
}

/** Producer thread vs consumer thread, direct or batched pushes. */
double
cross_thread_mflits(std::uint64_t flits, bool batched)
{
    VcBuffer b(kCap);
    b.set_batched(batched);
    const double s = benchutil::wall_seconds([&] {
        std::thread producer([&] {
            std::uint64_t sent = 0;
            while (sent < flits) {
                while (b.free_slots() > 0 && sent < flits)
                    b.push(make_flit(1, 0,
                                     static_cast<std::uint32_t>(sent++)));
                if (batched)
                    b.flush_staged();
                if (b.free_slots() == 0)
                    std::this_thread::yield();
            }
        });
        std::uint64_t got = 0;
        while (got < flits) {
            if (b.front_ready(kAlways) != nullptr) {
                b.pop();
                ++got;
                if ((got & 7) == 0)
                    b.commit_negedge();
            } else {
                b.commit_negedge();
                std::this_thread::yield();
            }
        }
        producer.join();
        b.commit_negedge();
    });
    return static_cast<double>(flits) / s / 1e6;
}

/** benchutil::best_of_3 keyed for throughputs (bigger is better). */
template <typename Fn>
double
best_mflits(Fn &&measure)
{
    return benchutil::best_of_3(measure, [](double v) { return v; });
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = benchutil::BenchCli::parse(argc, argv);
    benchutil::JsonReport report("bench_vc_buffer");

    // ------------------------------------------------------------------
    // Microbenchmark: one buffer, the four fabric paths. Full-size
    // even under --quick: the loops are already CI-cheap (a few
    // hundred ms with the best-of-3), and shorter samples proved too
    // jittery to gate at 15% on shared hosts — the quick savings come
    // from the mesh sweep below.
    // ------------------------------------------------------------------
    const std::uint64_t kSingle = 4'000'000;
    const std::uint64_t kCross = 2'000'000;

    std::printf("path,Mflit_per_s\n");
    const struct
    {
        const char *name;
        double mflits;
    } micro[] = {
        {"single_thread_sync",
         best_mflits([&] { return single_thread_mflits(kSingle, false); })},
        {"single_thread_local",
         best_mflits([&] { return single_thread_mflits(kSingle, true); })},
        {"single_thread_batched",
         best_mflits([&] { return single_thread_batched_mflits(kSingle); })},
        {"cross_thread_direct",
         best_mflits([&] { return cross_thread_mflits(kCross, false); })},
        {"cross_thread_batched",
         best_mflits([&] { return cross_thread_mflits(kCross, true); })},
    };
    for (const auto &row : micro) {
        std::printf("%s,%.1f\n", row.name, row.mflits);
        std::fflush(stdout);
        report.higher_is_better(row.name, row.mflits);
    }

    // ------------------------------------------------------------------
    // Mesh sweep: 16x16 uniform random at 0.1 flits/node/cycle, the
    // whole simulator on top of the fabric. Lockstep (period 1) runs
    // must deliver identical flit counts at every thread count. The
    // shard scheduler follows HORNET_SCHEDULE like every run.
    // ------------------------------------------------------------------
    const net::Topology topo = net::Topology::mesh2d(16, 16);
    net::NetworkConfig cfg;
    const Cycle mesh_cycles = cli.quick ? 1000 : 3000;
    std::printf("threads,sync_period,wall_s,flits_delivered\n");
    for (unsigned threads : {1u, 2u, 8u}) {
        for (std::uint32_t period : {1u, 32u}) {
            // Fastest of three fresh systems (benchutil::best_of_3).
            // Lockstep rows deliver identical flit counts every
            // repetition; loose rows are timing-nondeterministic by
            // design.
            struct MeshSample
            {
                double wall_s;
                std::uint64_t delivered;
            };
            const MeshSample m = benchutil::best_of_3(
                [&] {
                    auto sys = benchutil::make_synthetic(
                        topo, cfg, "uniform", 0.1, 4, 42, "xy");
                    sim::RunOptions ro;
                    ro.max_cycles = mesh_cycles;
                    ro.threads = threads;
                    ro.sync_period = period;
                    const double s = benchutil::wall_seconds(
                        [&] { sys->run(ro); });
                    return MeshSample{
                        s, sys->collect_stats().total.flits_delivered};
                },
                [](const MeshSample &r) { return -r.wall_s; });
            std::printf("%u,%u,%.2f,%llu\n", threads, period, m.wall_s,
                        static_cast<unsigned long long>(m.delivered));
            std::fflush(stdout);
            char name[64];
            std::snprintf(name, sizeof name, "mesh16_t%u_p%u_wall_s",
                          threads, period);
            report.lower_is_better(name, m.wall_s);
        }
    }

    // ------------------------------------------------------------------
    // Giant meshes (ISSUE 6): single-thread lockstep on 32x32 and
    // 64x64, where the arena layout packs every tile's rings and flow
    // tables back to back — these rows move when the per-flit memory
    // path changes. Shuffle keeps the flow tables O(N); all-pairs
    // would be quadratic in nodes at this size.
    // ------------------------------------------------------------------
    std::printf("mesh,wall_s,flits_delivered\n");
    for (std::uint32_t side : {32u, 64u}) {
        const net::Topology big = net::Topology::mesh2d(side, side);
        const Cycle cycles = cli.quick ? (side == 32 ? 800 : 250)
                                       : (side == 32 ? 1600 : 500);
        struct MeshSample
        {
            double wall_s;
            std::uint64_t delivered;
        };
        const MeshSample m = benchutil::best_of_3(
            [&] {
                auto sys = benchutil::make_synthetic(
                    big, cfg, "shuffle", 0.05, 4, 42, "xy");
                sim::RunOptions ro;
                ro.max_cycles = cycles;
                ro.threads = 1;
                ro.sync_period = 1;
                const double s =
                    benchutil::wall_seconds([&] { sys->run(ro); });
                return MeshSample{
                    s, sys->collect_stats().total.flits_delivered};
            },
            [](const MeshSample &r) { return -r.wall_s; });
        std::printf("%ux%u,%.2f,%llu\n", side, side, m.wall_s,
                    static_cast<unsigned long long>(m.delivered));
        std::fflush(stdout);
        char name[64];
        std::snprintf(name, sizeof name, "mesh%u_t1_p1_wall_s", side);
        report.lower_is_better(name, m.wall_s);
    }

    report.write_if_requested(cli);
    return 0;
}
