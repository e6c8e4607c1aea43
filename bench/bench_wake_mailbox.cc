/**
 * @file
 * Wake-mailbox microbenchmark (ISSUE 5): raw post+drain throughput of
 * the Shard's cross-thread wake seam, isolated from the rest of the
 * simulator. P producer threads hammer wakes at a shard of sleeping
 * component-less tiles while the owning thread drains at its
 * synchronization points (prepare_summaries), exactly the traffic
 * shape of cross-shard pushes under the event scheduler.
 *
 * Before ISSUE 5 every post took the shard's mailbox mutex (a futex
 * round-trip whenever the drain or another producer held it); now the
 * fast path is a CAS claim + release publish on a bounded MPSC ring
 * (common::MpscRing), with the mutex only behind the tested overflow
 * fallback. Run the same binary source against the two fabrics for
 * the before/after table in docs/BENCHMARKS.md ("The wake mailbox and
 * the layout audit").
 *
 * Single-host note: on a one-core container the threads time-slice,
 * so mutex *contention* is rare and the delta understates what a
 * multi-core host sees; the post-path syscall/RMW cost is still
 * visible.
 */
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sim/engine.h"
#include "sim/tile.h"

namespace {

using namespace hornet;

/** Posts/second with @p producers threads posting @p per_producer
 *  wakes each at a 64-tile sleeping shard whose owner drains
 *  continuously. */
double
mwakes_per_s(unsigned producers, std::uint64_t per_producer)
{
    constexpr std::size_t kTiles = 64;
    // Far-future wake cycle: tiles stay asleep, so the loop measures
    // pure post -> drain -> apply traffic, no ticking.
    constexpr Cycle kFarFuture = 1000000;

    std::vector<std::unique_ptr<sim::Tile>> tiles;
    sim::Shard shard;
    for (std::size_t i = 0; i < kTiles; ++i) {
        tiles.push_back(std::make_unique<sim::Tile>(
            static_cast<NodeId>(i), /*seed=*/i + 1));
        shard.add_tile(tiles.back().get());
    }
    shard.prepare_run(sim::Schedule::EventFine);
    shard.posedge();
    shard.negedge(); // component-less tiles all retire to the heap

    std::atomic<unsigned> running{producers};
    const double s = benchutil::wall_seconds([&] {
        std::vector<std::thread> threads;
        threads.reserve(producers);
        for (unsigned p = 0; p < producers; ++p) {
            threads.emplace_back([&, p] {
                for (std::uint64_t i = 0; i < per_producer; ++i)
                    shard.wake(*tiles[(p + i) % kTiles], kFarFuture);
                running.fetch_sub(1, std::memory_order_relaxed);
            });
        }
        // The owning thread's drain loop (the consumer side of the
        // seam). Yield between drains so producers get quanta on
        // undersized hosts.
        while (running.load(std::memory_order_relaxed) != 0) {
            shard.prepare_summaries();
            std::this_thread::yield();
        }
        for (auto &t : threads)
            t.join();
        shard.prepare_summaries(); // final drain
    });
    shard.finish_run();
    return static_cast<double>(producers) *
           static_cast<double>(per_producer) / s / 1e6;
}

/**
 * Posts/second at the engine's real cadence: bursts of @p burst wakes
 * followed by a drain, all on one (unbound) thread — the shape of a
 * lockstep cycle, where producers post during the edge and the owner
 * drains at the next cycle boundary. The posting thread is never the
 * bound worker, so every post takes the cross-thread path, and the
 * interleaved drains keep the ring un-full: this measures the fast
 * path itself, where the starved-consumer rows above measure the
 * overflow fallback.
 */
double
cadenced_mwakes_per_s(std::uint64_t total, std::uint32_t burst)
{
    constexpr std::size_t kTiles = 64;
    constexpr Cycle kFarFuture = 1000000;

    std::vector<std::unique_ptr<sim::Tile>> tiles;
    sim::Shard shard;
    for (std::size_t i = 0; i < kTiles; ++i) {
        tiles.push_back(std::make_unique<sim::Tile>(
            static_cast<NodeId>(i), /*seed=*/i + 1));
        shard.add_tile(tiles.back().get());
    }
    shard.prepare_run(sim::Schedule::EventFine);
    shard.posedge();
    shard.negedge();

    const double s = benchutil::wall_seconds([&] {
        std::uint64_t sent = 0;
        while (sent < total) {
            for (std::uint32_t i = 0; i < burst; ++i, ++sent)
                shard.wake(*tiles[sent % kTiles], kFarFuture);
            shard.prepare_summaries();
        }
    });
    shard.finish_run();
    return static_cast<double>(total) / s / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = benchutil::BenchCli::parse(argc, argv);
    benchutil::JsonReport report("bench_wake_mailbox");

    const std::uint64_t per_producer = cli.quick ? 400'000 : 2'000'000;
    std::printf("path,Mwakes_per_s\n");
    for (unsigned p : {1u, 2u, 4u}) {
        const double rate = mwakes_per_s(p, per_producer);
        std::printf("starved_p%u,%.2f\n", p, rate);
        std::fflush(stdout);
        char name[48];
        std::snprintf(name, sizeof name, "starved_p%u_mwakes", p);
        report.higher_is_better(name, rate);
    }
    {
        const double rate =
            cadenced_mwakes_per_s(cli.quick ? 2'000'000 : 8'000'000,
                                  /*burst=*/64);
        std::printf("cadenced_burst64,%.2f\n", rate);
        report.higher_is_better("cadenced_burst64_mwakes", rate);
    }

    report.write_if_requested(cli);
    return 0;
}
