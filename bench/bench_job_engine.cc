/**
 * @file
 * Sweep-engine benchmark (ISSUE 9): jobs/sec of a 100+ point
 * parameter sweep submitted through sim::JobEngine versus the serial
 * hand-rolled loop the figure benches used before the sweep engine
 * existed (a fresh System, routing build and table freeze per point),
 * plus the construction speedup of instantiating from a frozen
 * SystemBlueprint over building from scratch.
 *
 * Every job's delivered-traffic digest is checked against the
 * standalone fresh-built run of the same point (the serial loop *is*
 * that reference); any mismatch aborts the bench — the speedup is
 * only interesting if the results are bitwise identical.
 *
 * Rows (all gated by scripts/check_bench_regression.py):
 *   sweep_jobs_per_sec      sweep points retired per second (engine)
 *   concurrent_over_serial  engine rate over hand-rolled-loop rate
 *   blueprint_over_scratch  constructions/sec from blueprint over
 *                           constructions/sec from scratch
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "sim/job_engine.h"
#include "sim/system_blueprint.h"
#include "traffic/patterns.h"

namespace {

using namespace hornet;

// The sweep is sized so the serial loop's per-point cost is dominated
// by the work the blueprint amortizes (all-pairs routing build +
// table freeze, superlinear in nodes), with a short-but-nontrivial
// drained run per point: the regime the sweep engine exists for.
struct SweepConfig
{
    std::uint32_t side = 8;
    int points = 108;
    double rate = 0.05;
    std::uint32_t packet_size = 4;
    Cycle stop_at = 150;     // injectors stop offering here...
    Cycle max_cycles = 8000; // ...and the run drains to completion
};

std::uint64_t
seed_of(int point)
{
    return 1000 + static_cast<std::uint64_t>(point);
}

sim::RunOptions
sweep_run_options(const SweepConfig &sc)
{
    sim::RunOptions ro;
    ro.max_cycles = sc.max_cycles;
    ro.stop_when_done = true;
    ro.schedule = "event-fine";
    return ro;
}

void
attach_uniform(sim::System &sys, const traffic::Pattern &pattern,
               const SweepConfig &sc)
{
    for (NodeId n = 0; n < sys.num_tiles(); ++n) {
        traffic::SyntheticConfig tc;
        tc.pattern = pattern;
        tc.packet_size = sc.packet_size;
        tc.rate = sc.rate;
        tc.stop_at = sc.stop_at;
        sys.add_frontend(n, std::make_unique<traffic::SyntheticInjector>(
                                sys.tile(n), tc));
    }
}

// One point the pre-sweep-engine way: fresh System, all-pairs uniform
// routing built and frozen from scratch.
std::unique_ptr<sim::System>
build_scratch(const net::Topology &topo, const SweepConfig &sc,
              std::uint64_t seed)
{
    net::NetworkConfig cfg;
    auto sys = std::make_unique<sim::System>(topo, cfg, seed);
    auto pattern = traffic::pattern_by_name("uniform", topo.num_nodes());
    benchutil::build_routing(sys->network(), "xy",
                             traffic::flows_all_pairs(topo.num_nodes()));
    attach_uniform(*sys, pattern, sc);
    sys->freeze_tables();
    return sys;
}

std::shared_ptr<sim::SystemBlueprint>
build_blueprint(const net::Topology &topo, const SweepConfig &sc)
{
    net::NetworkConfig cfg;
    auto bp = std::make_shared<sim::SystemBlueprint>(topo, cfg);
    auto pattern = traffic::pattern_by_name("uniform", topo.num_nodes());
    benchutil::build_routing(bp->network(), "xy",
                             traffic::flows_all_pairs(topo.num_nodes()));
    bp->set_frontend_factory(
        [pattern, sc](sim::System &sys, std::uint64_t) {
            attach_uniform(sys, pattern, sc);
        });
    bp->freeze();
    return bp;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = benchutil::BenchCli::parse(argc, argv);
    benchutil::JsonReport report("bench_job_engine");

    SweepConfig sc;
    if (!cli.quick) {
        sc.side = 10;
        sc.points = 216;
    }
    const net::Topology topo = net::Topology::mesh2d(sc.side, sc.side);
    const sim::RunOptions ro = sweep_run_options(sc);

    std::printf("sweep: %ux%u mesh, uniform all-pairs, %d points\n",
                sc.side, sc.side, sc.points);

    // --- Serial hand-rolled loop (also the digest reference) --------
    std::vector<std::uint64_t> reference(sc.points);
    const double serial_s = benchutil::wall_seconds([&] {
        for (int p = 0; p < sc.points; ++p) {
            auto sys = build_scratch(topo, sc, seed_of(p));
            sys->run(ro);
            reference[p] = stats_fingerprint(sys->collect_stats());
        }
    });

    // --- The same grid through the sweep engine ----------------------
    auto bp = build_blueprint(topo, sc);
    std::vector<sim::JobResult> results;
    const double engine_s = benchutil::wall_seconds([&] {
        sim::JobEngine engine; // defaults: one worker per host thread
        for (int p = 0; p < sc.points; ++p) {
            sim::Job job;
            job.blueprint = bp;
            job.seed = seed_of(p);
            job.run = ro;
            engine.submit(std::move(job));
        }
        results = engine.finish();
    });
    if (static_cast<int>(results.size()) != sc.points)
        fatal("sweep engine lost jobs");
    int reused = 0;
    for (int p = 0; p < sc.points; ++p) {
        if (results[p].digest != reference[p])
            fatal(strcat("digest mismatch at sweep point ", p,
                         ": engine run is not bitwise identical to the "
                         "standalone fresh-built run"));
        reused += results[p].reused_system ? 1 : 0;
    }

    // --- Construction cost: blueprint instantiation vs scratch ------
    const int builds = cli.quick ? 8 : 12;
    const double scratch_build_s = benchutil::wall_seconds([&] {
        for (int b = 0; b < builds; ++b)
            build_scratch(topo, sc, seed_of(b));
    });
    const double blueprint_build_s = benchutil::wall_seconds([&] {
        for (int b = 0; b < builds; ++b)
            bp->instantiate(seed_of(b));
    });

    const double jobs_per_sec = sc.points / engine_s;
    const double serial_jobs_per_sec = sc.points / serial_s;
    const double speedup = serial_s / engine_s;
    const double build_speedup = scratch_build_s / blueprint_build_s;

    std::printf("serial loop:  %.2f s (%.1f jobs/s)\n", serial_s,
                serial_jobs_per_sec);
    std::printf("job engine:   %.2f s (%.1f jobs/s), %d/%d reused, "
                "%.2fx over serial\n",
                engine_s, jobs_per_sec, reused, sc.points, speedup);
    std::printf("construction: scratch %.4f s vs blueprint %.4f s "
                "for %d builds (%.2fx)\n",
                scratch_build_s, blueprint_build_s, builds, build_speedup);

    report.higher_is_better("sweep_jobs_per_sec", jobs_per_sec);
    report.higher_is_better("concurrent_over_serial", speedup);
    report.higher_is_better("blueprint_over_scratch", build_speedup);
    report.write_if_requested(cli);
    return 0;
}
