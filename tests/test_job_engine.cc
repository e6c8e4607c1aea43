/**
 * @file
 * Sweep-engine correctness: a System instantiated from a
 * SystemBlueprint is bitwise identical to one built from scratch
 * (every scheduler, every thread count), JobEngine results match a
 * serial hand-rolled loop exactly, the reset-and-rerun reuse path is
 * bitwise neutral, results come back in submission order, and the
 * JSONL stream carries one line per job.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "net/routing/builders.h"
#include "net/topology.h"
#include "sim/job_engine.h"
#include "sim/system.h"
#include "sim/system_blueprint.h"
#include "test_util.h"
#include "traffic/flows.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"

namespace hornet {
namespace {

constexpr std::uint32_t kSide = 4;
constexpr double kRate = 0.1;
constexpr Cycle kMaxCycles = 600;

// Attach the same transpose injectors testutil::make_mesh_system
// attaches, so blueprint-instantiated systems are comparable 1:1 with
// the from-scratch ones.
void
attach_transpose(sim::System &sys, const traffic::Pattern &pattern,
                 Cycle stop_at)
{
    for (NodeId n = 0; n < sys.num_tiles(); ++n) {
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = 4;
        sc.rate = kRate;
        sc.stop_at = stop_at;
        sys.add_frontend(n, std::make_unique<traffic::SyntheticInjector>(
                                sys.tile(n), sc));
    }
}

std::shared_ptr<sim::SystemBlueprint>
make_mesh_blueprint(Cycle stop_at = 0)
{
    net::Topology topo = net::Topology::mesh2d(kSide, kSide);
    net::NetworkConfig cfg;
    auto bp = std::make_shared<sim::SystemBlueprint>(topo, cfg);
    auto pattern = traffic::pattern_by_name("transpose", topo.num_nodes());
    auto flows = traffic::flows_for_pattern(topo.num_nodes(), pattern);
    net::routing::build_xy(bp->network(), flows);
    bp->set_frontend_factory(
        [pattern, stop_at](sim::System &sys, std::uint64_t) {
            attach_transpose(sys, pattern, stop_at);
        });
    bp->freeze();
    return bp;
}

sim::RunOptions
run_opts(const std::string &schedule, unsigned threads,
         Cycle max_cycles = kMaxCycles)
{
    sim::RunOptions ro;
    ro.max_cycles = max_cycles;
    ro.threads = threads;
    ro.schedule = schedule;
    return ro;
}

// The from-scratch reference for one sweep point: a standalone System
// built the long way (builders + own freeze), run once.
SystemStats
scratch_run(std::uint64_t seed, const sim::RunOptions &ro, Cycle stop_at = 0)
{
    auto sys = testutil::make_mesh_system(kSide, kRate, seed,
                                          /*burst_period=*/0, stop_at,
                                          /*burst_size=*/2);
    sys->run(ro);
    return sys->collect_stats();
}

TEST(SystemBlueprint, MatchesScratchEverySchedulerAndThreadCount)
{
    auto bp = make_mesh_blueprint();
    for (const char *sched : {"poll", "event-fine"}) {
        for (unsigned threads : {1u, 2u, 4u}) {
            const sim::RunOptions ro = run_opts(sched, threads);
            const SystemStats ref = scratch_run(/*seed=*/7, ro);
            auto sys = bp->instantiate(/*seed=*/7);
            ASSERT_TRUE(sys->tables_frozen());
            sys->run(ro);
            const SystemStats got = sys->collect_stats();
            EXPECT_EQ(testutil::snapshot(ref), testutil::snapshot(got))
                << "schedule=" << sched << " threads=" << threads;
            EXPECT_EQ(stats_fingerprint(ref), stats_fingerprint(got))
                << "schedule=" << sched << " threads=" << threads;
        }
    }
}

TEST(SystemBlueprint, InstantiateBeforeFreezePanics)
{
    net::Topology topo = net::Topology::mesh2d(2, 2);
    net::NetworkConfig cfg;
    sim::SystemBlueprint bp(topo, cfg);
    EXPECT_FALSE(bp.frozen());
    EXPECT_THROW(bp.instantiate(1), std::logic_error);
}

TEST(JobEngine, ConcurrentSweepMatchesSerialLoop)
{
    auto bp = make_mesh_blueprint();
    const sim::RunOptions ro = run_opts("event-fine", 1);

    // Serial reference: one fresh from-scratch system per point.
    std::vector<std::uint64_t> serial;
    for (std::uint64_t seed = 1; seed <= 12; ++seed)
        serial.push_back(stats_fingerprint(scratch_run(seed, ro)));

    // Concurrent: several workers and a deliberately tiny queue so
    // submit() exercises its blocking path.
    sim::JobEngineOptions eo;
    eo.workers = 4;
    eo.queue_capacity = 2;
    sim::JobEngine engine(eo);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        sim::Job job;
        job.blueprint = bp;
        job.seed = seed;
        job.run = ro;
        engine.submit(std::move(job));
    }
    const std::vector<sim::JobResult> results = engine.finish();

    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].seed, i + 1);
        EXPECT_EQ(results[i].digest, serial[i]) << "seed=" << i + 1;
        EXPECT_EQ(results[i].digest, stats_fingerprint(results[i].stats));
    }
}

TEST(JobEngine, ReuseIsBitwiseNeutral)
{
    // Injectors stop early and the run waits for completion, so the
    // network is drained at the end and the cached System is eligible
    // for reset-and-rerun.
    const Cycle stop_at = 150;
    auto bp = make_mesh_blueprint(stop_at);
    sim::RunOptions ro = run_opts("event-fine", 1, /*max_cycles=*/5000);
    ro.stop_when_done = true;

    sim::JobEngineOptions eo;
    eo.workers = 1; // same worker => second job hits the reuse cache
    sim::JobEngine engine(eo);
    for (int i = 0; i < 2; ++i) {
        sim::Job job;
        job.blueprint = bp;
        job.seed = 21;
        job.run = ro;
        engine.submit(std::move(job));
    }
    const auto results = engine.finish();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].reused_system);
    EXPECT_TRUE(results[1].reused_system);
    EXPECT_EQ(results[0].digest, results[1].digest);

    // And both match a standalone fresh-built run of the same point.
    EXPECT_EQ(results[0].digest,
              stats_fingerprint(scratch_run(21, ro, stop_at)));
}

TEST(JobEngine, UndrainedSystemFallsBackToFreshInstantiation)
{
    // max_cycles cuts the run mid-traffic: the cached System still
    // holds flits, reset_for_rerun refuses, and the second job must
    // silently instantiate fresh — with identical results.
    auto bp = make_mesh_blueprint();
    const sim::RunOptions ro = run_opts("poll", 1, /*max_cycles=*/80);

    sim::JobEngineOptions eo;
    eo.workers = 1;
    sim::JobEngine engine(eo);
    for (int i = 0; i < 2; ++i) {
        sim::Job job;
        job.blueprint = bp;
        job.seed = 5;
        job.run = ro;
        engine.submit(std::move(job));
    }
    const auto results = engine.finish();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].reused_system);
    EXPECT_FALSE(results[1].reused_system);
    EXPECT_EQ(results[0].digest, results[1].digest);
}

TEST(JobEngine, ResultsComeBackInSubmissionOrder)
{
    auto bp = make_mesh_blueprint();
    sim::JobEngineOptions eo;
    eo.workers = 3;
    sim::JobEngine engine(eo);
    for (int i = 0; i < 9; ++i) {
        sim::Job job;
        job.blueprint = bp;
        job.seed = 100 + static_cast<std::uint64_t>(i);
        job.run = run_opts("event-fine", 1, /*max_cycles=*/100 + 40 * i);
        job.name = "job-" + std::to_string(i);
        const std::size_t index = engine.submit(std::move(job));
        EXPECT_EQ(index, static_cast<std::size_t>(i));
    }
    const auto results = engine.finish();
    ASSERT_EQ(results.size(), 9u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].name, "job-" + std::to_string(i));
        EXPECT_EQ(results[i].seed, 100 + i);
    }
}

TEST(JobEngine, StreamsOneJsonLinePerJob)
{
    auto bp = make_mesh_blueprint();
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);

    sim::JobEngineOptions eo;
    eo.workers = 2;
    eo.stream = tmp;
    sim::JobEngine engine(eo);
    const int kJobs = 6;
    for (int i = 0; i < kJobs; ++i) {
        sim::Job job;
        job.blueprint = bp;
        job.seed = static_cast<std::uint64_t>(i + 1);
        job.run = run_opts("event-fine", 1, /*max_cycles=*/120);
        job.name = "pt\"" + std::to_string(i); // exercises escaping
        engine.submit(std::move(job));
    }
    engine.finish();

    std::rewind(tmp);
    int lines = 0;
    int braces_balanced = 0;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, tmp) != nullptr) {
        ++lines;
        const std::string line(buf);
        if (!line.empty() && line.front() == '{' &&
            line.find("}\n") != std::string::npos)
            ++braces_balanced;
        EXPECT_NE(line.find("\"digest\""), std::string::npos);
        EXPECT_NE(line.find("\\\""), std::string::npos); // escaped quote
    }
    std::fclose(tmp);
    EXPECT_EQ(lines, kJobs);
    EXPECT_EQ(braces_balanced, kJobs);
}

} // namespace
} // namespace hornet
