/**
 * @file
 * Config-driven construction tests: every Table-I knob reaches the
 * built system, bad configs fail loudly, and built systems actually
 * simulate.
 */
#include <gtest/gtest.h>

#include <fstream>

#include "../examples/demo_config.h"
#include "traffic/flows.h"
#include "traffic/system_builder.h"
#include "traffic/trace.h"

namespace hornet {
namespace {

using traffic::build_system;
using traffic::network_from_config;
using traffic::topology_from_config;

TEST(SystemBuilder, DefaultsBuildAnEightByEightMesh)
{
    auto cfg = Config::from_string("");
    auto topo = topology_from_config(cfg);
    EXPECT_EQ(topo.num_nodes(), 64u);
    EXPECT_EQ(topo.name(), "mesh8x8");
}

TEST(SystemBuilder, TopologyKinds)
{
    EXPECT_EQ(topology_from_config(
                  Config::from_string("[topology]\nkind = torus\n"
                                      "width = 4\nheight = 4\n"))
                  .name(),
              "torus4x4");
    EXPECT_EQ(topology_from_config(
                  Config::from_string("[topology]\nkind = ring\n"
                                      "nodes = 10\n"))
                  .name(),
              "ring10");
    EXPECT_EQ(topology_from_config(
                  Config::from_string("[topology]\nkind = mesh3d\n"
                                      "width = 3\nheight = 3\n"
                                      "layers = 2\nstyle = x1\n"))
                  .name(),
              "mesh3d-x1-3x3x2");
    EXPECT_THROW(topology_from_config(
                     Config::from_string("[topology]\nkind = blob\n")),
                 std::runtime_error);
}

TEST(SystemBuilder, NetworkKnobsReachTheRouters)
{
    auto cfg = Config::from_string("[network]\n"
                                   "vcs = 8\n"
                                   "vc_capacity = 2\n"
                                   "cpu_vcs = 2\n"
                                   "cpu_vc_capacity = 16\n"
                                   "link_bandwidth = 2\n"
                                   "xbar_bandwidth = 3\n"
                                   "vca = edvca\n"
                                   "adaptive = true\n"
                                   "link_latency = 2\n"
                                   "bidirectional = true\n");
    auto nc = network_from_config(cfg);
    EXPECT_EQ(nc.router.net_vcs, 8u);
    EXPECT_EQ(nc.router.net_vc_capacity, 2u);
    EXPECT_EQ(nc.router.cpu_vcs, 2u);
    EXPECT_EQ(nc.router.cpu_vc_capacity, 16u);
    EXPECT_EQ(nc.router.link_bandwidth, 2u);
    EXPECT_EQ(nc.router.xbar_bandwidth, 3u);
    EXPECT_EQ(nc.router.vca_mode, net::VcaMode::Edvca);
    EXPECT_TRUE(nc.router.adaptive_routing);
    EXPECT_EQ(nc.link_latency, 2u);
    EXPECT_TRUE(nc.bidirectional_links);

    auto cfg2 = Config::from_string(
        "[topology]\nwidth = 2\nheight = 2\n[network]\nvcs = 8\n");
    auto sys = build_system(cfg2);
    EXPECT_EQ(sys->network().router(0).config().net_vcs, 8u);
}

TEST(SystemBuilder, BuiltSyntheticSystemSimulates)
{
    auto cfg = Config::from_string("[topology]\n"
                                   "width = 4\nheight = 4\n"
                                   "[traffic]\n"
                                   "pattern = transpose\n"
                                   "rate = 0.1\n"
                                   "[routing]\n"
                                   "scheme = o1turn\n"
                                   "[sim]\nseed = 9\n");
    auto sys = build_system(cfg);
    sim::RunOptions opts;
    opts.max_cycles = 3000;
    sys->run(opts);
    auto stats = sys->collect_stats();
    EXPECT_GT(stats.total.packets_delivered, 0u);
    EXPECT_GE(stats.total.flits_injected, stats.total.flits_delivered);
}

TEST(SystemBuilder, EverySchemeBuildsAndDelivers)
{
    for (const char *scheme : {"xy", "o1turn", "romm", "valiant",
                               "prom", "shortest", "static"}) {
        auto cfg = Config::from_string(
            std::string("[topology]\nwidth = 4\nheight = 4\n"
                        "[traffic]\npattern = transpose\nrate = 0.03\n"
                        "[routing]\nscheme = ") +
            scheme + "\n");
        auto sys = build_system(cfg);
        sim::RunOptions opts;
        opts.max_cycles = 4000;
        sys->run(opts);
        EXPECT_GT(sys->collect_stats().total.packets_delivered, 0u)
            << scheme;
    }
}

TEST(SystemBuilder, RingUsesShortestPathScheme)
{
    auto cfg = Config::from_string("[topology]\nkind = ring\n"
                                   "nodes = 8\n"
                                   "[routing]\nscheme = shortest\n"
                                   "[traffic]\npattern = uniform\n"
                                   "rate = 0.05\n");
    auto sys = build_system(cfg);
    sim::RunOptions opts;
    opts.max_cycles = 3000;
    sys->run(opts);
    EXPECT_GT(sys->collect_stats().total.packets_delivered, 0u);
}

TEST(SystemBuilder, SeedChangesResults)
{
    auto make = [](int seed) {
        auto cfg = Config::from_string(
            std::string("[topology]\nwidth = 4\nheight = 4\n"
                        "[traffic]\npattern = uniform\nrate = 0.1\n"
                        "[sim]\nseed = ") +
            std::to_string(seed) + "\n");
        auto sys = traffic::build_system(cfg);
        sim::RunOptions opts;
        opts.max_cycles = 2000;
        sys->run(opts);
        return sys->collect_stats().total.flits_injected;
    };
    EXPECT_EQ(make(5), make(5));
    EXPECT_NE(make(5), make(6));
}

TEST(SystemBuilder, BadValuesFailLoudly)
{
    EXPECT_THROW(build_system(Config::from_string(
                     "[routing]\nscheme = warp\n")),
                 std::runtime_error);
    EXPECT_THROW(build_system(Config::from_string(
                     "[traffic]\nkind = psychic\n")),
                 std::runtime_error);
    EXPECT_THROW(build_system(Config::from_string(
                     "[traffic]\nkind = trace\n")), // missing file key
                 std::runtime_error);
    EXPECT_THROW(network_from_config(Config::from_string(
                     "[network]\nvca = sometimes\n")),
                 std::runtime_error);
}

TEST(SystemBuilder, TraceKindLoadsAndRuns)
{
    // Write a small trace to a temp file and drive the system from it.
    const char *path = "/tmp/hornet_builder_trace.txt";
    {
        std::vector<traffic::TraceEvent> ev{
            {0, traffic::pair_flow(0, 3), 0, 3, 4},
            {10, traffic::pair_flow(3, 0), 3, 0, 4}};
        std::ofstream out(path);
        traffic::write_trace(out, ev);
    }
    auto cfg = Config::from_string(
        std::string("[topology]\nwidth = 2\nheight = 2\n"
                    "[traffic]\nkind = trace\ntrace_file = ") +
        path + "\n");
    auto sys = build_system(cfg);
    sim::RunOptions opts;
    opts.max_cycles = 500;
    opts.stop_when_done = true;
    sys->run(opts);
    EXPECT_EQ(sys->collect_stats().total.packets_delivered, 2u);
}

/** Interpret @p text the way examples/config_run does — run options,
 *  then the system — then reject the keys nothing read. */
void
build_and_check_keys(const std::string &text)
{
    const Config cfg = Config::from_string(text);
    traffic::run_options_from_config(cfg);
    build_system(cfg);
    cfg.reject_unread_keys();
}

/** The message build_and_check_keys(@p text) fails with ("" if none). */
std::string
unread_key_error(const std::string &text)
{
    try {
        build_and_check_keys(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(SystemBuilder, UnknownKeysAreRejectedAfterBuild)
{
    // A misspelled key used to be ignored silently, leaving the
    // default in force; config_run now fails and lists it.
    const std::string mesh = "[topology]\nwidth = 2\nheight = 2\n";
    EXPECT_EQ(unread_key_error(mesh + "[sim]\nschedual = event-fine\n"),
              "fatal: config: unknown key(s) nothing read: sim.schedual");
    // A key of another topology kind is not read either.
    EXPECT_EQ(unread_key_error(mesh + "nodes = 9\n"),
              "fatal: config: unknown key(s) nothing read: topology.nodes");

    // The demo experiment and the spelled-out schedule key pass.
    EXPECT_NO_THROW(build_and_check_keys(examples::kDemoConfig));
    EXPECT_NO_THROW(
        build_and_check_keys(mesh + "[sim]\nschedule = event-fine\n"));
}

} // namespace
} // namespace hornet
