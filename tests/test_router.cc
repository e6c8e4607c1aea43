/**
 * @file
 * Router pipeline behaviour: zero-load latency, wormhole semantics,
 * credit backpressure, EDVCA exclusivity/in-order properties, FAA,
 * adaptive routing, bidirectional links, VC-configuration effects, and
 * the occupancy-mask invariant behind the router's only scan path.
 */
#include <gtest/gtest.h>

#include "net/routing/builders.h"
#include "net/topology.h"
#include "net/vca_builders.h"
#include "sim/system.h"
#include "traffic/flows.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"
#include "traffic/trace.h"

namespace hornet {
namespace {

using net::Topology;
using sim::RunOptions;
using sim::System;
using traffic::TraceEvent;
using traffic::TraceInjector;

/** Run one trace on a line network; returns collected stats. */
SystemStats
run_line_trace(const std::vector<TraceEvent> &events,
               net::NetworkConfig cfg, std::uint32_t length = 4,
               Cycle cycles = 2000, std::uint64_t seed = 1)
{
    Topology topo = Topology::mesh2d(length, 1);
    System sys(topo, cfg, seed);
    net::routing::build_xy(sys.network(),
                           traffic::flows_from_trace(events));
    auto per_node = traffic::split_trace_by_source(events,
                                                   topo.num_nodes());
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        if (!per_node[n].empty())
            sys.add_frontend(n, std::make_unique<TraceInjector>(
                                    sys.tile(n), per_node[n]));
    }
    RunOptions opts;
    opts.max_cycles = cycles;
    opts.stop_when_done = true;
    sys.run(opts);
    return sys.collect_stats();
}

TEST(Router, ZeroLoadLatencyScalesWithHops)
{
    // One single-flit packet across h router-to-router hops. Per-hop
    // zero-load cost is 2 cycles (one pipeline cycle: the head is
    // visible and does RC/VA in cycle t, SA/ST in t+1; plus one link
    // cycle). Every traversed router contributes 2, incl. delivery.
    std::vector<double> lat;
    for (std::uint32_t len : {2u, 3u, 5u, 8u}) {
        std::vector<TraceEvent> ev{
            {0, traffic::pair_flow(0, len - 1), 0, len - 1, 1}};
        auto s = run_line_trace(ev, {}, len);
        ASSERT_EQ(s.total.packets_delivered, 1u);
        lat.push_back(s.avg_packet_latency());
    }
    for (std::size_t i = 1; i < lat.size(); ++i)
        EXPECT_GT(lat[i], lat[i - 1]);
    double slope = (lat[3] - lat[0]) / (7.0 - 1.0);
    EXPECT_NEAR(slope, 2.0, 0.01);
    EXPECT_NEAR(lat[0], 4.0, 0.01); // 2 routers * 2 cycles
}

TEST(Router, SerializationCostForLargePackets)
{
    // On a 1-flit/cycle link, a k-flit packet's tail departs k-1 cycles
    // after the head: latency(tail) ≈ latency(head) + (k-1).
    std::vector<TraceEvent> e1{{0, traffic::pair_flow(0, 3), 0, 3, 1}};
    std::vector<TraceEvent> e8{{0, traffic::pair_flow(0, 3), 0, 3, 8}};
    auto s1 = run_line_trace(e1, {});
    auto s8 = run_line_trace(e8, {});
    EXPECT_NEAR(s8.avg_packet_latency(),
                s1.avg_packet_latency() + 7.0, 1.0);
}

TEST(Router, WormholeSpansSmallBuffers)
{
    // A 16-flit packet through 4-flit buffers must still deliver
    // completely (flits strung across multiple routers).
    net::NetworkConfig cfg;
    cfg.router.net_vc_capacity = 4;
    std::vector<TraceEvent> ev{{0, traffic::pair_flow(0, 3), 0, 3, 16}};
    auto s = run_line_trace(ev, cfg);
    EXPECT_EQ(s.total.flits_delivered, 16u);
    EXPECT_EQ(s.total.packets_delivered, 1u);
}

TEST(Router, BufferOccupancyNeverExceedsCapacity)
{
    // Credit discipline: exercised heavily by pushing many packets at
    // a chokepoint; the VcBuffer overflow panic would fire otherwise.
    net::NetworkConfig cfg;
    cfg.router.net_vc_capacity = 2;
    cfg.router.net_vcs = 2;
    std::vector<TraceEvent> ev;
    for (int k = 0; k < 50; ++k) {
        ev.push_back({static_cast<Cycle>(k), traffic::pair_flow(0, 3),
                      0, 3, 8});
        ev.push_back({static_cast<Cycle>(k), traffic::pair_flow(1, 3),
                      1, 3, 8});
    }
    auto s = run_line_trace(ev, cfg, 4, 20000);
    EXPECT_EQ(s.total.flits_injected, s.total.flits_delivered);
}

TEST(Router, PacketsOfOneFlowThroughOneVcStayOrdered)
{
    // With flow-pinned injection + EDVCA, per-flow packet order is
    // preserved end-to-end (EDVCA's guarantee, paper II-A3).
    Topology topo = Topology::mesh2d(4, 4);
    net::NetworkConfig cfg;
    cfg.router.vca_mode = net::VcaMode::Edvca;
    System sys(topo, cfg, 77);
    const FlowId f = traffic::pair_flow(0, 15);
    net::routing::build_xy(sys.network(), {{f, 0, 15, 1.0}});

    traffic::BridgeConfig bc;
    bc.flow_pinned_injection = true;
    std::vector<TraceEvent> ev;
    for (int k = 0; k < 30; ++k)
        ev.push_back({static_cast<Cycle>(2 * k), f, 0, 15, 4});
    sys.add_frontend(0, std::make_unique<TraceInjector>(sys.tile(0), ev,
                                                        bc));
    RunOptions opts;
    opts.max_cycles = 5000;
    opts.stop_when_done = true;
    sys.run(opts);
    EXPECT_EQ(sys.collect_stats().total.packets_delivered, 30u);
}

TEST(Router, EdvcaKeepsVcExclusivePerFlow)
{
    // Run shuffle traffic under EDVCA and check the invariant on every
    // network ingress VC after every cycle would be costly; instead we
    // check at many sampling points.
    Topology topo = Topology::mesh2d(4, 4);
    net::NetworkConfig cfg;
    cfg.router.vca_mode = net::VcaMode::Edvca;
    System sys(topo, cfg, 5);
    auto pattern = traffic::shuffle(16);
    auto flows = traffic::flows_for_pattern(16, pattern);
    net::routing::build_xy(sys.network(), flows);
    for (NodeId n = 0; n < 16; ++n) {
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = 4;
        sc.rate = 0.3;
        sc.bridge.flow_pinned_injection = true;
        sys.add_frontend(n, std::make_unique<traffic::SyntheticInjector>(
                                 sys.tile(n), sc));
    }
    RunOptions opts;
    for (Cycle stop = 50; stop <= 1000; stop += 50) {
        opts.max_cycles = stop;
        sys.run(opts);
        for (NodeId n = 0; n < 16; ++n) {
            net::Router &r = sys.network().router(n);
            for (PortId p = 0; p < r.num_net_ports(); ++p) {
                for (VcId v = 0; v < r.config().net_vcs; ++v) {
                    // At most one distinct flow per network VC buffer.
                    EXPECT_LE(r.ingress_buffer(p, v).distinct_flows(), 1u)
                        << "node " << n << " port " << p << " vc " << v;
                }
            }
        }
    }
}

TEST(Router, DynamicVcaMixesFlowsInVcs)
{
    // Sanity check of the EDVCA test's power: under dynamic VCA the
    // same workload does mix flows within VCs somewhere.
    Topology topo = Topology::mesh2d(4, 4);
    net::NetworkConfig cfg;
    cfg.router.vca_mode = net::VcaMode::Dynamic;
    cfg.router.net_vcs = 2;
    System sys(topo, cfg, 5);
    auto pattern = traffic::shuffle(16);
    auto flows = traffic::flows_for_pattern(16, pattern);
    net::routing::build_xy(sys.network(), flows);
    for (NodeId n = 0; n < 16; ++n) {
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = 4;
        sc.rate = 0.5;
        sys.add_frontend(n, std::make_unique<traffic::SyntheticInjector>(
                                 sys.tile(n), sc));
    }
    bool mixed = false;
    RunOptions opts;
    for (Cycle stop = 25; stop <= 1500 && !mixed; stop += 25) {
        opts.max_cycles = stop;
        sys.run(opts);
        for (NodeId n = 0; n < 16 && !mixed; ++n) {
            net::Router &r = sys.network().router(n);
            for (PortId p = 0; p < r.num_net_ports() && !mixed; ++p)
                for (VcId v = 0; v < 2u && !mixed; ++v)
                    mixed = r.ingress_buffer(p, v).distinct_flows() > 1;
        }
    }
    EXPECT_TRUE(mixed);
}

TEST(Router, FaaPrefersEmptierVc)
{
    // FAA picks the candidate VC with the most downstream space; under
    // a steady single flow the allocation must still deliver cleanly.
    net::NetworkConfig cfg;
    cfg.router.vca_mode = net::VcaMode::Faa;
    std::vector<TraceEvent> ev;
    for (int k = 0; k < 20; ++k)
        ev.push_back({static_cast<Cycle>(3 * k),
                      traffic::pair_flow(0, 3), 0, 3, 6});
    auto s = run_line_trace(ev, cfg);
    EXPECT_EQ(s.total.packets_delivered, 20u);
}

TEST(Router, AdaptiveRoutingSpreadsOverO1turnCandidates)
{
    // Adaptive next-hop choice over a routing table that offers both
    // XY and YX directions; everything must still deliver.
    Topology topo = Topology::mesh2d(4, 4);
    net::NetworkConfig cfg;
    cfg.router.adaptive_routing = true;
    cfg.router.net_vcs = 4;
    System sys(topo, cfg, 6);
    std::vector<net::FlowSpec> flows{{traffic::pair_flow(0, 15), 0, 15,
                                      1.0}};
    net::routing::build_o1turn(sys.network(), flows);
    net::vca::build_phase_split(sys.network());
    std::vector<TraceEvent> ev;
    for (int k = 0; k < 40; ++k)
        ev.push_back({static_cast<Cycle>(k), traffic::pair_flow(0, 15),
                      0, 15, 4});
    sys.add_frontend(0, std::make_unique<TraceInjector>(sys.tile(0), ev));
    RunOptions opts;
    opts.max_cycles = 10000;
    opts.stop_when_done = true;
    sys.run(opts);
    EXPECT_EQ(sys.collect_stats().total.packets_delivered, 40u);
}

TEST(Router, BidirectionalLinksDeliverUnderAsymmetricLoad)
{
    // All traffic converges on the 1->2 link from two ingress ports
    // (the from-0 port and node 1's own injection port). With
    // bidirectional pooling the idle 2->1 direction's bandwidth is
    // handed to 1->2, so the batch finishes sooner (paper II-A4).
    auto run_once = [](bool bidir) {
        Topology topo = Topology::mesh2d(3, 1);
        net::NetworkConfig cfg;
        cfg.bidirectional_links = bidir;
        System sys(topo, cfg, 9);
        std::vector<net::FlowSpec> flows{
            {traffic::pair_flow(0, 2), 0, 2, 1.0},
            {traffic::pair_flow(1, 2), 1, 2, 1.0}};
        net::routing::build_xy(sys.network(), flows);
        traffic::BridgeConfig bc;
        bc.injection_bandwidth = 4;
        bc.ejection_bandwidth = 4;
        std::vector<TraceEvent> ev;
        for (int k = 0; k < 16; ++k) {
            ev.push_back({0, traffic::pair_flow(0, 2), 0, 2, 8});
            ev.push_back({0, traffic::pair_flow(1, 2), 1, 2, 8});
        }
        auto split = traffic::split_trace_by_source(ev, 3);
        for (NodeId n = 0; n < 2; ++n)
            sys.add_frontend(n, std::make_unique<TraceInjector>(
                                    sys.tile(n), split[n], bc));
        RunOptions opts;
        opts.max_cycles = 100000;
        opts.stop_when_done = true;
        Cycle end = sys.run(opts);
        EXPECT_EQ(sys.collect_stats().total.packets_delivered, 32u);
        return end;
    };
    Cycle t_uni = run_once(false);
    Cycle t_bi = run_once(true);
    EXPECT_LT(t_bi, t_uni);
}

TEST(Router, CrossbarBandwidthLimitThrottles)
{
    // Two sources into one sink: with xbar bandwidth 1 the middle
    // router serializes harder than with unlimited crossbar.
    auto run_once = [](std::uint32_t xbar) {
        Topology topo = Topology::mesh2d(3, 1);
        net::NetworkConfig cfg;
        cfg.router.xbar_bandwidth = xbar;
        System sys(topo, cfg, 4);
        std::vector<TraceEvent> ev;
        for (int k = 0; k < 20; ++k) {
            ev.push_back({0, traffic::pair_flow(0, 2), 0, 2, 8});
            ev.push_back({0, traffic::pair_flow(2, 0), 2, 0, 8});
        }
        net::routing::build_xy(sys.network(),
                               traffic::flows_from_trace(ev));
        auto split = traffic::split_trace_by_source(ev, 3);
        for (NodeId n = 0; n < 3; ++n)
            if (!split[n].empty())
                sys.add_frontend(n, std::make_unique<TraceInjector>(
                                        sys.tile(n), split[n]));
        RunOptions opts;
        opts.max_cycles = 100000;
        opts.stop_when_done = true;
        return sys.run(opts);
    };
    Cycle limited = run_once(1);
    Cycle unlimited = run_once(0);
    EXPECT_GT(limited, unlimited);
}

TEST(Router, MoreVcsRelieveHeadOfLineBlocking)
{
    // Two flows share the first link then diverge; with 1 VC the
    // blocked flow suffers head-of-line blocking, with 4 VCs less so.
    auto avg_latency = [](std::uint32_t vcs) {
        Topology topo = Topology::mesh2d(3, 2);
        net::NetworkConfig cfg;
        cfg.router.net_vcs = vcs;
        cfg.router.net_vc_capacity = 4;
        System sys(topo, cfg, 12);
        // Flows 0->2 (along top row) and 0->5 (turns down at x=2).
        std::vector<net::FlowSpec> flows{
            {traffic::pair_flow(0, 2), 0, 2, 1.0},
            {traffic::pair_flow(0, 5), 0, 5, 1.0}};
        net::routing::build_xy(sys.network(), flows);
        std::vector<TraceEvent> ev;
        for (int k = 0; k < 40; ++k) {
            ev.push_back({static_cast<Cycle>(k * 2),
                          traffic::pair_flow(0, 2), 0, 2, 4});
            ev.push_back({static_cast<Cycle>(k * 2),
                          traffic::pair_flow(0, 5), 0, 5, 4});
        }
        traffic::BridgeConfig bc;
        bc.injection_bandwidth = 2;
        sys.add_frontend(0, std::make_unique<TraceInjector>(
                                sys.tile(0), ev, bc));
        RunOptions opts;
        opts.max_cycles = 100000;
        opts.stop_when_done = true;
        sys.run(opts);
        auto s = sys.collect_stats();
        EXPECT_EQ(s.total.packets_delivered, 80u);
        return s.avg_packet_latency();
    };
    EXPECT_LT(avg_latency(4), avg_latency(1));
}

TEST(Router, StatsCountersAreConsistent)
{
    std::vector<TraceEvent> ev;
    for (int k = 0; k < 10; ++k)
        ev.push_back({static_cast<Cycle>(5 * k),
                      traffic::pair_flow(0, 3), 0, 3, 4});
    auto s = run_line_trace(ev, {});
    // Every delivered flit crossed 3 router-to-router links + ejection.
    EXPECT_EQ(s.total.flits_delivered, 40u);
    EXPECT_EQ(s.total.link_transits, 40u * 3u);
    // Each flit does one crossbar transit per router it leaves.
    EXPECT_EQ(s.total.xbar_transits, 40u * 4u);
    EXPECT_EQ(s.total.buffer_reads, s.total.xbar_transits);
    // VA grants: one per packet per router on its path.
    EXPECT_EQ(s.total.va_grants, 10u * 4u);
}

TEST(Router, OccupancyMasksCoverEveryBufferedFlit)
{
    // Stage A, the negedge commit and has_buffered_flits() walk only
    // the per-port occupancy masks. Their invariant — every non-empty
    // ingress buffer has its bit set — is checked against the
    // reference full scan after every cycle of randomized runs. Each
    // configuration runs on one thread, where every ingress buffer is
    // local and pushes set mask bits with plain stores, and on two,
    // where the shard boundary adds cross-thread buffers whose pushes
    // set them with atomic read-modify-writes. Each check ends a
    // one-cycle run, which starts every tile and component awake, so
    // the runs poll: an event-fine run could not sleep anything
    // between checks. The differential harness checks the masks at
    // the end of long event-fine runs.
    static const net::VcaMode kVca[] = {
        net::VcaMode::Dynamic, net::VcaMode::StaticSet,
        net::VcaMode::Edvca, net::VcaMode::Faa};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (const unsigned threads : {1u, 2u}) {
            Rng draw(seed * 7919); // one configuration per seed
            net::NetworkConfig cfg;
            cfg.router.net_vcs =
                static_cast<std::uint32_t>(1 + draw.below(8));
            cfg.router.cpu_vcs =
                static_cast<std::uint32_t>(1 + draw.below(8));
            cfg.router.net_vc_capacity =
                static_cast<std::uint32_t>(1 + draw.below(4));
            cfg.router.vca_mode = kVca[draw.below(4)];
            cfg.link_latency = static_cast<Cycle>(1 + draw.below(2));
            cfg.bidirectional_links = draw.below(2) == 1;
            const Topology topo = Topology::mesh2d(4, 4);
            System sys(topo, cfg, seed);
            const auto pattern = traffic::pattern_by_name("uniform", 16);
            net::routing::build_xy(sys.network(),
                                   traffic::flows_all_pairs(16));
            for (NodeId n = 0; n < 16; ++n) {
                traffic::SyntheticConfig sc;
                sc.pattern = pattern;
                sc.packet_size =
                    static_cast<std::uint32_t>(1 + draw.below(6));
                sc.rate = 0.05 + 0.05 * static_cast<double>(draw.below(6));
                sc.stop_at = 200;
                sys.add_frontend(
                    n, std::make_unique<traffic::SyntheticInjector>(
                           sys.tile(n), sc));
            }
            sim::CycleAccurateSync policy;
            sim::EngineOptions opts;
            opts.schedule = sim::Schedule::Poll;
            for (Cycle c = 1; c <= 300; ++c) {
                opts.max_cycles = c;
                sys.run(policy, opts, threads);
                for (NodeId n = 0; n < 16; ++n)
                    ASSERT_TRUE(sys.network()
                                    .router(n)
                                    .ingress_masks_cover_buffers())
                        << "seed " << seed << " threads " << threads
                        << " cycle " << c << " router " << n;
            }
            EXPECT_GT(sys.collect_stats().total.flits_delivered, 0u);
        }
    }
}

TEST(Router, MoreThan64VcsPerPortIsRejected)
{
    // Each ingress port's occupancy mask is one 64-bit word, so a
    // wider port is a configuration error at construction time.
    const Topology topo = Topology::mesh2d(2, 2);
    net::NetworkConfig cfg;
    cfg.router.net_vcs = 65;
    EXPECT_THROW(System(topo, cfg, 1), std::runtime_error);
    cfg.router.net_vcs = 4;
    cfg.router.cpu_vcs = 65;
    EXPECT_THROW(System(topo, cfg, 1), std::runtime_error);
    cfg.router.net_vcs = 64;
    cfg.router.cpu_vcs = 64;
    EXPECT_NO_THROW(System(topo, cfg, 1));
}

} // namespace
} // namespace hornet
