/**
 * @file
 * Network-assembly and bidirectional-link unit tests: wiring checks,
 * arbiter split policy (paper II-A4), demand publication, and the
 * sanity of the paper's Table-I port configuration options.
 */
#include <gtest/gtest.h>

#include <memory>

#include "net/link.h"
#include "net/network.h"
#include "net/routing/builders.h"
#include "net/topology.h"

namespace hornet::net {
namespace {

struct Harness
{
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<std::unique_ptr<TileStats>> stats;
    std::unique_ptr<Network> net;

    explicit Harness(const Topology &topo, NetworkConfig cfg = {})
    {
        std::vector<Rng *> rp;
        std::vector<TileStats *> sp;
        for (NodeId i = 0; i < topo.num_nodes(); ++i) {
            rngs.push_back(std::make_unique<Rng>(50 + i));
            stats.push_back(std::make_unique<TileStats>());
            rp.push_back(rngs.back().get());
            sp.push_back(stats.back().get());
        }
        net = std::make_unique<Network>(topo, cfg, rp, sp);
    }
};

TEST(Network, BuildsRouterPerNodeWithMatchingPorts)
{
    auto topo = Topology::mesh2d(3, 3);
    Harness h(topo);
    EXPECT_EQ(h.net->num_nodes(), 9u);
    // Center node has 4 network ports; corner has 2.
    EXPECT_EQ(h.net->router(4).num_net_ports(), 4u);
    EXPECT_EQ(h.net->router(0).num_net_ports(), 2u);
    EXPECT_EQ(h.net->router(0).cpu_port(), 2u);
}

TEST(Network, MismatchedSinkCountsRejected)
{
    auto topo = Topology::mesh2d(2, 2);
    Rng r(1);
    TileStats s;
    std::vector<Rng *> rp{&r};
    std::vector<TileStats *> sp{&s};
    EXPECT_THROW(Network(topo, {}, rp, sp), std::runtime_error);
}

TEST(Network, StartsDrained)
{
    Harness h(Topology::mesh2d(2, 2));
    EXPECT_FALSE(h.net->has_buffered_flits());
}

TEST(Network, CpuPortVcConfigIsIndependent)
{
    // Paper II-A1: CPU<->switch ports may have a different VC
    // configuration from switch<->switch ports.
    NetworkConfig cfg;
    cfg.router.net_vcs = 2;
    cfg.router.net_vc_capacity = 4;
    cfg.router.cpu_vcs = 6;
    cfg.router.cpu_vc_capacity = 16;
    Harness h(Topology::mesh2d(2, 2), cfg);
    Router &r = h.net->router(0);
    EXPECT_EQ(r.num_injection_vcs(), 6u);
    EXPECT_EQ(r.injection_buffer(0).capacity(), 16u);
    EXPECT_EQ(r.ingress_buffer(0, 0).capacity(), 4u);
}

TEST(Network, BidirectionalLinksCreateOneArbiterPerEdge)
{
    NetworkConfig cfg;
    cfg.bidirectional_links = true;
    auto topo = Topology::mesh2d(3, 3);
    Harness h(topo, cfg);
    std::size_t owned = 0;
    for (NodeId n = 0; n < topo.num_nodes(); ++n)
        owned += h.net->links_owned_by(n).size();
    EXPECT_EQ(owned, topo.num_links());
    // Each arbiter is owned by its lower-id endpoint.
    for (NodeId n = 0; n < topo.num_nodes(); ++n)
        for (auto *l : h.net->links_owned_by(n))
            EXPECT_EQ(l->owner(), n);
}

TEST(BidirLink, IdleLinkSplitsEvenly)
{
    NetworkConfig cfg;
    cfg.bidirectional_links = true;
    cfg.router.link_bandwidth = 1; // pooled: 2
    Harness h(Topology::mesh2d(2, 1), cfg);
    auto *link = h.net->links_owned_by(0).front();
    link->arbitrate();
    Router &a = h.net->router(0);
    Router &b = h.net->router(1);
    // bandwidth_next was set; routers copy it at the next posedge.
    a.posedge(0);
    b.posedge(0);
    EXPECT_EQ(a.egress_bandwidth(0) + b.egress_bandwidth(0), 2u);
    EXPECT_EQ(a.egress_bandwidth(0), 1u);
}

TEST(BidirLink, AsymmetricDemandGetsFullPool)
{
    // Inject demand on one side by staging a routed packet; simpler:
    // check the arbiter's published-demand policy directly by pushing
    // flits into A's CPU ingress and routing them toward B.
    NetworkConfig cfg;
    cfg.bidirectional_links = true;
    auto topo = Topology::mesh2d(2, 1);
    Harness h(topo, cfg);
    routing::build_xy(*h.net, {{1, 0, 1, 1.0}});
    for (NodeId n = 0; n < topo.num_nodes(); ++n)
        h.net->router(n).freeze_tables(); // routers read frozen tables

    Router &a = h.net->router(0);
    // Inject a 4-flit packet by hand into A's injection VC.
    for (std::uint32_t i = 0; i < 4; ++i) {
        Flit f;
        f.flow = 1;
        f.original_flow = 1;
        f.packet = 7;
        f.src = 0;
        f.dst = 1;
        f.seq = i;
        f.packet_size = 4;
        f.head = i == 0;
        f.tail = i == 3;
        f.arrival_cycle = 1;
        a.injection_buffer(0).push(f);
    }
    // Cycle 1: RC/VA; cycle 2: SA/ST begins -> demand published.
    a.posedge(1);
    a.negedge(1);
    a.posedge(2);
    EXPECT_GT(a.egress_demand(0), 0u);
    a.negedge(2);
    auto *link = h.net->links_owned_by(0).front();
    link->arbitrate();
    a.posedge(3);
    h.net->router(1).posedge(3);
    // All pooled bandwidth goes to the loaded direction.
    EXPECT_EQ(a.egress_bandwidth(0), 2u);
    EXPECT_EQ(h.net->router(1).egress_bandwidth(0), 0u);
}

TEST(Router, PortsWithoutArbiterPublishNoDemand)
{
    // Only a link arbiter reads a port's demand and sets its
    // bandwidth, so posedge leaves that seam alone on every other
    // port: with unidirectional links the demand stays 0 and the
    // bandwidth the configured one while a packet streams out.
    NetworkConfig cfg;
    cfg.router.link_bandwidth = 3;
    auto topo = Topology::mesh2d(2, 1);
    Harness h(topo, cfg);
    ASSERT_TRUE(h.net->links_owned_by(0).empty());
    routing::build_xy(*h.net, {{1, 0, 1, 1.0}});
    for (NodeId n = 0; n < topo.num_nodes(); ++n)
        h.net->router(n).freeze_tables();

    Router &a = h.net->router(0);
    for (std::uint32_t i = 0; i < 4; ++i) {
        Flit f;
        f.flow = 1;
        f.original_flow = 1;
        f.packet = 7;
        f.src = 0;
        f.dst = 1;
        f.seq = i;
        f.packet_size = 4;
        f.head = i == 0;
        f.tail = i == 3;
        f.arrival_cycle = 1;
        a.injection_buffer(0).push(f);
    }
    Router &b = h.net->router(1);
    const PortId toward_a = topo.port_to(1, 0);
    for (Cycle c = 1; c <= 6; ++c) {
        a.posedge(c);
        for (PortId e = 0; e <= a.cpu_port(); ++e) {
            EXPECT_EQ(a.egress_demand(e), 0u) << "cycle " << c;
            EXPECT_EQ(a.egress_bandwidth(e), 3u) << "cycle " << c;
        }
        a.negedge(c);
    }
    // The packet did leave: it sits in B's ingress buffers.
    std::uint32_t arrived = 0;
    for (VcId v = 0; v < cfg.router.net_vcs; ++v)
        arrived += b.ingress_buffer(toward_a, v).size_raw();
    EXPECT_EQ(arrived, 4u);
}

TEST(BidirLink, ZeroBandwidthRejected)
{
    NetworkConfig cfg;
    Harness h(Topology::mesh2d(2, 1), cfg);
    EXPECT_THROW(BidirLink(&h.net->router(0), 0, &h.net->router(1), 0,
                           0),
                 std::runtime_error);
}

TEST(Router, ConnectEgressValidatesWiring)
{
    Harness h(Topology::mesh2d(2, 2));
    Router &r = h.net->router(0);
    // Wrong neighbour for the port.
    EXPECT_THROW(r.connect_egress(0, 99, {}, 1), std::runtime_error);
    // Zero link latency is not allowed.
    auto bufs = h.net->router(1).ingress_buffers(
        h.net->topology().port_to(1, 0));
    NodeId nbr = h.net->topology().neighbors(0)[0];
    EXPECT_THROW(r.connect_egress(0, nbr, bufs, 0), std::runtime_error);
}

TEST(Router, EgressFreeSpaceReflectsDownstreamCredits)
{
    NetworkConfig cfg;
    cfg.router.net_vcs = 2;
    cfg.router.net_vc_capacity = 4;
    Harness h(Topology::mesh2d(2, 1), cfg);
    Router &a = h.net->router(0);
    EXPECT_EQ(a.egress_free_space(0), 8u); // 2 VCs x 4 flits
    Flit f;
    f.flow = 3;
    f.arrival_cycle = 1;
    h.net->router(1)
        .ingress_buffer(h.net->topology().port_to(1, 0), 0)
        .push(f);
    EXPECT_EQ(a.egress_free_space(0), 7u);
}

} // namespace
} // namespace hornet::net
