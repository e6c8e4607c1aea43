/**
 * @file
 * Network-assembly and bidirectional-link unit tests: wiring checks,
 * the pooled-link split policy (paper II-A4), demand publication, and
 * the sanity of the paper's Table-I port configuration options.
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

TEST(Network, BidirectionalLinksPoolBothEndsOfEveryEdge)
{
    auto topo = Topology::mesh2d(3, 3);
    for (bool bidir : {false, true}) {
        NetworkConfig cfg;
        cfg.bidirectional_links = bidir;
        Harness h(topo, cfg);
        std::size_t pooled = 0;
        for (NodeId n = 0; n < topo.num_nodes(); ++n) {
            const Router &r = h.net->router(n);
            for (PortId p = 0; p < r.num_net_ports(); ++p) {
                EXPECT_EQ(r.egress_pooled(p), bidir);
                pooled += r.egress_pooled(p) ? 1 : 0;
            }
            EXPECT_FALSE(r.egress_pooled(r.cpu_port()));
        }
        // One pooled port at each end of every physical link.
        EXPECT_EQ(pooled, bidir ? 2 * topo.num_links() : 0u);
    }
}

/** One packet of @p n flits on flow @p flow from @p src to @p dst,
 *  pushed into @p r's injection VC 0, visible at cycle @p at. */
void
inject_packet(Router &r, FlowId flow, NodeId src, NodeId dst,
              std::uint32_t n, PacketId packet, Cycle at)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        Flit f;
        f.flow = flow;
        f.original_flow = flow;
        f.packet = packet;
        f.src = src;
        f.dst = dst;
        f.seq = i;
        f.packet_size = n;
        f.head = i == 0;
        f.tail = i == n - 1;
        f.arrival_cycle = at;
        r.injection_buffer(0).push(f);
    }
}

TEST(LinkSplit, IdleLinkSplitsEvenly)
{
    EXPECT_EQ(link_split(0, 0, 2), 1u);
    NetworkConfig cfg;
    cfg.bidirectional_links = true;
    cfg.router.link_bandwidth = 1; // pooled: 2
    Harness h(Topology::mesh2d(2, 1), cfg);
    Router &a = h.net->router(0);
    Router &b = h.net->router(1);
    // Nothing was published for the previous cycle: both ends take
    // half the pool, the construction-time bandwidth.
    a.posedge(0);
    b.posedge(0);
    EXPECT_EQ(a.egress_bandwidth(0) + b.egress_bandwidth(0), 2u);
    EXPECT_EQ(a.egress_bandwidth(0), 1u);
}

TEST(LinkSplit, AsymmetricDemandGetsFullPool)
{
    // Stream a packet from A toward B: once A publishes demand and B
    // publishes none, both ends give A's direction the whole pool.
    NetworkConfig cfg;
    cfg.bidirectional_links = true;
    auto topo = Topology::mesh2d(2, 1);
    Harness h(topo, cfg);
    routing::build_xy(*h.net, {{1, 0, 1, 1.0}});
    for (NodeId n = 0; n < topo.num_nodes(); ++n)
        h.net->router(n).freeze_tables(); // routers read frozen tables

    Router &a = h.net->router(0);
    Router &b = h.net->router(1);
    inject_packet(a, 1, 0, 1, 4, 7, 1);
    // Cycle 1: RC/VA; cycle 2: SA/ST begins -> demand published.
    a.posedge(1);
    a.negedge(1);
    a.posedge(2);
    EXPECT_GT(a.published_demand(0, 2), 0u);
    // A word stamped 2 answers for cycle 2 only.
    EXPECT_EQ(a.published_demand(0, 0), 0u);
    a.negedge(2);
    // B was not ticked at cycle 2: its word reads 0, as an idle
    // router's would.
    a.posedge(3);
    b.posedge(3);
    EXPECT_EQ(a.egress_bandwidth(0), 2u);
    EXPECT_EQ(b.egress_bandwidth(0), 0u);
}

TEST(LinkSplit, BothEndsAgreeOnTheSplit)
{
    // Packets stream both ways over one pooled link of 6 flits/cycle:
    // every cycle the two ends' shares add up to the pool, and a
    // loaded direction always keeps at least one flit/cycle.
    for (std::uint32_t d_low = 0; d_low < 8; ++d_low)
        for (std::uint32_t d_high = 0; d_high < 8; ++d_high) {
            const std::uint32_t s = link_split(d_low, d_high, 6);
            EXPECT_LE(s, 6u);
            if (d_low != 0)
                EXPECT_GE(s, 1u);
            if (d_high != 0)
                EXPECT_LE(s, 5u);
        }

    NetworkConfig cfg;
    cfg.bidirectional_links = true;
    cfg.router.link_bandwidth = 3;
    auto topo = Topology::mesh2d(2, 1);
    Harness h(topo, cfg);
    routing::build_xy(*h.net, {{1, 0, 1, 1.0}, {2, 1, 0, 1.0}});
    for (NodeId n = 0; n < topo.num_nodes(); ++n)
        h.net->router(n).freeze_tables();
    Router &a = h.net->router(0);
    Router &b = h.net->router(1);
    inject_packet(a, 1, 0, 1, 8, 1, 1);
    inject_packet(b, 2, 1, 0, 2, 2, 1);
    bool both_loaded = false;
    for (Cycle c = 1; c <= 12; ++c) {
        a.posedge(c);
        b.posedge(c);
        EXPECT_EQ(a.egress_bandwidth(0) + b.egress_bandwidth(0), 6u)
            << "cycle " << c;
        both_loaded |= a.published_demand(0, c) != 0 &&
                       b.published_demand(0, c) != 0;
        a.negedge(c);
        b.negedge(c);
    }
    EXPECT_TRUE(both_loaded);
}

TEST(Router, ResetClearsPublishedDemand)
{
    // A rerun restarts the clock at 0, so a demand word kept from the
    // previous run would carry a stamp the new run reaches again.
    NetworkConfig cfg;
    cfg.bidirectional_links = true;
    cfg.router.cpu_vcs = 1;
    auto topo = Topology::mesh2d(2, 1);
    Harness h(topo, cfg);
    routing::build_xy(*h.net, {{1, 0, 1, 1.0}});
    for (NodeId n = 0; n < topo.num_nodes(); ++n)
        h.net->router(n).freeze_tables();
    Router &a = h.net->router(0);
    Router &b = h.net->router(1);
    inject_packet(a, 1, 0, 1, 1, 7, 1);
    for (Cycle c = 1; c <= 4; ++c) {
        a.posedge(c);
        b.posedge(c);
        a.negedge(c);
        b.negedge(c);
    }
    ASSERT_GT(a.published_demand(0, 2), 0u);
    // Drain the delivered flit so the routers may be reset.
    ASSERT_EQ(b.ejection_buffer(0).size_raw(), 1u);
    b.pop_ejection(0);
    b.ejection_buffer(0).commit_negedge();
    ASSERT_FALSE(h.net->has_buffered_flits());

    a.reset_run_state();
    b.reset_run_state();
    EXPECT_EQ(a.published_demand(0, 2), 0u);
    // The rerun's cycle 3 must see an idle link, not cycle 2's demand.
    a.posedge(3);
    b.posedge(3);
    EXPECT_EQ(a.egress_bandwidth(0), 1u);
    EXPECT_EQ(b.egress_bandwidth(0), 1u);
}

TEST(Router, UnpooledPortsPublishNoDemand)
{
    // Only a pooled port publishes demand and takes a share of a
    // link, so posedge leaves that seam alone on every other port:
    // with unidirectional links the demand stays 0 and the bandwidth
    // the configured one while a packet streams out.
    NetworkConfig cfg;
    cfg.router.link_bandwidth = 3;
    auto topo = Topology::mesh2d(2, 1);
    Harness h(topo, cfg);
    ASSERT_FALSE(h.net->router(0).egress_pooled(0));
    routing::build_xy(*h.net, {{1, 0, 1, 1.0}});
    for (NodeId n = 0; n < topo.num_nodes(); ++n)
        h.net->router(n).freeze_tables();

    Router &a = h.net->router(0);
    inject_packet(a, 1, 0, 1, 4, 7, 1);
    Router &b = h.net->router(1);
    const PortId toward_a = topo.port_to(1, 0);
    for (Cycle c = 1; c <= 6; ++c) {
        a.posedge(c);
        for (PortId e = 0; e <= a.cpu_port(); ++e) {
            EXPECT_EQ(a.published_demand(e, c), 0u) << "cycle " << c;
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

TEST(LinkSplit, ZeroBandwidthRejected)
{
    EXPECT_THROW(link_pool(0), std::runtime_error);
    NetworkConfig cfg;
    cfg.bidirectional_links = true;
    cfg.router.link_bandwidth = 0;
    EXPECT_THROW(Harness(Topology::mesh2d(2, 1), cfg),
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
