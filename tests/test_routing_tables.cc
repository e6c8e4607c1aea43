/**
 * @file
 * Tests for table-driven routing and the routing/VCA builders
 * (paper II-A2/3), including the paper's ROMM node-4 worked example.
 */
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "net/flow.h"
#include "net/network.h"
#include "net/routing/builders.h"
#include "net/routing/paths.h"
#include "net/routing_table.h"
#include "net/vca_builders.h"

namespace hornet::net {
namespace {

/** Owns the per-node RNG/stats a Network needs. */
struct NetHarness
{
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<std::unique_ptr<TileStats>> stats;
    std::unique_ptr<Network> net;

    NetHarness(const Topology &topo, NetworkConfig cfg = {})
    {
        std::vector<Rng *> rp;
        std::vector<TileStats *> sp;
        for (NodeId i = 0; i < topo.num_nodes(); ++i) {
            rngs.push_back(std::make_unique<Rng>(1000 + i));
            stats.push_back(std::make_unique<TileStats>());
            rp.push_back(rngs.back().get());
            sp.push_back(stats.back().get());
        }
        net = std::make_unique<Network>(topo, cfg, rp, sp);
    }

    /** Freeze every router's tables: reads need the frozen form. */
    void
    freeze()
    {
        for (NodeId i = 0; i < net->num_nodes(); ++i)
            net->router(i).freeze_tables();
    }
};

/**
 * Walk the routing tables from src like a packet would (weighted
 * random picks, flow renaming) and return the delivery node.
 */
NodeId
table_walk(Network &net, NodeId src, FlowId flow, Rng &rng,
           std::size_t max_steps = 1000)
{
    NodeId node = src;
    NodeId prev = src;
    FlowId f = flow;
    for (std::size_t i = 0; i < max_steps; ++i) {
        const RouteResult &r =
            net.router(node).routing_table().pick({prev, f}, rng);
        if (r.next_node == node)
            return node; // delivered to the CPU port
        prev = node;
        node = r.next_node;
        f = r.next_flow;
    }
    return kInvalidNode; // walked too long: broken table
}

// ---------------------------------------------------------------------
// RoutingTable container semantics
// ---------------------------------------------------------------------

TEST(RoutingTable, LookupMissingReturnsNull)
{
    RoutingTable t(3);
    t.freeze();
    EXPECT_EQ(t.lookup({0, 42}), nullptr);
}

TEST(RoutingTable, AddAccumulatesDuplicateOptions)
{
    RoutingTable t(0);
    t.add({0, 7}, RouteResult{1, 7, 1.0});
    t.add({0, 7}, RouteResult{1, 7, 2.0});
    t.freeze();
    const auto *opts = t.lookup({0, 7});
    ASSERT_NE(opts, nullptr);
    ASSERT_EQ(opts->size(), 1u);
    EXPECT_DOUBLE_EQ(opts->front().weight, 3.0);
}

TEST(RoutingTable, NonPositiveWeightRejected)
{
    RoutingTable t(0);
    EXPECT_THROW(t.add({0, 1}, RouteResult{1, 1, 0.0}), std::runtime_error);
}

TEST(RoutingTable, PickMissingPanics)
{
    RoutingTable t(0);
    t.freeze();
    Rng rng(1);
    EXPECT_THROW(t.pick({0, 1}, rng), std::logic_error);
}

TEST(RoutingTable, WeightedPickRespectsWeights)
{
    RoutingTable t(0);
    t.add({0, 1}, RouteResult{1, 1, 1.0});
    t.add({0, 1}, RouteResult{2, 1, 3.0});
    t.freeze();
    Rng rng(5);
    int to2 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        to2 += t.pick({0, 1}, rng).next_node == 2;
    EXPECT_NEAR(static_cast<double>(to2) / n, 0.75, 0.02);
}

// ---------------------------------------------------------------------
// Path helpers
// ---------------------------------------------------------------------

TEST(Paths, XyGoesXThenY)
{
    auto topo = Topology::mesh2d(3, 3);
    // Paper Fig 3a: node 6 -> 2 goes 6,7,8,5,2.
    auto p = routing::xy_path(topo, 6, 2);
    EXPECT_EQ(p, (std::vector<NodeId>{6, 7, 8, 5, 2}));
}

TEST(Paths, YxGoesYThenX)
{
    auto topo = Topology::mesh2d(3, 3);
    auto p = routing::yx_path(topo, 6, 2);
    EXPECT_EQ(p, (std::vector<NodeId>{6, 3, 0, 1, 2}));
}

TEST(Paths, XySingleNode)
{
    auto topo = Topology::mesh2d(3, 3);
    EXPECT_EQ(routing::xy_path(topo, 4, 4), std::vector<NodeId>{4});
}

TEST(Paths, ShortestPathOnRing)
{
    auto topo = Topology::ring(8);
    auto p = routing::shortest_path(topo, 0, 3);
    EXPECT_EQ(p.size(), 4u);
    EXPECT_EQ(p.front(), 0u);
    EXPECT_EQ(p.back(), 3u);
}

TEST(Paths, XyRequiresMesh)
{
    auto topo = Topology::ring(8);
    EXPECT_THROW(routing::xy_path(topo, 0, 3), std::runtime_error);
}

// ---------------------------------------------------------------------
// XY builder
// ---------------------------------------------------------------------

TEST(BuildXy, InstallsDeterministicRoute)
{
    NetHarness h(Topology::mesh2d(3, 3));
    std::vector<FlowSpec> flows{{100, 6, 2, 1.0}};
    routing::build_xy(*h.net, flows);
    h.freeze();

    Rng rng(9);
    // Every step has exactly one option; the walk ends at node 2.
    EXPECT_EQ(table_walk(*h.net, 6, 100, rng), 2u);
    const auto *opts = h.net->router(7).routing_table().lookup({6, 100});
    ASSERT_NE(opts, nullptr);
    ASSERT_EQ(opts->size(), 1u);
    EXPECT_EQ(opts->front().next_node, 8u);
}

TEST(BuildXy, SelfFlowDeliversLocally)
{
    NetHarness h(Topology::mesh2d(3, 3));
    std::vector<FlowSpec> flows{{5, 4, 4, 1.0}};
    routing::build_xy(*h.net, flows);
    h.freeze();
    Rng rng(2);
    EXPECT_EQ(table_walk(*h.net, 4, 5, rng), 4u);
}

TEST(BuildXy, AllPairsReachDestination)
{
    NetHarness h(Topology::mesh2d(4, 4));
    std::vector<FlowSpec> flows;
    for (NodeId s = 0; s < 16; ++s)
        for (NodeId d = 0; d < 16; ++d)
            flows.push_back({static_cast<FlowId>(s * 16 + d), s, d, 1.0});
    routing::build_xy(*h.net, flows);
    h.freeze();
    Rng rng(3);
    for (const auto &f : flows)
        ASSERT_EQ(table_walk(*h.net, f.src, f.id, rng), f.dst)
            << "flow " << f.id;
}

// ---------------------------------------------------------------------
// O1TURN builder
// ---------------------------------------------------------------------

TEST(BuildO1turn, SourceSplitsEvenlyBetweenPhases)
{
    NetHarness h(Topology::mesh2d(3, 3));
    std::vector<FlowSpec> flows{{100, 6, 2, 1.0}};
    routing::build_o1turn(*h.net, flows);
    h.freeze();

    const auto *opts = h.net->router(6).routing_table().lookup({6, 100});
    ASSERT_NE(opts, nullptr);
    ASSERT_EQ(opts->size(), 2u);
    double w1 = 0, w2 = 0;
    for (const auto &o : *opts) {
        if (flowid::phase_of(o.next_flow) == 1) {
            EXPECT_EQ(o.next_node, 7u); // XY first hop
            w1 = o.weight;
        } else {
            EXPECT_EQ(o.next_node, 3u); // YX first hop
            w2 = o.weight;
        }
    }
    EXPECT_DOUBLE_EQ(w1, w2);
}

TEST(BuildO1turn, WalksDeliverOnBothSubroutes)
{
    NetHarness h(Topology::mesh2d(4, 4));
    std::vector<FlowSpec> flows{{7, 0, 15, 1.0}};
    routing::build_o1turn(*h.net, flows);
    h.freeze();
    Rng rng(11);
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(table_walk(*h.net, 0, 7, rng), 15u);
}

TEST(BuildO1turn, DegenerateRowStillDelivers)
{
    NetHarness h(Topology::mesh2d(4, 4));
    std::vector<FlowSpec> flows{{7, 0, 3, 1.0}}; // same row
    routing::build_o1turn(*h.net, flows);
    h.freeze();
    Rng rng(13);
    for (int i = 0; i < 50; ++i)
        ASSERT_EQ(table_walk(*h.net, 0, 7, rng), 3u);
}

// ---------------------------------------------------------------------
// ROMM builder — including the paper's worked example at node 4.
// ---------------------------------------------------------------------

TEST(BuildRomm, PaperNode4Example)
{
    // Paper II-A2: flow from node 6 to node 2 on a 3x3 mesh. At node 4:
    //  - arriving from node 3 must already be in phase 2 and can only
    //    continue to node 5;
    //  - arriving from node 7 in phase 1 goes to node 1 (still phase 1)
    //    or to node 5 (renamed to phase 2) with equal probability.
    NetHarness h(Topology::mesh2d(3, 3));
    const FlowId f = 100;
    std::vector<FlowSpec> flows{{f, 6, 2, 1.0}};
    routing::build_romm(*h.net, flows);
    h.freeze();
    const FlowId ph1 = flowid::with_phase(f, 1);
    const FlowId ph2 = flowid::with_phase(f, 2);

    const auto *from7 = h.net->router(4).routing_table().lookup({7, ph1});
    ASSERT_NE(from7, nullptr);
    ASSERT_EQ(from7->size(), 2u);
    double w_to1 = -1, w_to5 = -1;
    for (const auto &o : *from7) {
        if (o.next_node == 1) {
            EXPECT_EQ(o.next_flow, ph1);
            w_to1 = o.weight;
        } else if (o.next_node == 5) {
            EXPECT_EQ(o.next_flow, ph2);
            w_to5 = o.weight;
        } else {
            FAIL() << "unexpected next hop " << o.next_node;
        }
    }
    EXPECT_DOUBLE_EQ(w_to1, w_to5); // equal probability, as in the paper

    const auto *from3 = h.net->router(4).routing_table().lookup({3, ph2});
    ASSERT_NE(from3, nullptr);
    ASSERT_EQ(from3->size(), 1u);
    EXPECT_EQ(from3->front().next_node, 5u);
    EXPECT_EQ(from3->front().next_flow, ph2);
}

TEST(BuildRomm, WalksAlwaysDeliver)
{
    NetHarness h(Topology::mesh2d(4, 4));
    std::vector<FlowSpec> flows{{3, 1, 14, 1.0}, {4, 15, 0, 1.0}};
    routing::build_romm(*h.net, flows);
    h.freeze();
    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
        ASSERT_EQ(table_walk(*h.net, 1, 3, rng), 14u);
        ASSERT_EQ(table_walk(*h.net, 15, 4, rng), 0u);
    }
}

TEST(BuildRomm, PathsStayInMinimumRectangle)
{
    auto topo = Topology::mesh2d(5, 5);
    NetHarness h(topo);
    const FlowId f = 9;
    const NodeId src = topo.node_at(1, 1), dst = topo.node_at(3, 2);
    std::vector<FlowSpec> flows{{f, src, dst, 1.0}};
    routing::build_romm(*h.net, flows);
    h.freeze();
    Rng rng(19);
    for (int trial = 0; trial < 200; ++trial) {
        NodeId node = src, prev = src;
        FlowId fl = f;
        for (int step = 0; step < 100; ++step) {
            ASSERT_GE(topo.x_of(node), 1u);
            ASSERT_LE(topo.x_of(node), 3u);
            ASSERT_GE(topo.y_of(node), 1u);
            ASSERT_LE(topo.y_of(node), 2u);
            const auto &r =
                h.net->router(node).routing_table().pick({prev, fl}, rng);
            if (r.next_node == node)
                break;
            prev = node;
            node = r.next_node;
            fl = r.next_flow;
        }
        ASSERT_EQ(node, dst);
    }
}

TEST(BuildValiant, WalksDeliverAndLeaveRectangle)
{
    auto topo = Topology::mesh2d(4, 4);
    NetHarness h(topo);
    const FlowId f = 9;
    std::vector<FlowSpec> flows{{f, 5, 6, 1.0}}; // adjacent pair
    routing::build_valiant(*h.net, flows);
    h.freeze();
    Rng rng(23);
    bool left_rect = false;
    for (int i = 0; i < 400; ++i) {
        NodeId node = 5, prev = 5;
        FlowId fl = f;
        for (int step = 0; step < 200; ++step) {
            const auto &r =
                h.net->router(node).routing_table().pick({prev, fl}, rng);
            if (r.next_node == node)
                break;
            prev = node;
            node = r.next_node;
            fl = r.next_flow;
            if (topo.y_of(node) != topo.y_of(5) &&
                topo.y_of(node) != topo.y_of(6))
                left_rect = true;
        }
        ASSERT_EQ(node, 6u);
    }
    // Valiant picks intermediates over the whole mesh, so some walks
    // must leave the minimal rectangle (unlike ROMM).
    EXPECT_TRUE(left_rect);
}

// ---------------------------------------------------------------------
// PROM builder
// ---------------------------------------------------------------------

TEST(BuildProm, WeightsCountRemainingPaths)
{
    NetHarness h(Topology::mesh2d(3, 3));
    const FlowId f = 4;
    std::vector<FlowSpec> flows{{f, 0, 8, 1.0}}; // (0,0) -> (2,2)
    routing::build_prom(*h.net, flows);
    h.freeze();
    // At the source: 6 minimal paths total, 3 through each direction.
    const auto *opts = h.net->router(0).routing_table().lookup({0, f});
    ASSERT_NE(opts, nullptr);
    ASSERT_EQ(opts->size(), 2u);
    EXPECT_DOUBLE_EQ((*opts)[0].weight, 3.0);
    EXPECT_DOUBLE_EQ((*opts)[1].weight, 3.0);
}

TEST(BuildProm, WalksDeliverMinimally)
{
    auto topo = Topology::mesh2d(5, 4);
    NetHarness h(topo);
    const FlowId f = 6;
    const NodeId src = topo.node_at(4, 3), dst = topo.node_at(1, 0);
    std::vector<FlowSpec> flows{{f, src, dst, 1.0}};
    routing::build_prom(*h.net, flows);
    h.freeze();
    Rng rng(29);
    const std::uint32_t min_hops = topo.hop_distance(src, dst);
    for (int i = 0; i < 200; ++i) {
        NodeId node = src, prev = src;
        FlowId fl = f;
        std::uint32_t hops = 0;
        while (true) {
            const auto &r =
                h.net->router(node).routing_table().pick({prev, fl}, rng);
            if (r.next_node == node)
                break;
            prev = node;
            node = r.next_node;
            fl = r.next_flow;
            ++hops;
            ASSERT_LE(hops, min_hops);
        }
        ASSERT_EQ(node, dst);
        ASSERT_EQ(hops, min_hops); // minimal routing
    }
}

// ---------------------------------------------------------------------
// Shortest-path and static-greedy builders
// ---------------------------------------------------------------------

TEST(BuildShortest, WorksOnRingAndTorus)
{
    for (auto topo : {Topology::ring(9), Topology::torus2d(4, 4)}) {
        NetHarness h(topo);
        std::vector<FlowSpec> flows;
        for (NodeId s = 0; s < topo.num_nodes(); ++s)
            flows.push_back({static_cast<FlowId>(s), s,
                             (s + topo.num_nodes() / 2) %
                                 topo.num_nodes(),
                             1.0});
        routing::build_shortest(*h.net, flows);
        h.freeze();
        Rng rng(31);
        for (const auto &fl : flows)
            ASSERT_EQ(table_walk(*h.net, fl.src, fl.id, rng), fl.dst);
    }
}

TEST(BuildShortest, WorksOnMultilayerMesh)
{
    auto topo = Topology::mesh3d(3, 3, 2, LayerStyle::X1);
    NetHarness h(topo);
    std::vector<FlowSpec> flows{{1, topo.node_at(2, 2, 0),
                                 topo.node_at(2, 2, 1), 1.0}};
    routing::build_shortest(*h.net, flows);
    h.freeze();
    Rng rng(37);
    EXPECT_EQ(table_walk(*h.net, flows[0].src, 1, rng), flows[0].dst);
}

TEST(BuildStaticGreedy, SpreadsLoadAcrossPaths)
{
    // Many flows between the same endpoints: the greedy builder should
    // not put them all on one path (it raises the cost of used links).
    auto topo = Topology::mesh2d(4, 4);
    NetHarness h(topo);
    std::vector<FlowSpec> flows;
    for (FlowId i = 0; i < 6; ++i)
        flows.push_back({i, 0, 15, 1.0});
    routing::build_static_greedy(*h.net, flows, 2.0);
    h.freeze();
    Rng rng(41);
    // All delivered...
    for (const auto &fl : flows)
        ASSERT_EQ(table_walk(*h.net, 0, fl.id, rng), 15u);
    // ...and at least two distinct first hops are in use.
    std::set<NodeId> first_hops;
    for (const auto &fl : flows) {
        const auto *opts =
            h.net->router(0).routing_table().lookup({0, fl.id});
        ASSERT_NE(opts, nullptr);
        first_hops.insert(opts->front().next_node);
    }
    EXPECT_GE(first_hops.size(), 2u);
}

// ---------------------------------------------------------------------
// VCA builders
// ---------------------------------------------------------------------

TEST(VcaBuilders, PhaseSplitSeparatesO1turnSubroutes)
{
    net::NetworkConfig cfg;
    cfg.router.net_vcs = 4;
    NetHarness h(Topology::mesh2d(3, 3), cfg);
    std::vector<FlowSpec> flows{{100, 6, 2, 1.0}};
    routing::build_o1turn(*h.net, flows);
    vca::build_phase_split(*h.net);
    h.freeze();

    const FlowId ph1 = flowid::with_phase(FlowId{100}, 1);
    const FlowId ph2 = flowid::with_phase(FlowId{100}, 2);
    // Injection step at node 6 toward 7 is phase 1: VCs {0,1}.
    const auto *v1 = h.net->router(6).vca_table().lookup(
        VcaKey{6, 100, 7, ph1});
    ASSERT_NE(v1, nullptr);
    ASSERT_EQ(v1->size(), 2u);
    for (const auto &o : *v1)
        EXPECT_LT(o.vc, 2u);
    // Injection toward 3 is phase 2 (YX): VCs {2,3}.
    const auto *v2 = h.net->router(6).vca_table().lookup(
        VcaKey{6, 100, 3, ph2});
    ASSERT_NE(v2, nullptr);
    for (const auto &o : *v2)
        EXPECT_GE(o.vc, 2u);
}

TEST(VcaBuilders, PhaseSplitNeedsTwoVcs)
{
    net::NetworkConfig cfg;
    cfg.router.net_vcs = 1;
    NetHarness h(Topology::mesh2d(3, 3), cfg);
    std::vector<FlowSpec> flows{{100, 6, 2, 1.0}};
    routing::build_o1turn(*h.net, flows);
    EXPECT_THROW(vca::build_phase_split(*h.net), std::runtime_error);
}

TEST(VcaBuilders, StaticSetPinsFlowToOneVc)
{
    net::NetworkConfig cfg;
    cfg.router.net_vcs = 4;
    NetHarness h(Topology::mesh2d(3, 3), cfg);
    std::vector<FlowSpec> flows{{101, 6, 2, 1.0}};
    routing::build_xy(*h.net, flows);
    vca::build_static_set(*h.net);
    h.freeze();
    const auto *v = h.net->router(6).vca_table().lookup(
        VcaKey{6, 101, 7, 101});
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(v->size(), 1u);
    EXPECT_EQ(v->front().vc, 101u % 4u);
}

TEST(VcaBuilders, DeliveryHopsStayDynamic)
{
    net::NetworkConfig cfg;
    cfg.router.net_vcs = 4;
    NetHarness h(Topology::mesh2d(3, 3), cfg);
    std::vector<FlowSpec> flows{{100, 6, 2, 1.0}};
    routing::build_o1turn(*h.net, flows);
    vca::build_phase_split(*h.net);
    h.freeze();
    // The delivery entry (next == self) must not be constrained.
    const FlowId ph1 = flowid::with_phase(FlowId{100}, 1);
    EXPECT_EQ(h.net->router(2).vca_table().lookup(VcaKey{5, ph1, 2, 100}),
              nullptr);
}

} // namespace
} // namespace hornet::net
