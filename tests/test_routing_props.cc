/**
 * @file
 * Property tests for the oblivious routing builders (ISSUE 7
 * satellite): on randomized mesh topologies and random flows,
 * O1TURN/ROMM/PROM table walks must deliver on *minimal* paths (every
 * hop a neighbor strictly decreasing the Manhattan distance — which
 * also rules out cycles, the deadlock-safety proxy for table walks),
 * O1TURN walks must realize exactly the XY or YX subroute, and table
 * construction must be deterministic: two networks built from the
 * same seeds route identically pick-for-pick.
 *
 * Complements tests/test_routing_tables.cc (hand-picked worked
 * examples, e.g. the paper's ROMM node-4 case) with randomized
 * coverage.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "net/flow.h"
#include "net/network.h"
#include "net/routing/builders.h"
#include "net/routing/paths.h"
#include "net/routing_table.h"
#include "net/topology.h"
#include "traffic/flows.h"

namespace hornet::net {
namespace {

/** Owns the per-node RNG/stats a Network needs. */
struct NetHarness
{
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<std::unique_ptr<TileStats>> stats;
    std::unique_ptr<Network> net;

    explicit NetHarness(const Topology &topo, NetworkConfig cfg = {})
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

/** Tiny deterministic generator for the property sweep itself. */
struct Draw
{
    std::uint64_t s;
    explicit Draw(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    operator()()
    {
        s += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t
    below(std::uint64_t n)
    {
        return (*this)() % n;
    }
};

std::uint32_t
manhattan(const Topology &topo, NodeId a, NodeId b)
{
    const std::uint32_t w = topo.width();
    const auto ax = a % w, ay = a / w, bx = b % w, by = b / w;
    return (ax > bx ? ax - bx : bx - ax) + (ay > by ? ay - by : by - ay);
}

/**
 * Walk the routing tables from @p src like a head flit of @p flow
 * bound for @p dst would (RoutingTable::route, weighted random picks,
 * flow renaming) and return the realized node path, ending at the
 * delivery node. Fails the walk (short path, no delivery sentinel)
 * after @p max_steps.
 */
std::vector<NodeId>
walk_path(Network &net, NodeId src, FlowId flow, NodeId dst, Rng &rng,
          std::size_t max_steps = 200)
{
    std::vector<NodeId> path{src};
    NodeId node = src;
    NodeId prev = src;
    FlowId f = flow;
    for (std::size_t i = 0; i < max_steps; ++i) {
        const RouteResult &r =
            net.router(node).routing_table().pick(prev, f, dst, rng);
        if (r.next_node == node)
            return path; // delivered to the CPU port
        prev = node;
        node = r.next_node;
        if (r.next_flow != kKeepFlow)
            f = r.next_flow;
        path.push_back(node);
    }
    return path;
}

/** Random (src, dst) flows on @p nodes, src != dst. */
std::vector<FlowSpec>
random_flows(Draw &d, std::uint32_t nodes, std::size_t count)
{
    std::vector<FlowSpec> flows;
    for (std::size_t i = 0; i < count; ++i) {
        const NodeId s = static_cast<NodeId>(d.below(nodes));
        NodeId t = static_cast<NodeId>(d.below(nodes - 1));
        if (t >= s)
            ++t;
        // flows_for_pattern-style: at most one flow per (src, dst)
        // pair; duplicates would accumulate builder weights.
        const FlowId id = traffic::pair_flow(s, t);
        bool dup = false;
        for (const auto &fl : flows)
            dup = dup || fl.id == id;
        if (!dup)
            flows.push_back({id, s, t, 1.0});
    }
    return flows;
}

/** Assert every hop of @p path is a strict Manhattan step toward
 *  @p dst, and the path is exactly minimal. */
void
expect_minimal(const Topology &topo, const std::vector<NodeId> &path,
               NodeId src, NodeId dst)
{
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), src);
    ASSERT_EQ(path.back(), dst) << "walk did not deliver";
    ASSERT_EQ(path.size(), manhattan(topo, src, dst) + 1u)
        << "path not minimal";
    for (std::size_t i = 1; i < path.size(); ++i) {
        EXPECT_EQ(manhattan(topo, path[i - 1], path[i]), 1u)
            << "hop " << i << " not a neighbor step";
        EXPECT_EQ(manhattan(topo, path[i], dst),
                  manhattan(topo, path[i - 1], dst) - 1)
            << "hop " << i << " moves away from the destination";
    }
}

using Builder = void (*)(Network &, const std::vector<FlowSpec> &);

/** Randomized-topology minimality sweep shared by the three schemes. */
void
sweep_minimal(Builder build, std::uint64_t salt)
{
    Draw d(salt);
    for (int topo_case = 0; topo_case < 6; ++topo_case) {
        const std::uint32_t w = static_cast<std::uint32_t>(2 + d.below(5));
        const std::uint32_t h = static_cast<std::uint32_t>(2 + d.below(5));
        const Topology topo = Topology::mesh2d(w, h);
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        NetHarness net(topo);
        const auto flows = random_flows(d, w * h, 10);
        build(*net.net, flows);
        net.freeze();
        for (const auto &fl : flows)
            for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                SCOPED_TRACE("flow " + std::to_string(fl.id) +
                             " seed " + std::to_string(seed));
                Rng rng(seed);
                expect_minimal(
                    topo, walk_path(*net.net, fl.src, fl.id, fl.dst, rng),
                    fl.src, fl.dst);
            }
    }
}

TEST(RoutingProps, O1turnWalksAreMinimal)
{
    sweep_minimal(&routing::build_o1turn, 0xa1);
}

TEST(RoutingProps, RommWalksAreMinimal)
{
    sweep_minimal(&routing::build_romm, 0xb2);
}

TEST(RoutingProps, PromWalksAreMinimal)
{
    sweep_minimal(&routing::build_prom, 0xc3);
}

TEST(RoutingProps, O1turnRealizesExactlyXyOrYxSubroutes)
{
    Draw d(0xd4);
    for (int topo_case = 0; topo_case < 4; ++topo_case) {
        const std::uint32_t w = static_cast<std::uint32_t>(2 + d.below(5));
        const std::uint32_t h = static_cast<std::uint32_t>(2 + d.below(5));
        const Topology topo = Topology::mesh2d(w, h);
        NetHarness net(topo);
        const auto flows = random_flows(d, w * h, 8);
        routing::build_o1turn(*net.net, flows);
        net.freeze();
        for (const auto &fl : flows) {
            const auto xy = routing::xy_path(topo, fl.src, fl.dst);
            const auto yx = routing::yx_path(topo, fl.src, fl.dst);
            bool saw_xy = false, saw_yx = false;
            for (std::uint64_t seed = 1; seed <= 32; ++seed) {
                Rng rng(seed);
                const auto p =
                    walk_path(*net.net, fl.src, fl.id, fl.dst, rng);
                EXPECT_TRUE(p == xy || p == yx)
                    << "walk is neither the XY nor the YX subroute";
                saw_xy = saw_xy || p == xy;
                saw_yx = saw_yx || p == yx;
            }
            // Both subroutes carry equal weight: 32 draws miss one
            // only with probability 2^-31 (when they differ at all).
            if (xy != yx) {
                EXPECT_TRUE(saw_xy) << "XY subroute never drawn";
                EXPECT_TRUE(saw_yx) << "YX subroute never drawn";
            }
        }
    }
}

/** Same seeds, two networks: pick-for-pick identical routing. ROMM
 *  draws its intermediates from the node RNGs at build time, so this
 *  pins construction determinism, not just table lookup. */
void
sweep_deterministic(Builder build, std::uint64_t salt)
{
    Draw d(salt);
    const std::uint32_t w = static_cast<std::uint32_t>(3 + d.below(3));
    const std::uint32_t h = static_cast<std::uint32_t>(3 + d.below(3));
    const Topology topo = Topology::mesh2d(w, h);
    NetHarness a(topo);
    NetHarness b(topo);
    const auto flows = random_flows(d, w * h, 12);
    build(*a.net, flows);
    build(*b.net, flows);
    a.freeze();
    b.freeze();
    for (const auto &fl : flows)
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            Rng ra(seed), rb(seed);
            EXPECT_EQ(walk_path(*a.net, fl.src, fl.id, fl.dst, ra),
                      walk_path(*b.net, fl.src, fl.id, fl.dst, rb))
                << "flow " << fl.id << " seed " << seed;
        }
}

TEST(RoutingProps, O1turnConstructionIsDeterministic)
{
    sweep_deterministic(&routing::build_o1turn, 0xe5);
}

TEST(RoutingProps, RommConstructionIsDeterministic)
{
    sweep_deterministic(&routing::build_romm, 0xf6);
}

TEST(RoutingProps, PromConstructionIsDeterministic)
{
    sweep_deterministic(&routing::build_prom, 0x17);
}

// ---------------------------------------------------------------------
// Destination-keyed builders: build_xy and build_prom install one entry
// per (node, prev, destination). Every flow must still see, step by
// step, exactly the route and option lists a per-flow install gives.
// ---------------------------------------------------------------------

/** Every ordered (src, dst) pair of @p nodes, local delivery included. */
std::vector<FlowSpec>
every_pair(std::uint32_t nodes)
{
    std::vector<FlowSpec> flows;
    for (NodeId s = 0; s < nodes; ++s)
        for (NodeId t = 0; t < nodes; ++t)
            flows.push_back({traffic::pair_flow(s, t), s, t, 1.0});
    return flows;
}

/** The meshes of the destination-keyed equivalence sweeps: square,
 *  oblong, and both one-dimensional lines. */
std::vector<Topology>
equivalence_meshes()
{
    return {Topology::mesh2d(4, 4), Topology::mesh2d(5, 3),
            Topology::mesh2d(1, 6), Topology::mesh2d(6, 1)};
}

TEST(RoutingProps, XyDestinationEntriesMatchFlowKeyedInstall)
{
    for (const Topology &topo : equivalence_meshes()) {
        SCOPED_TRACE(std::to_string(topo.width()) + "x" +
                     std::to_string(topo.height()));
        const auto flows = every_pair(topo.num_nodes());
        NetHarness dst_keyed(topo);
        routing::build_xy(*dst_keyed.net, flows);
        // Reference: the per-flow install, one entry per flow and hop.
        NetHarness flow_keyed(topo);
        for (const auto &fl : flows)
            routing::install_single_phase_path(
                *flow_keyed.net, routing::xy_path(topo, fl.src, fl.dst),
                fl.id, 0, 1.0);
        dst_keyed.freeze();
        flow_keyed.freeze();

        for (const auto &fl : flows) {
            std::vector<NodeId> path{fl.src};
            NodeId node = fl.src, prev = fl.src;
            for (std::size_t step = 0; step <= topo.num_nodes(); ++step) {
                const auto &got = dst_keyed.net->router(node)
                                      .routing_table()
                                      .route(prev, fl.id, fl.dst);
                const auto &want = flow_keyed.net->router(node)
                                       .routing_table()
                                       .route(prev, fl.id, fl.dst);
                ASSERT_EQ(got.size(), want.size());
                ASSERT_EQ(got.size(), 1u);
                EXPECT_EQ(got[0].next_node, want[0].next_node);
                EXPECT_EQ(got[0].weight, want[0].weight);
                EXPECT_EQ(got[0].next_flow, kKeepFlow);
                EXPECT_EQ(want[0].next_flow, fl.id); // never renamed
                if (got[0].next_node == node)
                    break;
                prev = node;
                node = got[0].next_node;
                path.push_back(node);
            }
            EXPECT_EQ(path, routing::xy_path(topo, fl.src, fl.dst))
                << "flow " << fl.src << " -> " << fl.dst;
        }
        for (NodeId n = 0; n < topo.num_nodes(); ++n)
            EXPECT_EQ(dst_keyed.net->router(n).routing_table().flow_keys(),
                      0u);
    }
}

/** C(n, k), the reference count of minimal paths. */
double
choose(std::uint32_t n, std::uint32_t k)
{
    double r = 1.0;
    for (std::uint32_t i = 1; i <= k; ++i)
        r = r * static_cast<double>(n - k + i) / static_cast<double>(i);
    return r;
}

/**
 * Visit every minimal path of a PROM flow from (@p node, @p prev),
 * checking each step's options against the binomial weights of a
 * per-flow install: the x-step first, weighted by the minimal paths
 * through it, then the y-step. Returns the number of paths delivered.
 */
std::uint64_t
check_prom_paths(Network &net, NodeId node, NodeId prev,
                 const FlowSpec &fl)
{
    const Topology &topo = net.topology();
    const auto &opts =
        net.router(node).routing_table().route(prev, fl.id, fl.dst);
    const std::uint32_t ux = topo.x_of(node), uy = topo.y_of(node);
    const std::uint32_t dx = topo.x_of(fl.dst), dy = topo.y_of(fl.dst);
    const std::uint32_t rx = ux > dx ? ux - dx : dx - ux;
    const std::uint32_t ry = uy > dy ? uy - dy : dy - uy;
    std::vector<RouteResult> want;
    if (rx == 0 && ry == 0)
        want.push_back({node, kKeepFlow, 1.0});
    if (rx > 0)
        want.push_back({topo.node_at(ux < dx ? ux + 1 : ux - 1, uy),
                        kKeepFlow, choose(rx - 1 + ry, ry)});
    if (ry > 0)
        want.push_back({topo.node_at(ux, uy < dy ? uy + 1 : uy - 1),
                        kKeepFlow, choose(rx + ry - 1, rx)});
    EXPECT_EQ(std::vector<RouteResult>(opts.begin(), opts.end()), want)
        << "at node " << node << " from " << prev << " for flow "
        << fl.src << " -> " << fl.dst;
    if (want.front().next_node == node)
        return 1;
    std::uint64_t paths = 0;
    for (const RouteResult &o : opts)
        paths += check_prom_paths(net, o.next_node, node, fl);
    return paths;
}

TEST(RoutingProps, PromDestinationEntriesMatchFlowKeyedWeights)
{
    for (const Topology &topo : equivalence_meshes()) {
        SCOPED_TRACE(std::to_string(topo.width()) + "x" +
                     std::to_string(topo.height()));
        const auto flows = every_pair(topo.num_nodes());
        NetHarness net(topo);
        routing::build_prom(*net.net, flows);
        net.freeze();
        for (const auto &fl : flows) {
            const std::uint32_t sx = topo.x_of(fl.src);
            const std::uint32_t sy = topo.y_of(fl.src);
            const std::uint32_t dx = topo.x_of(fl.dst);
            const std::uint32_t dy = topo.y_of(fl.dst);
            const std::uint32_t span_x = sx > dx ? sx - dx : dx - sx;
            const std::uint32_t span_y = sy > dy ? sy - dy : dy - sy;
            EXPECT_EQ(check_prom_paths(*net.net, fl.src, fl.src, fl),
                      static_cast<std::uint64_t>(
                          choose(span_x + span_y, span_x)));
        }
    }
}

// ---------------------------------------------------------------------
// Indirect topologies (ISSUE 10): fat tree and dragonfly host-to-host
// routing over switch-only transit nodes, plus build_shortest on every
// geometry it claims to support.
// ---------------------------------------------------------------------

/** Assert @p path walks real links from @p src to delivery at @p dst,
 *  with every hop a topology edge (rules out teleporting tables). */
void
expect_valid_walk(const Topology &topo, const std::vector<NodeId> &path,
                  NodeId src, NodeId dst)
{
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), src);
    ASSERT_EQ(path.back(), dst) << "walk did not deliver";
    for (std::size_t i = 1; i < path.size(); ++i)
        ASSERT_TRUE(topo.adjacent(path[i - 1], path[i]))
            << "hop " << path[i - 1] << " -> " << path[i]
            << " is not a link";
}

/** Random host-to-host flows (src != dst) for switch topologies. */
std::vector<FlowSpec>
random_host_flows(Draw &d, const std::vector<NodeId> &hosts,
                  std::size_t count)
{
    std::vector<FlowSpec> flows;
    for (std::size_t i = 0; i < count; ++i) {
        const NodeId s = hosts[d.below(hosts.size())];
        NodeId t = hosts[d.below(hosts.size())];
        if (s == t)
            continue;
        const FlowId id = traffic::pair_flow(s, t);
        bool dup = false;
        for (const auto &fl : flows)
            dup = dup || fl.id == id;
        if (!dup)
            flows.push_back({id, s, t, 1.0});
    }
    return flows;
}

/** build_shortest walks must deliver on graph-shortest paths on any
 *  geometry: torus (wraparound), fat tree, dragonfly. */
TEST(RoutingProps, ShortestWalksMatchHopDistanceEverywhere)
{
    const Topology topos[] = {Topology::torus2d(4, 4),
                              Topology::fat_tree(2, 3),
                              Topology::dragonfly(4, 2, 2)};
    Draw d(0x5a);
    for (const auto &topo : topos) {
        SCOPED_TRACE(topo.name());
        NetHarness net(topo);
        const auto flows = random_host_flows(d, topo.hosts(), 12);
        routing::build_shortest(*net.net, flows);
        net.freeze();
        for (const auto &fl : flows)
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                Rng rng(seed);
                const auto p =
                    walk_path(*net.net, fl.src, fl.id, fl.dst, rng);
                expect_valid_walk(topo, p, fl.src, fl.dst);
                EXPECT_EQ(p.size(),
                          topo.hop_distance(fl.src, fl.dst) + 1u)
                    << "flow " << fl.id << " not shortest";
            }
    }
}

/** Up/down walks on fat trees are minimal: 2 * (NCA level) hops. */
TEST(RoutingProps, UpdownWalksAreMinimal)
{
    Draw d(0x6b);
    const Topology topos[] = {Topology::fat_tree(2, 2),
                              Topology::fat_tree(3, 2),
                              Topology::fat_tree(2, 4)};
    for (const auto &topo : topos) {
        SCOPED_TRACE(topo.name());
        NetHarness net(topo);
        const auto flows = random_host_flows(d, topo.hosts(), 14);
        routing::build_updown(*net.net, flows);
        net.freeze();
        for (const auto &fl : flows)
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                Rng rng(seed);
                const auto p =
                    walk_path(*net.net, fl.src, fl.id, fl.dst, rng);
                expect_valid_walk(topo, p, fl.src, fl.dst);
                EXPECT_EQ(p.size(),
                          topo.hop_distance(fl.src, fl.dst) + 1u)
                    << "flow " << fl.id << " not minimal";
            }
    }
}

TEST(RoutingProps, UpdownConstructionIsDeterministic)
{
    Draw d(0x7c);
    const Topology topo = Topology::fat_tree(3, 2);
    NetHarness a(topo);
    NetHarness b(topo);
    const auto flows = random_host_flows(d, topo.hosts(), 16);
    routing::build_updown(*a.net, flows);
    routing::build_updown(*b.net, flows);
    a.freeze();
    b.freeze();
    for (const auto &fl : flows)
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            Rng ra(seed), rb(seed);
            EXPECT_EQ(walk_path(*a.net, fl.src, fl.id, fl.dst, ra),
                      walk_path(*b.net, fl.src, fl.id, fl.dst, rb))
                << "flow " << fl.id << " seed " << seed;
        }
}

/** Dragonfly minimal walks deliver over the canonical direct route:
 *  at most 5 hops, never shorter than the graph distance. */
TEST(RoutingProps, DragonflyMinimalWalksAreDirect)
{
    Draw d(0x8d);
    const Topology topos[] = {Topology::dragonfly(4, 2, 2),
                              Topology::dragonfly(6, 3, 1),
                              Topology::dragonfly(3, 2, 3)};
    for (const auto &topo : topos) {
        SCOPED_TRACE(topo.name());
        NetHarness net(topo);
        const auto flows = random_host_flows(d, topo.hosts(), 14);
        routing::build_dragonfly_minimal(*net.net, flows);
        net.freeze();
        for (const auto &fl : flows)
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                Rng rng(seed);
                const auto p =
                    walk_path(*net.net, fl.src, fl.id, fl.dst, rng);
                expect_valid_walk(topo, p, fl.src, fl.dst);
                // host, local?, global?, local?, host: <= 5 hops, and
                // no shorter than the true graph distance.
                EXPECT_LE(p.size(), 6u);
                EXPECT_GE(p.size(),
                          topo.hop_distance(fl.src, fl.dst) + 1u);
            }
    }
}

/** Valiant-global dragonfly walks bounce via a random intermediate
 *  group; they must still deliver over real links, within the
 *  two-segment bound, deterministically pick-for-pick. */
TEST(RoutingProps, DragonflyValiantWalksDeliver)
{
    Draw d(0x9e);
    const Topology topo = Topology::dragonfly(4, 2, 2);
    NetHarness a(topo);
    NetHarness b(topo);
    const auto flows = random_host_flows(d, topo.hosts(), 14);
    routing::build_dragonfly_valiant(*a.net, flows);
    routing::build_dragonfly_valiant(*b.net, flows);
    a.freeze();
    b.freeze();
    for (const auto &fl : flows)
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            Rng ra(seed), rb(seed);
            const auto p = walk_path(*a.net, fl.src, fl.id, fl.dst, ra);
            expect_valid_walk(topo, p, fl.src, fl.dst);
            // Two direct segments share the intermediate router:
            // at most 2 * 5 - 2 hops (host links only at the ends).
            EXPECT_LE(p.size(), 9u);
            EXPECT_EQ(p, walk_path(*b.net, fl.src, fl.id, fl.dst, rb))
                << "flow " << fl.id << " seed " << seed;
        }
}

/** Switch-only invariant: no flow originates or terminates at a
 *  switch — every walk starts and ends at hosts, and no switch's
 *  table can deliver anything to a CPU port. */
TEST(RoutingProps, SwitchNodesNeverTerminateFlows)
{
    Draw d(0xaf);
    struct Case
    {
        Topology topo;
        Builder build;
    };
    const Case cases[] = {
        {Topology::fat_tree(2, 2), &routing::build_updown},
        {Topology::dragonfly(4, 2, 2),
         &routing::build_dragonfly_minimal},
        {Topology::dragonfly(4, 2, 2),
         &routing::build_dragonfly_valiant},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.topo.name());
        NetHarness net(c.topo);
        const auto flows = random_host_flows(d, c.topo.hosts(), 12);
        c.build(*net.net, flows);
        net.freeze();
        for (NodeId n = 0; n < c.topo.num_nodes(); ++n) {
            if (!c.topo.is_switch(n))
                continue;
            // Neither the tables nor the flow registration may make a
            // switch a delivery point.
            net.net->router(n).routing_table().for_each(
                [&](const RouteKey &key,
                    const RoutingTable::Options &opts) {
                    for (const RouteResult &o : opts)
                        EXPECT_NE(o.next_node, n)
                            << "switch " << n << " delivers prev "
                            << key.prev_node << " flow " << key.flow;
                });
            EXPECT_TRUE(net.net->deliverable_flows(n).empty())
                << "switch " << n << " has registered flows";
        }
        for (const auto &fl : flows) {
            Rng rng(1);
            const auto p =
                walk_path(*net.net, fl.src, fl.id, fl.dst, rng);
            EXPECT_FALSE(c.topo.is_switch(p.front()));
            EXPECT_FALSE(c.topo.is_switch(p.back()));
        }
    }
}

/** Builders reject flows whose endpoints are switch-only nodes. */
TEST(RoutingProps, BuildersRejectSwitchEndpoints)
{
    const Topology ft = Topology::fat_tree(2, 2);
    {
        NetHarness net(ft);
        const std::vector<FlowSpec> bad{{traffic::pair_flow(0, 5), 0, 5,
                                         1.0}};
        EXPECT_THROW(routing::build_updown(*net.net, bad),
                     std::runtime_error);
    }
    const Topology df = Topology::dragonfly(4, 2, 2);
    {
        NetHarness net(df);
        const std::vector<FlowSpec> bad{{traffic::pair_flow(8, 3), 8, 3,
                                         1.0}};
        EXPECT_THROW(routing::build_dragonfly_minimal(*net.net, bad),
                     std::runtime_error);
        EXPECT_THROW(routing::build_dragonfly_valiant(*net.net, bad),
                     std::runtime_error);
    }
    // Geometry gates: updown wants a fat tree, the dragonfly builders
    // a dragonfly.
    {
        NetHarness net(df);
        const std::vector<FlowSpec> flows{
            {traffic::pair_flow(8, 10), 8, 10, 1.0}};
        EXPECT_THROW(routing::build_updown(*net.net, flows),
                     std::runtime_error);
    }
    {
        NetHarness net(ft);
        const std::vector<FlowSpec> flows{
            {traffic::pair_flow(0, 3), 0, 3, 1.0}};
        EXPECT_THROW(routing::build_dragonfly_minimal(*net.net, flows),
                     std::runtime_error);
    }
}

/** Documented xy_path behavior on tori: paths.h's helpers accept a
 *  torus but build mesh-style (non-wrapping) paths — every hop is a
 *  torus link, length is the *mesh* Manhattan distance, which can
 *  exceed the wraparound hop_distance. */
TEST(RoutingProps, TorusXyPathIsMeshStyleNonWrapping)
{
    const Topology topo = Topology::torus2d(4, 4);
    const auto p = routing::xy_path(topo, 0, 3);
    ASSERT_EQ(p.size(), 4u); // 0-1-2-3, not the 0-3 wrap link
    for (std::size_t i = 1; i < p.size(); ++i) {
        EXPECT_EQ(p[i], p[i - 1] + 1);
        EXPECT_TRUE(topo.adjacent(p[i - 1], p[i]));
    }
    EXPECT_EQ(topo.hop_distance(0, 3), 1u); // wrap is shorter
    const auto q = routing::yx_path(topo, 0, 12);
    ASSERT_EQ(q.size(), 4u);
    EXPECT_EQ(topo.hop_distance(0, 12), 1u);
}

} // namespace
} // namespace hornet::net
