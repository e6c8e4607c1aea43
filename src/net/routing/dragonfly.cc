/**
 * @file
 * Dragonfly routing builders (ISSUE 10): canonical direct (minimal)
 * routing and Valiant-global randomized routing.
 *
 * The Topology::dragonfly geometry has exactly one global link per
 * group pair, so the direct route of a host pair is fully determined:
 * source host -> its switch -> (local hop to the gateway router facing
 * the destination group) -> global link -> (local hop) -> destination
 * switch -> destination host; at most 5 hops. This is minimal among
 * single-global-hop routes — a two-global detour can occasionally be
 * one hop shorter, the classic dragonfly trait, so the property tests
 * assert delivery, length <= 5 and >= BFS distance rather than exact
 * minimality.
 *
 * Valiant-global reuses the ROMM phase-renaming machinery: phase 1
 * routes minimally to a router of a uniformly chosen intermediate
 * group, the flow id is renamed there, and phase 2 routes minimally to
 * the destination. Entries of different intermediate groups merge with
 * route-count weights, exactly like ROMM's rectangle merging.
 */
#include "net/routing/builders.h"

#include "common/log.h"

namespace hornet::net::routing {

namespace {

/** Geometry constants of one dragonfly, precomputed once per build. */
struct DfGeom
{
    std::uint32_t g; ///< groups
    std::uint32_t a; ///< routers per group
    std::uint32_t h; ///< hosts per router

    explicit DfGeom(const Topology &topo)
        : g(topo.dragonfly_groups()),
          a(topo.dragonfly_routers_per_group()),
          h(topo.dragonfly_hosts_per_router())
    {}

    /** Switch a host hangs off. */
    NodeId switch_of(NodeId host) const { return (host - g * a) / h; }

    /** Group of a switch. */
    std::uint32_t group_of(NodeId sw) const { return sw / a; }

    /** Gateway router in group @p i on the i<->j global link. */
    NodeId
    gateway(std::uint32_t i, std::uint32_t j) const
    {
        return i * a + ((j + g - i - 1) % g) % a;
    }

    /**
     * Minimal router-level path u -> v (both switches): same router,
     * one local hop (full in-group mesh), or local-global-local
     * through the unique gateway pair.
     */
    std::vector<NodeId>
    route_routers(NodeId u, NodeId v) const
    {
        if (u == v)
            return {u};
        const std::uint32_t gu = group_of(u), gv = group_of(v);
        if (gu == gv)
            return {u, v};
        const NodeId gi = gateway(gu, gv);
        const NodeId gj = gateway(gv, gu);
        std::vector<NodeId> path{u};
        if (gi != u)
            path.push_back(gi);
        path.push_back(gj);
        if (v != gj)
            path.push_back(v);
        return path;
    }
};

/** Host-to-host direct path including both host endpoints. */
std::vector<NodeId>
direct_path(const DfGeom &geo, NodeId src, NodeId dst)
{
    std::vector<NodeId> path{src};
    for (NodeId r :
         geo.route_routers(geo.switch_of(src), geo.switch_of(dst)))
        path.push_back(r);
    path.push_back(dst);
    return path;
}

void
require_dragonfly_hosts(const Topology &topo,
                        const std::vector<FlowSpec> &flows,
                        const char *what)
{
    if (!topo.is_dragonfly())
        fatal(std::string(what) + " requires a dragonfly topology, got " +
              topo.name());
    for (const auto &f : flows)
        if (topo.is_switch(f.src) || topo.is_switch(f.dst))
            fatal(strcat(what, ": flow ", f.id,
                         " endpoint is a switch-only node"));
}

/** Install the two-phase Valiant route of @p f via intermediate
 *  router @p m, renaming the flow there (ROMM's install_via shape). */
void
install_via_router(Network &net, const DfGeom &geo, const FlowSpec &f,
                   NodeId m)
{
    const FlowId ph1 = flowid::with_phase(f.id, 1);
    const FlowId ph2 = flowid::with_phase(f.id, 2);
    auto table = [&net](NodeId n) -> RoutingTable & {
        return net.router(n).routing_table();
    };

    // seg1: source host to m (always >= 2 nodes: the host's switch is
    // the first router). seg2: m to destination host (>= 2 nodes).
    std::vector<NodeId> seg1{f.src};
    for (NodeId r : geo.route_routers(geo.switch_of(f.src), m))
        seg1.push_back(r);
    std::vector<NodeId> seg2 =
        geo.route_routers(m, geo.switch_of(f.dst));
    seg2.push_back(f.dst);

    // Phase-1 hops toward m; the injection entry renames into phase 1.
    table(f.src).add({f.src, f.id}, RouteResult{seg1[1], ph1, 1.0});
    for (std::size_t i = 1; i + 1 < seg1.size(); ++i)
        table(seg1[i]).add({seg1[i - 1], ph1},
                           RouteResult{seg1[i + 1], ph1, 1.0});
    // Rename at m and continue in phase 2.
    table(m).add({seg1[seg1.size() - 2], ph1},
                 RouteResult{seg2[1], ph2, 1.0});
    for (std::size_t i = 1; i + 1 < seg2.size(); ++i)
        table(seg2[i]).add({seg2[i - 1], ph2},
                           RouteResult{seg2[i + 1], ph2, 1.0});
    // Delivery restores the base flow id.
    table(f.dst).add({seg2[seg2.size() - 2], ph2},
                     RouteResult{f.dst, f.id, 1.0});
}

} // namespace

void
build_dragonfly_minimal(Network &net, const std::vector<FlowSpec> &flows)
{
    const Topology &topo = net.topology();
    require_dragonfly_hosts(topo, flows, "build_dragonfly_minimal");
    net.register_flows(flows);
    const DfGeom geo(topo);
    for (const auto &f : flows) {
        if (f.src == f.dst) {
            net.router(f.src).routing_table().add(
                {f.src, f.id}, RouteResult{f.src, f.id, 1.0});
            continue;
        }
        install_single_phase_path(net, direct_path(geo, f.src, f.dst),
                                  f.id, 0, 1.0);
    }
}

void
build_dragonfly_valiant(Network &net, const std::vector<FlowSpec> &flows)
{
    const Topology &topo = net.topology();
    require_dragonfly_hosts(topo, flows, "build_dragonfly_valiant");
    net.register_flows(flows);
    const DfGeom geo(topo);
    for (const auto &f : flows) {
        if (f.src == f.dst) {
            net.router(f.src).routing_table().add(
                {f.src, f.id}, RouteResult{f.src, f.id, 1.0});
            continue;
        }
        const NodeId rs = geo.switch_of(f.src);
        const std::uint32_t gs = geo.group_of(rs);
        // One route per intermediate group: its arrival gateway from
        // the source group (the source switch for the group itself).
        for (std::uint32_t k = 0; k < geo.g; ++k) {
            const NodeId m = k == gs ? rs : geo.gateway(k, gs);
            install_via_router(net, geo, f, m);
        }
    }
}

} // namespace hornet::net::routing
