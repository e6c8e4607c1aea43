/**
 * @file
 * Two-phase randomized oblivious routing: Valiant [10] and its
 * minimum-rectangle variant ROMM [11] (paper II-A2, Fig 3c).
 *
 * A packet is first routed via XY to a random intermediate node m and
 * then via XY to its destination. Table construction follows the
 * paper: (a) "whether the intermediate hop has been passed" is
 * remembered by renaming the flow id at the intermediate node (phase 1
 * -> phase 2) and restoring it at the destination; (b) several routes
 * with different intermediate destinations but the same next hop merge
 * into one table entry whose weight is the number of such routes, so
 * the weighted random walk reproduces the uniform choice of m exactly.
 */
#include "net/routing/builders.h"

#include <algorithm>

#include "common/log.h"
#include "net/routing/paths.h"

namespace hornet::net::routing {

namespace {

/** Install the two-phase route of flow @p f via intermediate @p m,
 *  contributing weight 1 per table transition. */
void
install_via(Network &net, const FlowSpec &f, NodeId m)
{
    const Topology &topo = net.topology();
    const FlowId ph1 = flowid::with_phase(f.id, 1);
    const FlowId ph2 = flowid::with_phase(f.id, 2);
    auto table = [&net](NodeId n) -> RoutingTable & {
        return net.router(n).routing_table();
    };

    if (f.src == f.dst) {
        table(f.src).add({f.src, f.id}, RouteResult{f.src, f.id, 1.0});
        return;
    }

    const auto seg2 = xy_path(topo, m, f.dst);
    if (m == f.src) {
        // The whole journey is phase 2.
        table(f.src).add({f.src, f.id}, RouteResult{seg2[1], ph2, 1.0});
        for (std::size_t i = 1; i + 1 < seg2.size(); ++i) {
            table(seg2[i]).add({seg2[i - 1], ph2},
                               RouteResult{seg2[i + 1], ph2, 1.0});
        }
        table(f.dst).add({seg2[seg2.size() - 2], ph2},
                         RouteResult{f.dst, f.id, 1.0});
        return;
    }

    const auto seg1 = xy_path(topo, f.src, m);
    // Phase-1 hops toward the intermediate.
    table(f.src).add({f.src, f.id}, RouteResult{seg1[1], ph1, 1.0});
    for (std::size_t i = 1; i + 1 < seg1.size(); ++i) {
        table(seg1[i]).add({seg1[i - 1], ph1},
                           RouteResult{seg1[i + 1], ph1, 1.0});
    }
    const NodeId before_m = seg1[seg1.size() - 2];
    if (m == f.dst) {
        // Intermediate == destination: deliver out of phase 1.
        table(f.dst).add({before_m, ph1}, RouteResult{f.dst, f.id, 1.0});
        return;
    }
    // Rename at the intermediate node and continue in phase 2.
    table(m).add({before_m, ph1}, RouteResult{seg2[1], ph2, 1.0});
    for (std::size_t i = 1; i + 1 < seg2.size(); ++i) {
        table(seg2[i]).add({seg2[i - 1], ph2},
                           RouteResult{seg2[i + 1], ph2, 1.0});
    }
    table(f.dst).add({seg2[seg2.size() - 2], ph2},
                     RouteResult{f.dst, f.id, 1.0});
}

void
build_two_phase(Network &net, const std::vector<FlowSpec> &flows,
                bool min_rectangle)
{
    const Topology &topo = net.topology();
    if (!topo.is_mesh_like() || topo.layers() != 1)
        fatal("ROMM/Valiant builders require a 2D mesh topology");
    net.register_flows(flows);
    for (const auto &f : flows) {
        if (f.src == f.dst) {
            net.router(f.src).routing_table().add(
                {f.src, f.id}, RouteResult{f.src, f.id, 1.0});
            continue;
        }
        if (min_rectangle) {
            const std::uint32_t x0 =
                std::min(topo.x_of(f.src), topo.x_of(f.dst));
            const std::uint32_t x1 =
                std::max(topo.x_of(f.src), topo.x_of(f.dst));
            const std::uint32_t y0 =
                std::min(topo.y_of(f.src), topo.y_of(f.dst));
            const std::uint32_t y1 =
                std::max(topo.y_of(f.src), topo.y_of(f.dst));
            for (std::uint32_t y = y0; y <= y1; ++y)
                for (std::uint32_t x = x0; x <= x1; ++x)
                    install_via(net, f, topo.node_at(x, y));
        } else {
            for (NodeId m = 0; m < topo.num_nodes(); ++m)
                install_via(net, f, m);
        }
    }
}

} // namespace

void
build_romm(Network &net, const std::vector<FlowSpec> &flows)
{
    build_two_phase(net, flows, true);
}

void
build_valiant(Network &net, const std::vector<FlowSpec> &flows)
{
    build_two_phase(net, flows, false);
}

} // namespace hornet::net::routing
