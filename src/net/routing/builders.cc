#include "net/routing/builders.h"

#include <algorithm>

#include "common/log.h"
#include "net/routing/paths.h"

namespace hornet::net::routing {

void
install_single_phase_path(Network &net, const std::vector<NodeId> &path,
                          FlowId base, std::uint32_t phase, double weight)
{
    if (path.empty())
        fatal("cannot install an empty path");
    const NodeId s = path.front();
    const NodeId d = path.back();
    const FlowId ph = flowid::with_phase(base, phase);

    if (path.size() == 1) {
        // Local delivery: injected flits route straight to the CPU port.
        net.router(s).routing_table().add({s, base},
                                          RouteResult{s, base, weight});
        return;
    }
    // Injection step at the source (prev == self), renaming into phase.
    net.router(s).routing_table().add({s, base},
                                      RouteResult{path[1], ph, weight});
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        net.router(path[i]).routing_table().add(
            {path[i - 1], ph}, RouteResult{path[i + 1], ph, weight});
    }
    // Delivery entry at the destination restores the base flow id.
    net.router(d).routing_table().add({path[path.size() - 2], ph},
                                      RouteResult{d, base, weight});
}

void
build_xy(Network &net, const std::vector<FlowSpec> &flows)
{
    const Topology &topo = net.topology();
    if (!flows.empty() && (!topo.is_mesh_like() || topo.layers() != 1))
        fatal("XY builder requires a 2D mesh topology");
    net.register_flows(flows);
    DestinationGroups groups(topo, flows);
    groups.for_each([&](NodeId dst, const FlowSpec &f) {
        const std::uint32_t dx = topo.x_of(dst), dy = topo.y_of(dst);
        std::uint32_t x = topo.x_of(f.src), y = topo.y_of(f.src);
        // The rest of an XY route depends only on (node, dst): the walk
        // stops at the first (node, prev) this destination already
        // holds, because everything downstream of it is installed.
        for (NodeId prev = f.src, node = f.src;
             groups.claim(node, prev);) {
            if (x != dx)
                x = x < dx ? x + 1 : x - 1;
            else if (y != dy)
                y = y < dy ? y + 1 : y - 1;
            const NodeId next = topo.node_at(x, y);
            net.router(node).routing_table().add(
                {prev, dst_key(dst)}, RouteResult{next, kKeepFlow, 1.0});
            if (next == node)
                break; // delivered
            prev = node;
            node = next;
        }
    });
}

void
build_shortest(Network &net, const std::vector<FlowSpec> &flows)
{
    net.register_flows(flows);
    for (const auto &f : flows) {
        install_single_phase_path(
            net, shortest_path(net.topology(), f.src, f.dst), f.id, 0, 1.0);
    }
}

void
build_static_greedy(Network &net, const std::vector<FlowSpec> &flows,
                    double alpha)
{
    const Topology &topo = net.topology();
    net.register_flows(flows);
    // Directed per-link committed load, indexed [node][port].
    std::vector<std::vector<double>> load(topo.num_nodes());
    std::vector<std::vector<double>> cost(topo.num_nodes());
    for (NodeId u = 0; u < topo.num_nodes(); ++u) {
        load[u].assign(topo.neighbors(u).size(), 0.0);
        cost[u].assign(topo.neighbors(u).size(), 1.0);
    }

    // Route heavy flows first (greedy BSOR substitute).
    std::vector<const FlowSpec *> order;
    order.reserve(flows.size());
    for (const auto &f : flows)
        order.push_back(&f);
    std::sort(order.begin(), order.end(),
              [](const FlowSpec *a, const FlowSpec *b) {
                  if (a->demand != b->demand)
                      return a->demand > b->demand;
                  return a->id < b->id;
              });

    for (const FlowSpec *f : order) {
        auto path = weighted_path(topo, f->src, f->dst, cost);
        install_single_phase_path(net, path, f->id, 0, 1.0);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            PortId p = topo.port_to(path[i], path[i + 1]);
            load[path[i]][p] += f->demand;
            cost[path[i]][p] = 1.0 + alpha * load[path[i]][p];
        }
    }
}

} // namespace hornet::net::routing
