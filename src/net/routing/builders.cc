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
    for (const auto &f : flows) {
        install_single_phase_path(
            net, xy_path(net.topology(), f.src, f.dst), f.id, 0, 1.0);
    }
}

void
build_shortest(Network &net, const std::vector<FlowSpec> &flows)
{
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
