#include "net/routing_table.h"

#include <algorithm>

#include "common/log.h"

namespace hornet::net {

const RouteResult &
RoutingTable::pick(const RouteKey &key, Rng &rng) const
{
    const Options *opts = lookup(key);
    if (opts == nullptr || opts->empty()) {
        panic(strcat("routing table at node ", node_, ": no entry for prev=",
                     key.prev_node, " flow=", key.flow, " (", describe(),
                     ")"));
    }
    return pick_from(*opts, rng);
}

std::vector<FlowId>
deliverable_flows(const RoutingTable &table, NodeId node)
{
    std::vector<FlowId> flows;
    table.for_each(
        [&](const RouteKey &, const RoutingTable::Options &opts) {
            for (const RouteResult &o : opts) {
                if (o.next_node == node)
                    flows.push_back(o.next_flow);
            }
        });
    std::sort(flows.begin(), flows.end());
    flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
    return flows;
}

} // namespace hornet::net
