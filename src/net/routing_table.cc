#include "net/routing_table.h"

#include "common/log.h"

namespace hornet::net {

void
RoutingTable::freeze(common::Arena *arena)
{
    if (frozen())
        return;
    OptionTable::freeze(arena);
    for_each([&](const RouteKey &key, const Options &) {
        if (!is_dst_key(key.flow))
            ++flow_keys_;
    });
}

void
RoutingTable::adopt(const RoutingTable &donor)
{
    OptionTable::adopt(donor);
    flow_keys_ = donor.flow_keys_;
}

void
RoutingTable::no_route(NodeId prev, FlowId flow, NodeId dst) const
{
    panic(strcat("routing table at node ", node_, ": no route for prev=",
                 prev, " flow=", flow, " dst=", dst, " (", describe(),
                 ")"));
}

} // namespace hornet::net
