/**
 * @file
 * Table-driven routing (paper II-A2).
 *
 * Per-node routing tables are addressed by the flow id and incoming
 * direction <prev_node_id, flow_id>; each entry is a set of weighted
 * next-hop results {<next_node_id, next_flow_id, weight>, ...}. When a
 * set contains more than one option, one is selected at random with
 * propensity proportional to its weight, and the packet's flow id is
 * renamed to next_flow_id. A packet injected at node n is looked up
 * with prev_node_id == n.
 *
 * Delivery is expressed as next_node_id == the node itself.
 *
 * The table is a net::OptionTable: the routing builders add() records
 * at construction time, freeze() sorts and merges them into a frozen
 * common::FlatTable in the router's arena, and only the frozen form is
 * read — by the per-flit hot path (Router::do_route_compute) and by
 * the VCA builders, which freeze the routing tables before they walk
 * them.
 */
#ifndef HORNET_NET_ROUTING_TABLE_H
#define HORNET_NET_ROUTING_TABLE_H

#include <compare>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/option_table.h"

namespace hornet::net {

/** One weighted next-hop result. */
struct RouteResult
{
    /** Next hop (== the routing node itself for delivery). */
    NodeId next_node = kInvalidNode;
    /** Flow id the packet is renamed to on this hop. */
    FlowId next_flow = kInvalidFlow;
    /** Selection propensity among the entry's options. */
    double weight = 1.0;

    /** Field-wise equality (OptionTable merges options that are equal
     *  once their weights are). */
    bool operator==(const RouteResult &) const = default;
};

/** Key of a routing-table entry. */
struct RouteKey
{
    /** Node the packet arrived from (== this node for injection). */
    NodeId prev_node;
    /** Flow id carried by the packet. */
    FlowId flow;

    /** Field-wise ordering (prev_node, then flow): freeze() sorts by
     *  it, and equal keys are one entry. */
    auto operator<=>(const RouteKey &) const = default;
};

/** Hash functor for RouteKey (flat-table slot placement). */
struct RouteKeyHash
{
    /** Mix both key fields into a table hash. */
    std::size_t
    operator()(const RouteKey &k) const
    {
        std::uint64_t h = k.flow * 0x9e3779b97f4a7c15ull;
        h ^= (static_cast<std::uint64_t>(k.prev_node) + 0x7f4a7c15u) *
             0xbf58476d1ce4e5b9ull;
        h ^= h >> 29;
        return static_cast<std::size_t>(h);
    }
};

/**
 * One node's routing table: an OptionTable keyed by <prev, flow> (see
 * the file comment), plus the node it routes for and the weighted
 * pick.
 */
class RoutingTable : public OptionTable<RouteKey, RouteResult, RouteKeyHash>
{
  public:
    /** Table of node @p node (the delivery sentinel). */
    explicit RoutingTable(NodeId node = kInvalidNode) : node_(node) {}

    /** Weighted random pick among the options for @p key (panics when
     *  absent or unfrozen). */
    const RouteResult &pick(const RouteKey &key, Rng &rng) const;

    /**
     * Weighted random pick among already-looked-up options: the hot
     * path pairs one lookup() with one pick_from() instead of paying
     * the probe twice. A single-option entry draws nothing; a
     * multi-option entry draws one uniform scaled by the precomputed
     * total weight and subtract-scans in option order. @p opts must be
     * non-empty.
     */
    const RouteResult &
    pick_from(const Options &opts, Rng &rng) const
    {
        if (opts.count == 1)
            return opts.front();
        double r = rng.uniform() * opts.total_weight;
        for (std::uint32_t i = 0; i + 1 < opts.count; ++i) {
            r -= opts[i].weight;
            if (r < 0.0)
                return opts[i];
        }
        return opts[opts.count - 1];
    }

  private:
    NodeId node_;
};

/**
 * Flows deliverable at @p node according to its routing table: the
 * next_flow of every option whose next_node is the node itself (the
 * delivery sentinel), sorted and deduplicated. This is the flow set
 * System::freeze_tables() registers with the tile's FlowStatsTable;
 * sim::SystemBlueprint precomputes it once per node so instantiated
 * systems skip the walk. Panics when the table is unfrozen.
 */
std::vector<FlowId> deliverable_flows(const RoutingTable &table, NodeId node);

} // namespace hornet::net

#endif // HORNET_NET_ROUTING_TABLE_H
