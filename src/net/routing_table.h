/**
 * @file
 * Table-driven routing (paper II-A2).
 *
 * Per-node routing tables are addressed by the incoming direction and
 * either the flow id, <prev_node_id, flow_id>, or the destination,
 * <prev_node_id, destination>; each entry is a set of weighted next-hop
 * results {<next_node_id, next_flow_id, weight>, ...}. When a set
 * contains more than one option, one is selected at random with
 * propensity proportional to its weight, and the packet's flow id is
 * renamed to next_flow_id. A packet injected at node n is looked up
 * with prev_node_id == n.
 *
 * Flow keys carry per-flow routes: schemes that rename the flow in
 * flight (O1TURN, ROMM, Valiant) or choose paths per source
 * (shortest, static). Destination keys serve routes that depend only
 * on where the packet is and where it goes (XY, PROM): one entry per
 * (node, prev, destination) instead of one per flow and hop, which is
 * what keeps all-pairs tables small on large meshes. A destination key
 * is a RouteKey whose flow field holds dst_key(destination), tagged in
 * the phase byte, so both kinds share one table and one hash. Its
 * options never rename: their next_flow is kKeepFlow. The router
 * resolves a head flit with route(prev, flow, dst): the flow key
 * first, when the table holds any, then the destination key (the
 * flit's dst).
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
#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "net/flow.h"
#include "net/option_table.h"

namespace hornet::net {

/** One weighted next-hop result. */
struct RouteResult
{
    /** Next hop (== the routing node itself for delivery). */
    NodeId next_node = kInvalidNode;
    /** Flow id the packet is renamed to on this hop (kKeepFlow: the
     *  packet keeps its flow id). */
    FlowId next_flow = kInvalidFlow;
    /** Selection propensity among the entry's options. */
    double weight = 1.0;

    /** Field-wise equality (OptionTable merges options that are equal
     *  once their weights are). */
    bool operator==(const RouteResult &) const = default;
};

/** RouteResult::next_flow of an option that keeps the packet's flow
 *  id: every destination entry's options carry it. Its phase byte
 *  reads 255 (flowid::phase_of), not 0. */
inline constexpr FlowId kKeepFlow = kInvalidFlow;

/** Phase-byte tag (flowid::with_phase) marking a RouteKey flow field
 *  as a destination. Flows never reach this phase. */
inline constexpr std::uint32_t kDstKeyTag = 0xFE;

/** The RouteKey flow field of destination @p dst. */
constexpr FlowId
dst_key(NodeId dst)
{
    return flowid::with_phase(dst, kDstKeyTag);
}

/** True when the RouteKey flow field @p key names a destination. */
constexpr bool
is_dst_key(FlowId key)
{
    return flowid::phase_of(key) == kDstKeyTag;
}

/** Key of a routing-table entry. */
struct RouteKey
{
    /** Node the packet arrived from (== this node for injection). */
    NodeId prev_node;
    /** Flow id carried by the packet, or dst_key() of its
     *  destination. */
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
 * One node's routing table: an OptionTable keyed by <prev, flow> and
 * <prev, destination> (see the file comment), plus the node it routes
 * for and the weighted pick.
 */
class RoutingTable : public OptionTable<RouteKey, RouteResult, RouteKeyHash>
{
  public:
    /** Table of node @p node (the delivery sentinel). */
    explicit RoutingTable(NodeId node = kInvalidNode) : node_(node) {}

    /** OptionTable::freeze, then count the flow keys, so route() skips
     *  the flow probe on tables that hold none. Idempotent. */
    void freeze(common::Arena *arena = nullptr);

    /** OptionTable::adopt, plus the donor's flow-key count. */
    void adopt(const RoutingTable &donor);

    /**
     * The options for a head flit of @p flow bound for @p dst that
     * arrived from @p prev (== this node at injection): the flow key's
     * entry when the table holds flow keys and this one, else the
     * destination key's. Panics, naming prev, flow and dst, when
     * neither exists, and on an unfrozen table.
     */
    const Options &
    route(NodeId prev, FlowId flow, NodeId dst) const
    {
        if (flow_keys_ != 0) {
            if (const Options *o = lookup({prev, flow}))
                return *o;
        }
        if (const Options *o = lookup({prev, dst_key(dst)}))
            return *o;
        no_route(prev, flow, dst);
    }

    /** Weighted random pick among route(@p prev, @p flow, @p dst)'s
     *  options (panics like route()). */
    const RouteResult &
    pick(NodeId prev, FlowId flow, NodeId dst, Rng &rng) const
    {
        return pick_from(route(prev, flow, dst), rng);
    }

    /**
     * Weighted random pick among already-looked-up options: the hot
     * path pairs one route() with one pick_from(). A single-option
     * entry draws nothing; a multi-option entry draws one uniform
     * scaled by the precomputed total weight and subtract-scans in
     * option order. @p opts must be non-empty.
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

    /** Number of flow (not destination) keys; 0 until frozen. */
    std::size_t flow_keys() const { return flow_keys_; }

  private:
    /** The panic behind a route() miss. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    no_route(NodeId prev, FlowId flow, NodeId dst) const;

    NodeId node_;
    /// Counted by freeze(); 32 bits, as FlatTable caps keys there.
    std::uint32_t flow_keys_ = 0;
};

} // namespace hornet::net

#endif // HORNET_NET_ROUTING_TABLE_H
