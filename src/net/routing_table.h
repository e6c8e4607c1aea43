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
 * Flow entries carry per-flow routes: schemes that rename the flow in
 * flight (O1TURN, ROMM, Valiant) or choose paths per source
 * (shortest, static, up/down, dragonfly). They live in a
 * net::OptionTable: the builders add() records, freeze() sorts and
 * merges them into a frozen common::FlatTable in the router's arena.
 *
 * Destination entries serve routes that depend only on where the
 * packet is and where it goes (XY, PROM): one entry per (node, prev,
 * destination) instead of one per flow and hop. They live in a
 * net::DestinationStore, indexed instead of hashed: per destination a
 * small row number, per row the option list of every input (the
 * router's ingress ports, then injection). A mesh router's thousands
 * of destination entries hold a handful of distinct rows and option
 * lists, so the store costs about one byte per destination. Their
 * options never rename: their next_flow is kKeepFlow.
 *
 * The router resolves a head flit with route_input(): the flow entry
 * first, when the table holds any, then the destination entry of the
 * flit's dst. Delivery is expressed as next_node_id == the node
 * itself. Only the frozen form is read — by the per-flit hot path
 * (Router::do_route_compute) and by the VCA builders, which freeze the
 * routing tables before they walk them.
 */
#ifndef HORNET_NET_ROUTING_TABLE_H
#define HORNET_NET_ROUTING_TABLE_H

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
     *  once their weights are; the destination store interns equal
     *  option lists). */
    bool operator==(const RouteResult &) const = default;
};

/** RouteResult::next_flow of an option that keeps the packet's flow
 *  id: every destination entry's options carry it. Its phase byte
 *  reads 255 (flowid::phase_of), not 0. */
inline constexpr FlowId kKeepFlow = kInvalidFlow;

/** Key of a flow entry. */
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
 * The destination entries of one routing table, addressed by (input,
 * destination), where an input is the index of the port a flit came
 * in on (the router's ingress port order, injection last).
 *
 * Built, frozen once, then only read:
 *
 *  - add() interns the option list (equal lists share one id) and
 *    appends an 8-byte (destination, input, list) record.
 *  - freeze() sorts the records by destination, interns each
 *    destination's row — one list id per input, 0 where the input
 *    holds no entry — and carves four arrays from the arena: the row
 *    number of every destination (one byte each while there are at
 *    most 256 rows, two bytes otherwise), the rows, the option-list
 *    views and the packed options. Row 0 holds no entry. The records
 *    are freed.
 *  - lookup() is three indexed loads: row number, list id, list view.
 *
 * Each option list keeps the order and weights add() was given, and
 * its total weight is summed left to right (common::flat_total_weight),
 * so a weighted pick draws what a flow-keyed entry with the same
 * options draws.
 */
class DestinationStore
{
  public:
    /** The option-set view lookups return. */
    using Options = common::FlatEntry<RouteResult>;

    /**
     * Record that a flit bound for @p dst that came in on input @p in
     * takes one of the @p n options at @p opts (positive weights;
     * fatal otherwise). Each (input, destination) is added once:
     * freeze() panics on a second add.
     */
    void add(std::uint32_t in, NodeId dst, const RouteResult *opts,
             std::size_t n);

    /**
     * Compile the records of a table with @p inputs inputs into the
     * frozen arrays, carved from @p arena (null: a private arena), and
     * free the records. @p node names the table in panics.
     */
    void freeze(std::uint32_t inputs, NodeId node, common::Arena *arena);

    /** Read @p donor's frozen arrays (see OptionTable::adopt). */
    void adopt(const DestinationStore &donor);

    /** The entry of (@p in, @p dst), or nullptr when there is none
     *  (also before freeze()). */
    const Options *
    lookup(std::uint32_t in, NodeId dst) const
    {
        if (dst >= dst_span_ || in >= inputs_)
            return nullptr;
        const std::uint32_t row =
            index8_ != nullptr ? index8_[dst] : index16_[dst];
        const std::uint16_t list = rows_[row * inputs_ + in];
        return list == 0 ? nullptr : &lists_[list - 1];
    }

    /** Apply @p fn(input, dst, options) to every entry, destinations
     *  in ascending order, inputs in port order. */
    template <typename Fn>
    void
    for_each(Fn fn) const
    {
        for (NodeId d = 0; d < dst_span_; ++d) {
            const std::uint32_t row =
                index8_ != nullptr ? index8_[d] : index16_[d];
            for (std::uint32_t in = 0; row != 0 && in < inputs_; ++in)
                if (const std::uint16_t list = rows_[row * inputs_ + in])
                    fn(in, d, lists_[list - 1]);
        }
    }

    /** Number of (input, destination) entries (records until frozen). */
    std::size_t
    size() const
    {
        return build_ != nullptr ? build_->records.size() : entries_;
    }

    /** Heap bytes the build state holds until freeze() frees it. */
    std::size_t record_bytes() const;

    /** One-line size diagnostics for panic messages. */
    std::string describe() const;

  private:
    /** One add() call, kept until freeze(). */
    struct Record
    {
        NodeId dst;
        std::uint16_t in;
        std::uint16_t list; ///< interned list id
    };

    /** What add() collects: the records and the interned option
     *  lists. */
    struct Build
    {
        std::vector<Record> records;
        /// The interned lists back to back; list i ends at ends[i].
        std::vector<RouteResult> options;
        std::vector<std::uint32_t> ends;
        /// Open-addressing set of list id + 1 (0: empty), hashed by
        /// content, at most half full.
        std::vector<std::uint16_t> slots;
    };

    /** The id of the list @p opts[0, @p n), interned on first sight. */
    std::uint16_t intern(const RouteResult *opts, std::size_t n);

    std::unique_ptr<Build> build_;
    /// Frozen arrays (see the class comment); exactly one index is set
    /// once a destination entry exists.
    const std::uint8_t *index8_ = nullptr;
    const std::uint16_t *index16_ = nullptr;
    const std::uint16_t *rows_ = nullptr;
    const Options *lists_ = nullptr;
    /// Destinations the index covers (largest destination + 1).
    NodeId dst_span_ = 0;
    std::uint32_t inputs_ = 0;
    std::uint32_t entries_ = 0;
    std::uint32_t num_rows_ = 0;
    std::uint32_t num_lists_ = 0;
    /** Fallback storage when no placement arena was supplied (shared
     *  by adopters). */
    std::shared_ptr<common::Arena> own_arena_;
};

/**
 * One node's routing table: flow entries in an OptionTable keyed by
 * <prev, flow>, destination entries in a DestinationStore (see the
 * file comment), plus the node it routes for and the weighted pick.
 */
class RoutingTable : public OptionTable<RouteKey, RouteResult, RouteKeyHash>
{
  public:
    /** Table of node @p node (the delivery sentinel) whose ingress
     *  ports face @p neighbors, in port order. */
    explicit RoutingTable(NodeId node = kInvalidNode,
                          std::vector<NodeId> neighbors = {});

    /**
     * Add the destination entry of (@p prev, @p dst): @p n options at
     * @p opts, each with next_flow kKeepFlow. @p prev must be a
     * neighbour or the node itself (injection); panics after the
     * freeze.
     */
    void add_destination(NodeId prev, NodeId dst, const RouteResult *opts,
                         std::size_t n);

    /** Freeze the flow entries (OptionTable::freeze) and the
     *  destination store into @p arena. Idempotent. */
    void freeze(common::Arena *arena = nullptr);

    /** OptionTable::adopt, plus the donor's destination store. */
    void adopt(const RoutingTable &donor);

    /**
     * The options for a head flit of @p flow bound for @p dst that
     * came in on input @p in (the router's ingress port index; the
     * last one is injection) from @p prev: the flow entry when the
     * table holds flow entries and this one, else the destination
     * entry. Panics, naming prev, flow and dst, when neither exists,
     * and on an unfrozen table.
     */
    const Options &
    route_input(std::uint32_t in, NodeId prev, FlowId flow,
                NodeId dst) const
    {
        if (flow_keys_ != 0) {
            if (const Options *o = lookup({prev, flow}))
                return *o;
        }
        if (const Options *o = dsts_.lookup(in, dst))
            return *o;
        no_route(prev, flow, dst);
    }

    /** route_input() for a flit that arrived from @p prev (== this
     *  node at injection). */
    const Options &
    route(NodeId prev, FlowId flow, NodeId dst) const
    {
        return route_input(input_of(prev), prev, flow, dst);
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
     * path pairs one route_input() with one pick_from(). A
     * single-option entry draws nothing; a multi-option entry draws
     * one uniform scaled by the precomputed total weight and
     * subtract-scans in option order. @p opts must be non-empty.
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

    /** Apply @p fn(prev, dst, options) to every destination entry.
     *  Panics when unfrozen. (for_each() visits the flow entries.) */
    template <typename Fn>
    void
    for_each_destination(Fn fn) const
    {
        if (!frozen())
            panic_unfrozen("for_each_destination()");
        dsts_.for_each([&](std::uint32_t in, NodeId dst,
                           const Options &opts) {
            fn(inputs_[in], dst, opts);
        });
    }

    /** Number of entries, flow and destination. Panics when unfrozen. */
    std::size_t
    size() const
    {
        return OptionTable::size() + dsts_.size();
    }

    /** Number of flow (not destination) entries; 0 until frozen. */
    std::size_t flow_keys() const { return flow_keys_; }

    /** Heap bytes the build records of both kinds hold until freeze(). */
    std::size_t
    record_bytes() const
    {
        return OptionTable::record_bytes() + dsts_.record_bytes();
    }

    /** One-line state/size diagnostics for panic messages. */
    std::string describe() const;

  private:
    /** The input index of @p prev (inputs_.size() when @p prev is
     *  neither a neighbour nor this node). */
    std::uint32_t
    input_of(NodeId prev) const
    {
        std::uint32_t in = 0;
        while (in < inputs_.size() && inputs_[in] != prev)
            ++in;
        return in;
    }

    /** The panic behind a route() miss. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    no_route(NodeId prev, FlowId flow, NodeId dst) const;

    NodeId node_;
    /// Counted by freeze(); 32 bits, as FlatTable caps keys there.
    std::uint32_t flow_keys_ = 0;
    /// The previous hop of every input: the neighbours in port order,
    /// then this node (injection).
    std::vector<NodeId> inputs_;
    DestinationStore dsts_;
};

} // namespace hornet::net

#endif // HORNET_NET_ROUTING_TABLE_H
