/**
 * @file
 * Deterministic path helpers and destination bookkeeping shared by the
 * table builders.
 */
#ifndef HORNET_NET_ROUTING_PATHS_H
#define HORNET_NET_ROUTING_PATHS_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/flow.h"
#include "net/topology.h"

namespace hornet::net::routing {

/**
 * Dimension-ordered (XY) path on a 2D mesh/torus-as-mesh: first move
 * along x to the destination column, then along y. Returns the node
 * sequence including both endpoints. fatal() on non-mesh topologies.
 *
 * On a torus the path never uses the wraparound links (every mesh
 * link exists on the torus, so the path is valid, but its length is
 * the mesh Manhattan distance, which can exceed the torus
 * hop_distance). Use build_shortest when wraparound routing matters;
 * tests/test_routing_props.cc pins this behavior.
 */
std::vector<NodeId> xy_path(const Topology &topo, NodeId src, NodeId dst);

/** YX path: y first, then x. */
std::vector<NodeId> yx_path(const Topology &topo, NodeId src, NodeId dst);

/**
 * Deterministic shortest path on any topology (BFS, ties broken toward
 * the lower node id), including both endpoints.
 */
std::vector<NodeId> shortest_path(const Topology &topo, NodeId src,
                                  NodeId dst);

/**
 * Weighted shortest path (Dijkstra over per-directed-link costs,
 * ties toward lower node id). @p cost is indexed [from][port].
 */
std::vector<NodeId> weighted_path(
    const Topology &topo, NodeId src, NodeId dst,
    const std::vector<std::vector<double>> &cost);

/**
 * Bookkeeping of the destination-keyed builders (build_xy,
 * build_prom): the flows grouped by destination, and which
 * (node, prev) pairs already hold the current destination's entry, so
 * every (node, prev, destination) entry is installed exactly once.
 * Memory is O(nodes x ports + flows).
 */
class DestinationGroups
{
  public:
    /** Group @p flows (which must outlive this object) by
     *  destination on @p topo. */
    DestinationGroups(const Topology &topo,
                      const std::vector<FlowSpec> &flows);

    /**
     * Apply @p fn(dst, flow) to every flow, grouped by destination:
     * destinations in ascending order, flows of one destination in
     * input order. Claims reset whenever the destination changes.
     */
    template <typename Fn>
    void
    for_each(Fn fn)
    {
        for (NodeId d = 0; d + 1 < first_.size(); ++d) {
            ++epoch_;
            for (std::uint32_t i = first_[d]; i < first_[d + 1]; ++i)
                fn(d, flows_[order_[i]]);
        }
    }

    /** True the first time (@p node, @p prev) is claimed for the
     *  current destination (@p prev == @p node: injection). */
    bool
    claim(NodeId node, NodeId prev)
    {
        const std::size_t row = std::size_t{node} * stride_;
        std::size_t in = row;
        while (inputs_[in] != prev)
            if (++in == row + stride_)
                not_an_input(node, prev);
        if (claimed_[in] == epoch_)
            return false;
        claimed_[in] = epoch_;
        return true;
    }

  private:
    [[noreturn, gnu::cold]] static void not_an_input(NodeId node,
                                                      NodeId prev);

    const std::vector<FlowSpec> &flows_;
    /// The flows of destination d are order_[first_[d] .. first_[d + 1]).
    std::vector<std::uint32_t> first_;
    std::vector<std::uint32_t> order_;
    /// Input slots per node: one per port, plus injection (the last).
    std::uint32_t stride_ = 0;
    /// Per (node, input slot): the previous hop it stands for (the
    /// port's neighbour, kInvalidNode for a missing port, the node
    /// itself for injection).
    std::vector<NodeId> inputs_;
    /// Per (node, input slot): the epoch that last claimed it.
    std::vector<std::uint32_t> claimed_;
    /// Counts destinations visited by for_each (0: none yet).
    std::uint32_t epoch_ = 0;
};

} // namespace hornet::net::routing

#endif // HORNET_NET_ROUTING_PATHS_H
