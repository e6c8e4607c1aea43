/**
 * @file
 * Routing-table builders (paper II-A2).
 *
 * A wide range of oblivious and static routing schemes is expressed by
 * configuring per-node routing tables with weighted next-hop results
 * {<next_node_id, next_flow_id, weight>, ...} (net/routing_table.h).
 * Each builder installs the entries for a set of flows:
 *
 *  - build_xy        : dimension-ordered XY (DOR) on a 2D mesh
 *  - build_o1turn    : O1TURN [8] — XY and YX subroutes, equal weight,
 *                      distinguished by flow-id phases 1 and 2
 *  - build_romm      : two-phase ROMM [11] — uniform random intermediate
 *                      inside the minimum rectangle, XY in each phase,
 *                      flow renamed at the intermediate node; entries
 *                      merged with path-count weights
 *  - build_valiant   : Valiant [10] — like ROMM with the intermediate
 *                      drawn from the whole mesh
 *  - build_prom      : uniform PROM [9] — minimal probabilistic routing,
 *                      next-hop weights proportional to the number of
 *                      remaining minimal paths
 *  - build_shortest  : deterministic BFS shortest path; works on any
 *                      geometry (rings, tori, multilayer meshes,
 *                      fat trees, dragonflies)
 *  - build_static_greedy : BSOR-style [7] bandwidth-aware static routing
 *                      (greedy load-balancing substitute for the MILP)
 *  - build_updown    : fat-tree nearest-common-ancestor up/down routing
 *                      (uniform random parent choice on the way up,
 *                      deterministic descent)
 *  - build_dragonfly_minimal : canonical dragonfly direct routing
 *                      (local, global, local)
 *  - build_dragonfly_valiant : Valiant-global dragonfly routing via a
 *                      random intermediate group (two-phase flow
 *                      renaming, ROMM-style weight merging)
 *
 * build_xy and build_prom route by destination: their routes depend
 * only on where the packet is and where it goes, so they install one
 * <prev_node_id, destination> entry per node, previous hop and
 * destination, shared by every flow bound there, and never rename the
 * flow. Each such entry is installed once per call: give one call all
 * of a destination's flows, since a second call for the same
 * destination would add its weights again. Every other builder keys
 * its entries by <prev_node_id, flow_id>, because its routes rename
 * the flow in flight or may differ by source; these builders assume
 * fresh tables for the given flows, and installing the same flow twice
 * accumulates weights and corrupts the distribution.
 *
 * Every builder registers its flows with the Network
 * (Network::register_flows): that registration, not the tables, is
 * what a tile's deliverable-flow set is built from.
 */
#ifndef HORNET_NET_ROUTING_BUILDERS_H
#define HORNET_NET_ROUTING_BUILDERS_H

#include <vector>

#include "net/flow.h"
#include "net/network.h"

/**
 * @namespace hornet::net::routing
 * Routing-table builders and deterministic path helpers (paper II-A2).
 */
namespace hornet::net::routing {

/** Dimension-ordered XY routing on a 2D mesh (destination-keyed). */
void build_xy(Network &net, const std::vector<FlowSpec> &flows);

/** O1TURN: XY and YX subroutes with equal weight (phases 1 and 2). */
void build_o1turn(Network &net, const std::vector<FlowSpec> &flows);

/** Two-phase ROMM: random intermediate in the minimum rectangle. */
void build_romm(Network &net, const std::vector<FlowSpec> &flows);

/** Valiant: random intermediate drawn from the whole mesh. */
void build_valiant(Network &net, const std::vector<FlowSpec> &flows);

/** Uniform PROM: weights by the number of remaining minimal paths
 *  (destination-keyed). */
void build_prom(Network &net, const std::vector<FlowSpec> &flows);

/** Deterministic BFS shortest paths; works on any geometry. */
void build_shortest(Network &net, const std::vector<FlowSpec> &flows);

/**
 * Greedy bandwidth-aware static routing: flows are routed one at a
 * time in decreasing demand order over link costs 1 + alpha * load,
 * then the chosen path's load is committed. A practical substitute for
 * BSOR's offline optimization.
 */
void build_static_greedy(Network &net, const std::vector<FlowSpec> &flows,
                         double alpha = 1.0);

/**
 * Fat-tree up/down routing: each flow climbs from its source host
 * toward the nearest-common-ancestor level with a uniform random
 * parent choice at every step (all minimal up/down paths, equal
 * probability per hop), then descends deterministically to the
 * destination host. Paths are minimal (2x the NCA level) and up/down
 * order makes the channel-dependency graph acyclic, so no VCA split
 * is needed. Requires a Topology::fat_tree geometry and host
 * endpoints; fatal() otherwise.
 */
void build_updown(Network &net, const std::vector<FlowSpec> &flows);

/**
 * Canonical dragonfly direct routing: source host -> its switch ->
 * (local hop to the gateway router) -> the one global link toward the
 * destination group -> (local hop) -> destination switch -> host. At
 * most 5 hops and minimal among single-global-hop routes; a two-global
 * detour can occasionally be one hop shorter (the classic dragonfly
 * property), so walks are *near*-minimal, not graph-minimal. Requires
 * a Topology::dragonfly geometry and host endpoints.
 */
void build_dragonfly_minimal(Network &net,
                             const std::vector<FlowSpec> &flows);

/**
 * Valiant-global dragonfly routing: each flow is routed minimally to a
 * uniformly chosen intermediate group (phase 1), renamed there, and
 * minimally onward to its destination (phase 2), exactly the ROMM
 * renaming machinery on the dragonfly's group graph. Entries of
 * different intermediates merge with route-count weights. Pair with
 * vca::build_phase_split for the two phases' buffer split. Requires a
 * Topology::dragonfly geometry and host endpoints.
 */
void build_dragonfly_valiant(Network &net,
                             const std::vector<FlowSpec> &flows);

/**
 * Install a single deterministic @p path for flow @p base, tagging all
 * in-flight hops with @p phase and restoring the base id on delivery
 * (flow-keyed entries). Exposed for custom schemes and tests; it does
 * not register the flow with the Network.
 */
void install_single_phase_path(Network &net,
                               const std::vector<NodeId> &path,
                               FlowId base, std::uint32_t phase,
                               double weight);

} // namespace hornet::net::routing

#endif // HORNET_NET_ROUTING_BUILDERS_H
