/**
 * @file
 * Whole-network assembly: routers for every node of a topology, wired
 * together, optionally with bidirectional links (net/link.h).
 *
 * The Network owns the routers but knows nothing about threads or
 * frontends; the simulation engine (hornet::sim) wraps each router in
 * a tile.
 */
#ifndef HORNET_NET_NETWORK_H
#define HORNET_NET_NETWORK_H

#include <memory>
#include <vector>

#include "common/placement.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/flow.h"
#include "net/router.h"
#include "net/topology.h"

namespace hornet::net {

/** Network-wide configuration. */
struct NetworkConfig
{
    /** Per-router hardware parameters. */
    RouterConfig router;
    /** Link latency in cycles (>= 1). */
    Cycle link_latency = 1;
    /** Enable bidirectional links (paper II-A4): each physical link
     *  pools 2x router.link_bandwidth and splits it between its two
     *  directions every cycle (Router::pool_egress). */
    bool bidirectional_links = false;
};

/**
 * All routers of one simulated system.
 */
class Network
{
  public:
    /**
     * Build routers for @p topo and wire all links.
     *
     * @param rngs  one PRNG per node (owned by the caller's tiles)
     * @param stats one TileStats per node (owned by the caller's tiles)
     * @param placement optional node-to-arena map: each node's router
     *        (and its buffers) is placed into placement->of(node), and
     *        construction runs per placement group — in parallel on
     *        pinned threads when the map asks for it, for first-touch
     *        NUMA locality. Null falls back to one private arena.
     */
    Network(const Topology &topo, const NetworkConfig &cfg,
            const std::vector<Rng *> &rngs,
            const std::vector<TileStats *> &stats,
            const common::NodePlacement *placement = nullptr);

    /** The geometry this network was built on. */
    const Topology &topology() const { return topo_; }
    /** The configuration this network was built with. */
    const NetworkConfig &config() const { return cfg_; }

    /** Router of node @p n. */
    Router &router(NodeId n) { return *routers_.at(n); }
    /** Router of node @p n (read-only). */
    const Router &router(NodeId n) const { return *routers_.at(n); }
    /** Number of routers (== nodes of the topology). */
    std::uint32_t num_nodes() const
    {
        return static_cast<std::uint32_t>(routers_.size());
    }

    /** Total flits physically buffered anywhere (fast-forward test). */
    bool has_buffered_flits() const;

    /**
     * Record @p flows as routed on this network: each flow id joins
     * the deliverable set of its destination. Every routing builder
     * registers the flows it installs; registering a flow twice is
     * harmless. Construction time only (not thread-safe): panics once
     * the destination's routing table is frozen, and fatal() on an
     * endpoint outside the network.
     */
    void register_flows(const std::vector<FlowSpec> &flows);

    /**
     * Ids of the flows registered with destination @p n, sorted and
     * without repeats: the flows the tile of @p n can deliver. The one
     * copy of them: sim::System::freeze_tables() freezes the tile's
     * flow statistics onto this array, and blueprint instances onto
     * their donor's. Read-only after construction, so any thread may
     * read it while placement groups freeze in parallel.
     */
    const std::vector<FlowId> &
    deliverable_flows(NodeId n) const
    {
        return deliverable_.at(n);
    }

  private:
    Topology topo_;
    NetworkConfig cfg_;
    /// Fallback arena when no placement map was supplied; the routers
    /// below live in it (or in the caller's arenas).
    std::unique_ptr<common::Arena> own_arena_;
    std::vector<Router *> routers_;
    /// Registered flow ids by destination, sorted (register_flows).
    std::vector<std::vector<FlowId>> deliverable_;
};

} // namespace hornet::net

#endif // HORNET_NET_NETWORK_H
