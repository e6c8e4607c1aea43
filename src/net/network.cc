#include "net/network.h"

#include <algorithm>

#include "common/arena.h"
#include "common/log.h"
#include "net/link.h"

namespace hornet::net {

Network::Network(const Topology &topo, const NetworkConfig &cfg,
                 const std::vector<Rng *> &rngs,
                 const std::vector<TileStats *> &stats,
                 const common::NodePlacement *placement)
    : topo_(topo), cfg_(cfg)
{
    const std::uint32_t n = topo_.num_nodes();
    if (rngs.size() != n || stats.size() != n)
        fatal("network: need one rng and stats sink per node");

    common::NodePlacement fallback;
    if (placement == nullptr || placement->arena_of_node.empty()) {
        own_arena_ = std::make_unique<common::Arena>();
        fallback.arena_of_node.assign(n, own_arena_.get());
        placement = &fallback;
    } else if (placement->arena_of_node.size() != n) {
        fatal("network: placement map must cover every node");
    }
    const common::NodePlacement &pl = *placement;

    // Nodes of one placement group are contiguous (block partition),
    // so each group owns a [first, last) node range it can build and
    // wire without touching another group's slots.
    auto group_range = [&](unsigned g) {
        NodeId first = n, last = 0;
        for (NodeId i = 0; i < n; ++i) {
            if (common::block_of(i, n, pl.groups) == g) {
                first = std::min(first, i);
                last = std::max<NodeId>(last, i + 1);
            }
        }
        return std::pair<NodeId, NodeId>{std::min(first, last), last};
    };

    // Phase 1 — construct every router into its group's arena, on the
    // group's own (possibly pinned) thread: the first write to the
    // arena's pages happens here, which is what places them on the
    // constructing core's NUMA node (first touch). Each group writes
    // only its own routers_ slots, so no synchronization beyond the
    // join in for_each_group is needed. Switch-only nodes get a
    // zero-CPU-VC variant of the router config: no injection buffers,
    // no ejection buffers, no CPU egress capacity — a pure transit
    // router (see Topology::is_switch).
    RouterConfig switch_rc = cfg_.router;
    switch_rc.cpu_vcs = 0;
    routers_.assign(n, nullptr);
    deliverable_.resize(n);
    common::for_each_group(pl, [&](unsigned g) {
        const auto [first, last] = group_range(g);
        for (NodeId i = first; i < last; ++i) {
            routers_[i] = pl.of(i)->make<Router>(
                i, topo_.neighbors(i),
                topo_.is_switch(i) ? switch_rc : cfg_.router, rngs[i],
                stats[i], pl.of(i));
        }
    });

    // Phase 2 — wire every directed link: the egress of a toward b
    // feeds the ingress buffers of b's port facing a, and with
    // bidirectional links the egress pools with b's egress facing a.
    // Each group wires only its own routers' egresses (reading
    // neighbors' ingress buffers and egress ports, which phase 1 fully
    // built), so all writes are group-private.
    const std::uint32_t pool =
        cfg_.bidirectional_links ? link_pool(cfg_.router.link_bandwidth)
                                 : 0;
    common::for_each_group(pl, [&](unsigned g) {
        const auto [first, last] = group_range(g);
        for (NodeId a = first; a < last; ++a) {
            const auto &nbrs = topo_.neighbors(a);
            for (PortId p = 0; p < nbrs.size(); ++p) {
                NodeId b = nbrs[p];
                PortId q = topo_.port_to(b, a);
                routers_[a]->connect_egress(
                    p, b, routers_[b]->ingress_buffers(q),
                    cfg_.link_latency);
                if (cfg_.bidirectional_links)
                    routers_[a]->pool_egress(p, *routers_[b], q, pool);
            }
        }
    });
}

void
Network::register_flows(const std::vector<FlowSpec> &flows)
{
    for (const FlowSpec &f : flows) {
        if (f.src >= num_nodes() || f.dst >= num_nodes())
            fatal(strcat("flow ", f.id, ": endpoint ", f.src, " -> ", f.dst,
                         " outside the ", num_nodes(), "-node network"));
        deliverable_[f.dst].push_back(f.id);
    }
}

bool
Network::has_buffered_flits() const
{
    for (const auto *r : routers_)
        if (r->has_buffered_flits())
            return true;
    return false;
}

} // namespace hornet::net
