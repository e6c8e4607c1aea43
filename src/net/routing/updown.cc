/**
 * @file
 * Fat-tree nearest-common-ancestor up/down routing (ISSUE 10).
 *
 * On the XGFT geometry of Topology::fat_tree, the minimal routes of a
 * host pair (s, d) all climb to level L — the most significant base-k
 * digit where s and d differ — and descend. The builder installs the
 * whole *set* of minimal routes directly instead of enumerating the
 * k^L individual paths: every ancestor-of-s below level L gets one
 * table entry fanning out to all k parents with equal weight (the
 * uniform up-phase), every level-L common ancestor turns downward, and
 * the descent is deterministic (the child toward d is unique). Keys
 * cannot collide: up entries are keyed by a child prev-node, down
 * entries by a parent prev-node, and no node below level L is an
 * ancestor of both endpoints — so the flow id needs no phase renaming.
 */
#include "net/routing/builders.h"

#include "common/log.h"

namespace hornet::net::routing {

namespace {

/** Geometry constants of one fat tree, precomputed once per build. */
struct FtGeom
{
    std::uint32_t h;                  ///< switch levels above the hosts
    std::uint32_t k;                  ///< arity (parents/children per node)
    std::vector<std::uint64_t> pow_k; ///< pow_k[l] = k^l, l in [0, h]

    explicit FtGeom(const Topology &topo)
        : h(topo.fat_tree_levels()), k(topo.fat_tree_arity())
    {
        pow_k.resize(h + 1);
        pow_k[0] = 1;
        for (std::uint32_t l = 1; l <= h; ++l)
            pow_k[l] = pow_k[l - 1] * k;
    }

    /** Node id of the level-l node with a-part @p a and c-part @p c. */
    NodeId
    node(std::uint32_t l, std::uint64_t a, std::uint64_t c) const
    {
        return static_cast<NodeId>(l * pow_k[h] + a * pow_k[l] + c);
    }
};

/** Level of the nearest common ancestors of hosts @p s and @p d:
 *  the smallest l with s / k^l == d / k^l. */
std::uint32_t
nca_level(const FtGeom &g, NodeId s, NodeId d)
{
    std::uint32_t l = 0;
    while (s / g.pow_k[l] != d / g.pow_k[l])
        ++l;
    return l;
}

void
install_updown(Network &net, const FtGeom &g, const FlowSpec &f)
{
    auto table = [&net](NodeId n) -> RoutingTable & {
        return net.router(n).routing_table();
    };
    if (f.src == f.dst) {
        table(f.src).add({f.src, f.id}, RouteResult{f.src, f.id, 1.0});
        return;
    }
    const std::uint32_t L = nca_level(g, f.src, f.dst);

    // Up phase: every ancestor-of-src at levels [0, L) fans out to all
    // k parents with equal weight. The prev key is the unique
    // ancestor-of-src child (the source host itself at level 0).
    for (std::uint32_t l = 0; l < L; ++l) {
        const std::uint64_t a_s = f.src / g.pow_k[l];
        for (std::uint64_t c = 0; c < g.pow_k[l]; ++c) {
            const NodeId n = g.node(l, a_s, c);
            const NodeId prev =
                l == 0 ? f.src
                       : g.node(l - 1, f.src / g.pow_k[l - 1],
                                c % g.pow_k[l - 1]);
            for (std::uint32_t chat = 0; chat < g.k; ++chat) {
                const NodeId parent = g.node(
                    l + 1, a_s / g.k, chat * g.pow_k[l] + c);
                table(n).add({prev, f.id}, RouteResult{parent, f.id, 1.0});
            }
        }
    }

    // Turn at level L: each common ancestor routes its unique
    // src-side child arrival down its unique dst-side child.
    for (std::uint64_t c = 0; c < g.pow_k[L]; ++c) {
        const NodeId n = g.node(L, f.src / g.pow_k[L], c);
        const NodeId prev = g.node(L - 1, f.src / g.pow_k[L - 1],
                                   c % g.pow_k[L - 1]);
        const NodeId next = g.node(L - 1, f.dst / g.pow_k[L - 1],
                                   c % g.pow_k[L - 1]);
        table(n).add({prev, f.id}, RouteResult{next, f.id, 1.0});
    }

    // Down phase: deterministic descent through the ancestors-of-dst
    // at levels (0, L); any of the k parents may be the prev.
    for (std::uint32_t l = L - 1; l >= 1; --l) {
        const std::uint64_t a_d = f.dst / g.pow_k[l];
        for (std::uint64_t c = 0; c < g.pow_k[l]; ++c) {
            const NodeId n = g.node(l, a_d, c);
            const NodeId next =
                l == 1 ? f.dst
                       : g.node(l - 1, f.dst / g.pow_k[l - 1],
                                c % g.pow_k[l - 1]);
            for (std::uint32_t chat = 0; chat < g.k; ++chat) {
                const NodeId prev = g.node(
                    l + 1, a_d / g.k, chat * g.pow_k[l] + c);
                table(n).add({prev, f.id}, RouteResult{next, f.id, 1.0});
            }
        }
    }

    // Delivery at the destination host, from any of its k parents.
    for (std::uint32_t chat = 0; chat < g.k; ++chat) {
        const NodeId prev = g.node(1, f.dst / g.k, chat);
        table(f.dst).add({prev, f.id}, RouteResult{f.dst, f.id, 1.0});
    }
}

} // namespace

void
build_updown(Network &net, const std::vector<FlowSpec> &flows)
{
    const Topology &topo = net.topology();
    if (!topo.is_fat_tree())
        fatal("build_updown requires a fat-tree topology, got " +
              topo.name());
    const FtGeom g(topo);
    for (const auto &f : flows) {
        if (topo.is_switch(f.src) || topo.is_switch(f.dst))
            fatal(strcat("build_updown: flow ", f.id,
                         " endpoint is a switch-only node"));
        install_updown(net, g, f);
    }
    net.register_flows(flows);
}

} // namespace hornet::net::routing
