#include "net/vca_builders.h"

#include "common/log.h"
#include "net/flow.h"

namespace hornet::net::vca {

namespace {

/**
 * Apply @p fn to every non-delivery transition of every routing table,
 * freezing each routing table (into its router's arena) first.
 */
template <typename Fn>
void
for_each_transition(Network &net, Fn fn)
{
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
        Router &r = net.router(n);
        r.freeze_routing_table();
        r.routing_table().for_each(
            [&](const RouteKey &key, const RoutingTable::Options &opts) {
                for (const RouteResult &res : opts) {
                    if (res.next_node == n)
                        continue; // delivery to the CPU port: keep dynamic
                    fn(r, key, res);
                }
            });
    }
}

} // namespace

void
build_phase_split(Network &net)
{
    const std::uint32_t vcs = net.config().router.net_vcs;
    if (vcs < 2)
        fatal("phase-split VCA needs at least 2 VCs per port");
    const std::uint32_t half = vcs / 2;

    for_each_transition(net, [&](Router &r, const RouteKey &key,
                                 const RouteResult &res) {
        // Destination entries never rename (their next_flow is
        // kKeepFlow, whose phase byte reads 255): dynamic, like the
        // unphased flows.
        if (is_dst_key(key.flow))
            return;
        const std::uint32_t phase = flowid::phase_of(res.next_flow);
        if (phase == 0)
            return; // unphased flows stay dynamic
        VcaKey vk{key.prev_node, key.flow, res.next_node, res.next_flow};
        const VcId lo = phase == 1 ? 0 : half;
        const VcId hi = phase == 1 ? half : vcs;
        for (VcId v = lo; v < hi; ++v)
            r.vca_table().add(vk, VcaResult{v, 1.0});
    });
}

void
build_static_set(Network &net)
{
    const std::uint32_t vcs = net.config().router.net_vcs;
    for_each_transition(net, [&](Router &r, const RouteKey &key,
                                 const RouteResult &res) {
        if (is_dst_key(key.flow))
            fatal(strcat("static-set VCA pins VCs per flow, but node ",
                         r.id(), " routes destination ",
                         flowid::base_of(key.flow), " from prev ",
                         key.prev_node,
                         " by destination (build_xy/build_prom); use a "
                         "flow-keyed builder such as build_static_greedy"));
        VcaKey vk{key.prev_node, key.flow, res.next_node, res.next_flow};
        const VcId v = static_cast<VcId>(
            flowid::base_of(res.next_flow) % vcs);
        r.vca_table().add(vk, VcaResult{v, 1.0});
    });
}

} // namespace hornet::net::vca
