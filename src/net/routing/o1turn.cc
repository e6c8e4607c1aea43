/**
 * @file
 * O1TURN routing [8]: each packet takes the XY or the YX route with
 * equal probability; the two subroutes live on distinct flow-id phases
 * (1 = XY, 2 = YX) so the VCA builder can place them on disjoint VC
 * sets, which is what makes O1TURN deadlock-free (paper II-A3).
 */
#include "net/routing/builders.h"

#include "common/log.h"
#include "net/routing/paths.h"

namespace hornet::net::routing {

void
build_o1turn(Network &net, const std::vector<FlowSpec> &flows)
{
    const Topology &topo = net.topology();
    net.register_flows(flows);
    for (const auto &f : flows) {
        if (f.src == f.dst) {
            net.router(f.src).routing_table().add(
                {f.src, f.id}, RouteResult{f.src, f.id, 1.0});
            continue;
        }
        install_single_phase_path(net, xy_path(topo, f.src, f.dst), f.id,
                                  1, 0.5);
        install_single_phase_path(net, yx_path(topo, f.src, f.dst), f.id,
                                  2, 0.5);
    }
}

} // namespace hornet::net::routing
