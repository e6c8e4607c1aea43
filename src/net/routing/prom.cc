/**
 * @file
 * Uniform PROM [9]: path-based randomized oblivious minimal routing.
 *
 * Every minimal path inside the source/destination minimum rectangle
 * is equally likely. At each hop the remaining minimal paths through
 * the x-step and the y-step are counted with binomial coefficients and
 * used as the table weights, so the packet performs a weighted random
 * walk that is uniform over minimal paths.
 *
 * Note: like all minimal fully-diverse schemes, PROM needs extra
 * deadlock precautions under heavy load (the PROM paper pairs it with
 * suitable VC allocation); tests exercise it at low load or with
 * escape-free configurations.
 */
#include "net/routing/builders.h"

#include <cmath>
#include <cstdlib>

#include "common/log.h"

namespace hornet::net::routing {

namespace {

/** C(n, k) as a double (n <= ~60 in practice: mesh spans). */
double
binom(std::uint32_t n, std::uint32_t k)
{
    if (k > n)
        return 0.0;
    if (k > n - k)
        k = n - k;
    double r = 1.0;
    for (std::uint32_t i = 1; i <= k; ++i)
        r = r * static_cast<double>(n - k + i) / static_cast<double>(i);
    return r;
}

} // namespace

void
build_prom(Network &net, const std::vector<FlowSpec> &flows)
{
    const Topology &topo = net.topology();
    if (!topo.is_mesh_like() || topo.layers() != 1)
        fatal("PROM builder requires a 2D mesh topology");

    for (const auto &f : flows) {
        auto tbl = [&net](NodeId n) -> RoutingTable & {
            return net.router(n).routing_table();
        };
        if (f.src == f.dst) {
            tbl(f.src).add({f.src, f.id}, RouteResult{f.src, f.id, 1.0});
            continue;
        }
        const std::int32_t sx = static_cast<std::int32_t>(topo.x_of(f.src));
        const std::int32_t sy = static_cast<std::int32_t>(topo.y_of(f.src));
        const std::int32_t dx = static_cast<std::int32_t>(topo.x_of(f.dst));
        const std::int32_t dy = static_cast<std::int32_t>(topo.y_of(f.dst));
        const std::int32_t step_x = dx > sx ? 1 : -1;
        const std::int32_t step_y = dy > sy ? 1 : -1;
        const std::uint32_t span_x = static_cast<std::uint32_t>(
            std::abs(dx - sx));
        const std::uint32_t span_y = static_cast<std::uint32_t>(
            std::abs(dy - sy));

        // Walk every node of the rectangle in offset coordinates
        // (i steps taken in x, j steps taken in y from the source).
        for (std::uint32_t i = 0; i <= span_x; ++i) {
            for (std::uint32_t j = 0; j <= span_y; ++j) {
                const std::int32_t ux = sx + step_x * static_cast<
                    std::int32_t>(i);
                const std::int32_t uy = sy + step_y * static_cast<
                    std::int32_t>(j);
                const NodeId u = topo.node_at(
                    static_cast<std::uint32_t>(ux),
                    static_cast<std::uint32_t>(uy));
                const std::uint32_t rx = span_x - i; // x steps remaining
                const std::uint32_t ry = span_y - j; // y steps remaining

                // Possible previous hops on a minimal path into u,
                // plus the injection key at the source.
                std::vector<NodeId> prevs;
                if (i == 0 && j == 0)
                    prevs.push_back(u); // injection: prev == self
                if (i > 0)
                    prevs.push_back(topo.node_at(
                        static_cast<std::uint32_t>(ux - step_x),
                        static_cast<std::uint32_t>(uy)));
                if (j > 0)
                    prevs.push_back(topo.node_at(
                        static_cast<std::uint32_t>(ux),
                        static_cast<std::uint32_t>(uy - step_y)));

                for (NodeId prev : prevs) {
                    if (rx == 0 && ry == 0) {
                        tbl(u).add({prev, f.id},
                                   RouteResult{u, f.id, 1.0});
                        continue;
                    }
                    if (rx > 0) {
                        const NodeId nx = topo.node_at(
                            static_cast<std::uint32_t>(ux + step_x),
                            static_cast<std::uint32_t>(uy));
                        tbl(u).add({prev, f.id},
                                   RouteResult{nx, f.id,
                                               binom(rx - 1 + ry, ry)});
                    }
                    if (ry > 0) {
                        const NodeId ny = topo.node_at(
                            static_cast<std::uint32_t>(ux),
                            static_cast<std::uint32_t>(uy + step_y));
                        tbl(u).add({prev, f.id},
                                   RouteResult{ny, f.id,
                                               binom(rx + ry - 1, rx)});
                    }
                }
            }
        }
    }
}

} // namespace hornet::net::routing
