#include "net/routing/paths.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

#include "common/log.h"

namespace hornet::net::routing {

namespace {

void
require_mesh(const Topology &topo)
{
    if (!topo.is_mesh_like() || topo.layers() != 1)
        fatal("dimension-ordered paths require a 2D mesh topology");
}

} // namespace

std::vector<NodeId>
xy_path(const Topology &topo, NodeId src, NodeId dst)
{
    require_mesh(topo);
    std::vector<NodeId> path{src};
    std::uint32_t x = topo.x_of(src), y = topo.y_of(src);
    const std::uint32_t dx = topo.x_of(dst), dy = topo.y_of(dst);
    while (x != dx) {
        x = x < dx ? x + 1 : x - 1;
        path.push_back(topo.node_at(x, y));
    }
    while (y != dy) {
        y = y < dy ? y + 1 : y - 1;
        path.push_back(topo.node_at(x, y));
    }
    return path;
}

std::vector<NodeId>
yx_path(const Topology &topo, NodeId src, NodeId dst)
{
    require_mesh(topo);
    std::vector<NodeId> path{src};
    std::uint32_t x = topo.x_of(src), y = topo.y_of(src);
    const std::uint32_t dx = topo.x_of(dst), dy = topo.y_of(dst);
    while (y != dy) {
        y = y < dy ? y + 1 : y - 1;
        path.push_back(topo.node_at(x, y));
    }
    while (x != dx) {
        x = x < dx ? x + 1 : x - 1;
        path.push_back(topo.node_at(x, y));
    }
    return path;
}

std::vector<NodeId>
shortest_path(const Topology &topo, NodeId src, NodeId dst)
{
    if (src == dst)
        return {src};
    const std::uint32_t n = topo.num_nodes();
    std::vector<NodeId> parent(n, kInvalidNode);
    std::vector<bool> seen(n, false);
    std::queue<NodeId> q;
    seen[src] = true;
    q.push(src);
    while (!q.empty() && !seen[dst]) {
        NodeId u = q.front();
        q.pop();
        // Visit neighbours in ascending id order for determinism.
        std::vector<NodeId> nbrs = topo.neighbors(u);
        std::sort(nbrs.begin(), nbrs.end());
        for (NodeId v : nbrs) {
            if (!seen[v]) {
                seen[v] = true;
                parent[v] = u;
                q.push(v);
            }
        }
    }
    if (!seen[dst])
        fatal(strcat("no path from ", src, " to ", dst));
    std::vector<NodeId> path;
    for (NodeId v = dst; v != kInvalidNode; v = parent[v])
        path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

std::vector<NodeId>
weighted_path(const Topology &topo, NodeId src, NodeId dst,
              const std::vector<std::vector<double>> &cost)
{
    const std::uint32_t n = topo.num_nodes();
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<NodeId> parent(n, kInvalidNode);
    using Item = std::pair<double, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[src] = 0.0;
    pq.emplace(0.0, src);
    while (!pq.empty()) {
        auto [d, u] = pq.top();
        pq.pop();
        if (d > dist[u])
            continue;
        if (u == dst)
            break;
        const auto &nbrs = topo.neighbors(u);
        for (PortId p = 0; p < nbrs.size(); ++p) {
            NodeId v = nbrs[p];
            double nd = d + cost[u][p];
            if (nd < dist[v] ||
                (nd == dist[v] && parent[v] != kInvalidNode &&
                 u < parent[v])) {
                dist[v] = nd;
                parent[v] = u;
                pq.emplace(nd, v);
            }
        }
    }
    if (dist[dst] == std::numeric_limits<double>::infinity())
        fatal(strcat("no path from ", src, " to ", dst));
    std::vector<NodeId> path;
    for (NodeId v = dst; v != kInvalidNode; v = parent[v])
        path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

DestinationGroups::DestinationGroups(const Topology &topo,
                                     const std::vector<FlowSpec> &flows)
    : flows_(flows)
{
    const std::uint32_t n = topo.num_nodes();
    // Counting sort by destination, stable in input order.
    first_.assign(n + 1, 0);
    for (const FlowSpec &f : flows)
        ++first_[f.dst + 1];
    std::partial_sum(first_.begin(), first_.end(), first_.begin());
    order_.resize(flows.size());
    std::vector<std::uint32_t> next(first_.begin(), first_.end() - 1);
    for (std::uint32_t i = 0; i < flows.size(); ++i)
        order_[next[flows[i].dst]++] = i;

    for (NodeId u = 0; u < n; ++u)
        stride_ = std::max<std::uint32_t>(
            stride_, static_cast<std::uint32_t>(topo.neighbors(u).size()));
    ++stride_;
    inputs_.assign(std::size_t{n} * stride_, kInvalidNode);
    for (NodeId u = 0; u < n; ++u) {
        const auto &nbrs = topo.neighbors(u);
        std::copy(nbrs.begin(), nbrs.end(),
                  inputs_.begin() + std::size_t{u} * stride_);
        inputs_[std::size_t{u} * stride_ + stride_ - 1] = u;
    }
    claimed_.assign(inputs_.size(), 0);
}

void
DestinationGroups::not_an_input(NodeId node, NodeId prev)
{
    panic(strcat("destination walk: ", prev, " is not a neighbour of ",
                 node));
}

} // namespace hornet::net::routing
