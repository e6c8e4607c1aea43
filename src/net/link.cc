#include "net/link.h"

#include <algorithm>

#include "common/log.h"
#include "net/router.h"

namespace hornet::net {

BidirLink::BidirLink(Router *a, PortId port_a, Router *b, PortId port_b,
                     std::uint32_t total_bandwidth)
    : a_(a), port_a_(port_a), b_(b), port_b_(port_b),
      total_(total_bandwidth)
{
    if (total_ == 0)
        fatal("bidirectional link needs nonzero bandwidth");
    // The arbiter reads only phase-stable posedge snapshots of the two
    // endpoints (see arbitrate) and sets their bandwidth; ask both
    // routers to publish and apply them on these ports.
    a_->attach_link_arbiter(port_a_);
    b_->attach_link_arbiter(port_b_);
}

NodeId
BidirLink::owner() const
{
    return std::min(a_->id(), b_->id());
}

NodeId
BidirLink::node_a() const
{
    return a_->id();
}

NodeId
BidirLink::node_b() const
{
    return b_->id();
}

void
BidirLink::arbitrate()
{
    // Effective demand in each direction: flits ready to traverse,
    // bounded by the space available at the destination (paper II-A4).
    // Both inputs are posedge-published snapshots, so the split is a
    // pure function of phase-stable state: it no longer races the
    // remote consumer's mid-phase pop commits, which made multi-shard
    // bidirectional runs irreproducible (ROADMAP corner (a)).
    std::uint32_t d_ab = std::min(a_->egress_demand(port_a_),
                                  a_->egress_free_space_snapshot(port_a_));
    std::uint32_t d_ba = std::min(b_->egress_demand(port_b_),
                                  b_->egress_free_space_snapshot(port_b_));

    std::uint32_t bw_ab;
    if (d_ab == 0 && d_ba == 0) {
        // Idle link: split evenly so a newly arriving packet is not
        // starved for a cycle.
        bw_ab = total_ / 2;
    } else if (d_ba == 0) {
        bw_ab = total_;
    } else if (d_ab == 0) {
        bw_ab = 0;
    } else {
        // Proportional split, at least one unit to each loaded side.
        double share = static_cast<double>(d_ab) /
                       static_cast<double>(d_ab + d_ba);
        bw_ab = static_cast<std::uint32_t>(share * total_ + 0.5);
        bw_ab = std::clamp<std::uint32_t>(bw_ab, total_ > 1 ? 1 : 0,
                                          total_ > 1 ? total_ - 1 : total_);
    }
    a_->set_egress_bandwidth_next(port_a_, bw_ab);
    b_->set_egress_bandwidth_next(port_b_, total_ - bw_ab);
}

} // namespace hornet::net
