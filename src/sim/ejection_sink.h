/**
 * @file
 * Default consumer for tiles with no attached frontend: drains and
 * discards whatever the router delivers to the CPU port, so that a
 * destination-only tile does not hold flits forever and block
 * fast-forwarding / done-detection.
 */
#ifndef HORNET_SIM_EJECTION_SINK_H
#define HORNET_SIM_EJECTION_SINK_H

#include <bit>
#include <cstdint>

#include "net/router.h"
#include "sim/frontend.h"

namespace hornet::sim {

/** Discards all delivered flits; attached automatically by System. */
class EjectionSink : public Frontend
{
  public:
    /** @param router the router whose ejection buffers to drain. */
    explicit EjectionSink(net::Router *router) : router_(router) {}

    void
    posedge(Cycle now) override
    {
        for (VcId v = 0; v < router_->num_ejection_vcs(); ++v) {
            auto &buf = router_->ejection_buffer(v);
            while (buf.front_ready(now) != nullptr) {
                buf.pop();
                popped_ |= std::uint64_t{1} << v;
            }
        }
    }

    /** Commit the VCs popped this cycle (committing any other would be
     *  a no-op). */
    void
    negedge(Cycle) override
    {
        for (std::uint64_t m = popped_; m != 0; m &= m - 1)
            router_->ejection_buffer(static_cast<VcId>(std::countr_zero(m)))
                .commit_negedge();
        popped_ = 0;
    }

    bool idle(Cycle) const override { return true; }
    Cycle next_event(Cycle) const override { return kNoEvent; }
    bool done(Cycle) const override { return true; }

  private:
    net::Router *router_;
    /// Ejection VCs popped since the last negedge, one bit per VC (a
    /// router has at most 64 per port).
    std::uint64_t popped_ = 0;
};

} // namespace hornet::sim

#endif // HORNET_SIM_EJECTION_SINK_H
