#include "traffic/bridge.h"

#include <bit>

#include "common/log.h"
#include "net/flow.h"

namespace hornet::traffic {

Bridge::Bridge(net::Router *router, Rng *rng, TileStats *stats,
               const BridgeConfig &cfg)
    : router_(router), rng_(rng), stats_(stats), cfg_(cfg)
{
    if (router_ == nullptr || rng_ == nullptr || stats_ == nullptr)
        fatal("bridge requires a router, rng and stats sink");
    if (cfg_.injection_bandwidth == 0 || cfg_.ejection_bandwidth == 0)
        fatal("bridge bandwidths must be nonzero");
    // One reassembly per ejection VC is the steady state; a generous
    // reserve keeps even bursty interleavings from rehashing mid-run.
    rx_partial_.reserve(4 * router_->num_ejection_vcs());
}

void
Bridge::send(const net::PacketDesc &pkt)
{
    if (pkt.src != router_->id())
        fatal(strcat("bridge at node ", router_->id(),
                     ": cannot send a packet sourced at ", pkt.src));
    if (pkt.size == 0)
        fatal("bridge: packets must have at least one flit");
    tx_queue_.push_back(pkt);
}

std::size_t
Bridge::pending_tx() const
{
    return tx_queue_.size() + (tx_active_ ? 1 : 0);
}

std::optional<RxPacket>
Bridge::receive()
{
    if (rx_queue_.empty())
        return std::nullopt;
    RxPacket pkt = rx_queue_.front();
    rx_queue_.pop_front();
    rx_backlog_flits_ -= pkt.desc.size;
    return pkt;
}

VcId
Bridge::choose_injection_vc(const net::PacketDesc &pkt)
{
    const std::uint32_t vcs = router_->num_injection_vcs();
    // Confine each traffic class to its share of the injection VCs.
    std::uint32_t lo = 0, span = vcs;
    if (cfg_.vc_classes > 1) {
        if (pkt.vc_class >= cfg_.vc_classes)
            fatal("bridge: packet traffic class out of range");
        span = vcs / cfg_.vc_classes;
        if (span == 0)
            fatal("bridge: more traffic classes than injection VCs");
        lo = pkt.vc_class * span;
    }
    if (cfg_.flow_pinned_injection) {
        return static_cast<VcId>(
            lo + net::flowid::base_of(pkt.flow) % span);
    }
    // Pick the emptiest injection VC; break ties randomly so that the
    // injection order does not systematically favour low VC ids.
    std::vector<VcId> &best = scratch_best_vcs_;
    best.clear();
    std::uint32_t best_free = 0;
    for (VcId v = lo; v < lo + span; ++v) {
        std::uint32_t free = router_->injection_buffer(v).free_slots();
        if (best.empty() || free > best_free) {
            best_free = free;
            best.clear();
            best.push_back(v);
        } else if (free == best_free) {
            best.push_back(v);
        }
    }
    return best.size() == 1 ? best.front()
                            : best[rng_->below(best.size())];
}

void
Bridge::posedge(Cycle now)
{
    // ------------------------------------------------------------------
    // Receive side: drain ejection buffers round-robin and reassemble.
    // ------------------------------------------------------------------
    const std::uint32_t evcs = router_->num_ejection_vcs();
    std::uint32_t rx_budget = cfg_.ejection_bandwidth;
    for (std::uint32_t i = 0; i < evcs && rx_budget > 0; ++i) {
        if (cfg_.rx_capacity_flits != 0 &&
            rx_backlog_flits_ >= cfg_.rx_capacity_flits)
            break; // DMA buffer full: backpressure the network
        // Round-robin drain start, derived from the clock (not a tick
        // counter) so that a bridge whose tile slept or fast-forwarded
        // through idle cycles drains in exactly the order a
        // ticked-every-cycle bridge would.
        VcId v = static_cast<VcId>((now + i) % evcs);
        auto &buf = router_->ejection_buffer(v);
        while (rx_budget > 0) {
            if (buf.front_ready(now) == nullptr)
                break;
            const net::Flit f = buf.pop();
            rx_popped_ |= std::uint64_t{1} << v;
            --rx_budget;
            ++rx_backlog_flits_;
            Partial &part = rx_partial_[f.packet];
            if (f.head) {
                part.desc.flow = f.original_flow;
                part.desc.src = f.src;
                part.desc.dst = f.dst;
                part.desc.size = f.packet_size;
                part.desc.payload = f.payload;
            }
            ++part.flits;
            if (f.tail)
                part.tail_latency = f.latency + f.inject_offset;
            if (part.flits == f.packet_size) {
                RxPacket pkt;
                pkt.desc = part.desc;
                pkt.latency = part.tail_latency;
                pkt.delivered_cycle = now;
                rx_queue_.push_back(pkt);
                rx_partial_.erase(f.packet);
            }
            if (cfg_.rx_capacity_flits != 0 &&
                rx_backlog_flits_ >= cfg_.rx_capacity_flits)
                break;
        }
    }

    // ------------------------------------------------------------------
    // Transmit side: inject queued packets flit-by-flit (DMA model).
    // ------------------------------------------------------------------
    std::uint32_t tx_budget = cfg_.injection_bandwidth;
    while (tx_budget > 0) {
        if (!tx_active_) {
            if (tx_queue_.empty())
                break;
            tx_pkt_ = tx_queue_.front();
            tx_queue_.pop_front();
            tx_next_flit_ = 0;
            tx_vc_ = choose_injection_vc(tx_pkt_);
            tx_active_ = true;
        }
        auto &buf = router_->injection_buffer(tx_vc_);
        bool progressed = false;
        while (tx_budget > 0 && tx_next_flit_ < tx_pkt_.size &&
               buf.free_slots() > 0) {
            if (tx_next_flit_ == 0)
                tx_head_cycle_ = now;
            net::Flit f;
            f.flow = tx_pkt_.flow;
            f.original_flow = tx_pkt_.flow;
            f.packet = (static_cast<PacketId>(tx_pkt_.src) << 40) |
                       next_packet_seq_;
            f.src = tx_pkt_.src;
            f.dst = tx_pkt_.dst;
            f.seq = tx_next_flit_;
            f.packet_size = tx_pkt_.size;
            f.head = tx_next_flit_ == 0;
            f.tail = tx_next_flit_ + 1 == tx_pkt_.size;
            f.payload = tx_pkt_.payload;
            f.injected_cycle = now;
            f.inject_offset = static_cast<std::uint32_t>(
                now - tx_head_cycle_);
            f.arrival_cycle = now + 1;
            f.latency = 0;
            buf.push(f);
            ++stats_->flits_injected;
            if (f.head)
                ++stats_->packets_injected;
            ++tx_next_flit_;
            --tx_budget;
            progressed = true;
        }
        if (tx_next_flit_ == tx_pkt_.size) {
            tx_active_ = false;
            ++next_packet_seq_;
            continue;
        }
        if (!progressed)
            break; // blocked on credits: retry next cycle
    }
}

void
Bridge::negedge(Cycle)
{
    // Only VCs popped this cycle have pops to commit; committing any
    // other would be a no-op.
    for (std::uint64_t m = rx_popped_; m != 0; m &= m - 1)
        router_->ejection_buffer(static_cast<VcId>(std::countr_zero(m)))
            .commit_negedge();
    rx_popped_ = 0;
}

} // namespace hornet::traffic
