/**
 * @file
 * Bridge abstraction (paper II-D): presents a simple packet-based
 * interface to injectors and cores, hiding the details of DMA
 * transfers and dividing packets into flits (and reassembling them).
 *
 * Injection: packets are queued and injected one at a time, flit by
 * flit, into the CPU-ingress VC buffers of the local router, limited
 * by an injection bandwidth. Reception: flits are drained from the
 * router's ejection buffers and reassembled into packets; a finite
 * receive capacity models the DMA buffer, so an application that does
 * not consume its messages backpressures the network (paper IV-D).
 *
 * Both directions move flits strictly between the bridge and its own
 * tile's router, so the buffers involved are wired by sim::System in
 * the VC buffer's unsynchronized same-thread mode: per-flit injection
 * and ejection cost plain loads and stores, no atomic read-modify-
 * write and no fence, on every scheduler and thread count.
 */
#ifndef HORNET_TRAFFIC_BRIDGE_H
#define HORNET_TRAFFIC_BRIDGE_H

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "net/router.h"

namespace hornet::traffic {

/** A fully received packet. */
struct RxPacket
{
    /** The reassembled packet's descriptor. */
    net::PacketDesc desc;
    /** In-network latency of the tail flit, cycles. */
    std::uint64_t latency = 0;
    /** Local cycle at which reassembly completed. */
    Cycle delivered_cycle = 0;
};

/** Bridge configuration. */
struct BridgeConfig
{
    /** Flits injectable per cycle. */
    std::uint32_t injection_bandwidth = 1;
    /** Flits drainable from the ejection buffers per cycle. */
    std::uint32_t ejection_bandwidth = 1;
    /** Receive-side DMA buffer capacity in flits; when the reassembled
     *  backlog reaches this, draining stops and the network backs up.
     *  0 = unbounded (trace injectors discard packets immediately). */
    std::uint32_t rx_capacity_flits = 0;
    /** Pin each flow to one injection VC (keeps same-flow packets in
     *  order end-to-end; pair with EDVCA in the network). */
    bool flow_pinned_injection = false;
    /** Number of injection traffic classes (PacketDesc::vc_class);
     *  each class gets an equal share of the injection VCs. */
    std::uint32_t vc_classes = 1;
};

/**
 * One tile's packet interface. Stepped by the owning frontend.
 */
class Bridge
{
  public:
    /** Attach to @p router's CPU port, drawing VC choices from
     *  @p rng and reporting into @p stats (neither owned). */
    Bridge(net::Router *router, Rng *rng, TileStats *stats,
           const BridgeConfig &cfg);

    /** Queue a packet for injection (never refuses; the injector queue
     *  buffers until the network accepts, paper II-D1). */
    void send(const net::PacketDesc &pkt);

    /** Packets not yet fully injected (queued + in progress). */
    std::size_t pending_tx() const;

    /** Pop the next fully reassembled packet, if any. */
    std::optional<RxPacket> receive();

    /** Reassembled packets waiting for receive(). */
    std::size_t pending_rx() const { return rx_queue_.size(); }

    /** Pump injection and reassembly; call at the tile posedge. */
    void posedge(Cycle now);

    /** Commit ejection-buffer pops; call at the tile negedge. */
    void negedge(Cycle now);

    /**
     * Nothing queued, in flight, or awaiting pickup on this bridge.
     * Takes the local cycle like every Clocked idle() query — the
     * bridge is the idleness oracle its owning frontend delegates to,
     * so the signatures match even though the bridge's idleness is
     * currently clock-independent (@p now is unused).
     */
    bool
    idle(Cycle now) const
    {
        (void)now;
        return tx_queue_.empty() && !tx_active_ && rx_partial_.empty() &&
               rx_queue_.empty();
    }

    /**
     * The mailbox-ignoring idleness variant: as idle(), but packets
     * already reassembled and waiting in the receive queue do not
     * count (an idle network may fast-forward past an unread mailbox
     * — nothing will change until the application reads it). Use
     * idle() for done-detection and quiescent_tx() for "may the clock
     * jump" checks of frontends that poll their mailbox lazily.
     */
    bool
    quiescent_tx(Cycle now) const
    {
        (void)now;
        return tx_queue_.empty() && !tx_active_ && rx_partial_.empty();
    }

  private:
    /** Pick an injection VC for a new packet. */
    VcId choose_injection_vc(const net::PacketDesc &pkt);

    net::Router *router_;
    Rng *rng_;
    TileStats *stats_;
    BridgeConfig cfg_;

    std::deque<net::PacketDesc> tx_queue_;
    bool tx_active_ = false;
    net::PacketDesc tx_pkt_;
    std::uint32_t tx_next_flit_ = 0;
    VcId tx_vc_ = kInvalidVc;
    Cycle tx_head_cycle_ = 0;
    std::uint64_t next_packet_seq_ = 0;
    /** Emptiest-VC tie set of choose_injection_vc, reused across
     *  packets so injection does not allocate. */
    std::vector<VcId> scratch_best_vcs_;

    struct Partial
    {
        net::PacketDesc desc;
        std::uint32_t flits = 0;
        std::uint64_t tail_latency = 0;
    };
    /** In-flight reassemblies by packet id. Accessed by key only
     *  (never iterated, so hashing costs no determinism); reserved at
     *  construction so the per-flit reassembly path does not rehash
     *  mid-run. */
    std::unordered_map<PacketId, Partial> rx_partial_;
    std::deque<RxPacket> rx_queue_;
    std::uint32_t rx_backlog_flits_ = 0;
};

} // namespace hornet::traffic

#endif // HORNET_TRAFFIC_BRIDGE_H
