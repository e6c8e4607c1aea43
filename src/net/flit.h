/**
 * @file
 * Flit and packet descriptors.
 *
 * Following the paper (II-C), each flit carries its own accumulated
 * statistics (in-network latency, hop count) so that measurements are
 * never derived from comparing the clocks of two different tiles. The
 * accumulated latency is updated incrementally at every hop.
 */
#ifndef HORNET_NET_FLIT_H
#define HORNET_NET_FLIT_H

#include <cstdint>

#include "common/types.h"

/**
 * @namespace hornet::net
 * The interconnect model: topologies, table-driven routing and VC
 * allocation, the cycle-level router pipeline, VC buffers (the only
 * inter-tile communication points), bidirectional-link bandwidth
 * splits, and the congestion-oblivious reference model.
 */
namespace hornet::net {

/**
 * One flit of a wormhole packet.
 *
 * The head flit carries routing information (flow id, destination);
 * body/tail flits follow the path their head established. The flow id
 * may be renamed in flight by routing-table entries (multi-phase
 * schemes such as ROMM/Valiant, paper II-A2).
 */
struct Flit
{
    /** Current flow id; may differ from original_flow after renaming. */
    FlowId flow = kInvalidFlow;
    /** Flow id at injection time; restored semantics for statistics. */
    FlowId original_flow = kInvalidFlow;
    /** Unique packet id. */
    PacketId packet = 0;
    /** Source node (statistics only; routing is table-driven). */
    NodeId src = kInvalidNode;
    /** Final destination node: the routing key of destination
     *  entries (RoutingTable::route), so every frontend must set it. */
    NodeId dst = kInvalidNode;
    /** Index of this flit within its packet (0 = head). */
    std::uint32_t seq = 0;
    /** Total flits in the packet. */
    std::uint32_t packet_size = 1;
    /** True for the first flit of the packet. */
    bool head = false;
    /** True for the last flit of the packet. */
    bool tail = false;
    /** Opaque payload tag copied from the packet descriptor. */
    std::uint64_t payload = 0;

    /** Cycle the flit was injected into the source router ingress. */
    Cycle injected_cycle = 0;
    /**
     * Cycles between the packet head's injection and this flit's
     * injection (source-local, so skew-free). Tail latency plus this
     * offset gives head-injection-to-tail-delivery packet latency.
     */
    std::uint32_t inject_offset = 0;
    /**
     * Cycle at which the flit becomes visible in the buffer it currently
     * occupies (push cycle + link latency). Set on every push.
     */
    Cycle arrival_cycle = 0;
    /** Accumulated in-network latency in cycles (carried statistic). */
    std::uint64_t latency = 0;
    /** Number of router-to-router link traversals so far. */
    std::uint32_t hops = 0;
};

/**
 * Packet descriptor used at the injection interface; the bridge chops
 * it into flits (paper II-D: "dividing the packets into flits").
 */
struct PacketDesc
{
    /** Flow the packet belongs to (routing-table key). */
    FlowId flow = kInvalidFlow;
    /** Source node. */
    NodeId src = kInvalidNode;
    /** Destination node. */
    NodeId dst = kInvalidNode;
    /** Packet length in flits (>= 1). */
    std::uint32_t size = 1;
    /** Opaque payload tag (frontends use it to carry message ids). */
    std::uint64_t payload = 0;
    /**
     * Injection traffic class. When a bridge serves several message
     * classes whose endpoint progress depends on each other (e.g.
     * cache-coherence packets and MPI-style DMA messages), each class
     * is confined to its own share of the injection VCs so one class
     * cannot block the other at the source (protocol-deadlock
     * avoidance).
     */
    std::uint32_t vc_class = 0;
};

} // namespace hornet::net

#endif // HORNET_NET_FLIT_H
