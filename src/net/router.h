/**
 * @file
 * Cycle-level model of an ingress-queued virtual-channel wormhole
 * router (paper Fig 2).
 *
 * Packets arrive flit-by-flit on ingress ports and are buffered in
 * ingress VC buffers. When the head flit of a packet reaches the front
 * of its VC buffer, the packet enters route computation (RC); it then
 * waits in VC allocation (VA) until granted a next-hop VC; finally each
 * flit competes for the crossbar in switch arbitration (SA) and
 * transits in switch traversal (ST). RC and VA act once per packet, SA
 * and ST once per flit.
 *
 * Pipeline timing: RC and VA are attempted in the cycle the head flit
 * becomes visible at the buffer front; SA/ST eligibility starts the
 * cycle after VA succeeds. With the default link latency of 1 this
 * gives a 3-cycle per-hop zero-load latency (RC/VA, SA/ST, link).
 *
 * Arbitration ties in both VA and SA are broken with the tile's
 * private PRNG (paper II-A5).
 */
#ifndef HORNET_NET_ROUTER_H
#define HORNET_NET_ROUTER_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/flow_stats_table.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "net/flit.h"
#include "net/routing_table.h"
#include "net/vc_buffer.h"
#include "net/vca.h"
#include "sim/clocked.h"

namespace hornet::net {

/** Per-router hardware parameters (paper Table I knobs). */
struct RouterConfig
{
    /** VCs per network-facing ingress port. */
    std::uint32_t net_vcs = 4;
    /** Capacity of each network-port VC buffer, in flits. */
    std::uint32_t net_vc_capacity = 4;
    /** VCs on the CPU<->switch port (may differ, paper II-A1). */
    std::uint32_t cpu_vcs = 4;
    /** Capacity of each CPU-port VC buffer, in flits. */
    std::uint32_t cpu_vc_capacity = 8;
    /** Default per-direction link bandwidth, flits/cycle. */
    std::uint32_t link_bandwidth = 1;
    /** Max flits through the crossbar per cycle; 0 = unlimited. */
    std::uint32_t xbar_bandwidth = 0;
    /** VC allocation discipline. */
    VcaMode vca_mode = VcaMode::Dynamic;
    /**
     * Adaptive routing: when a routing-table entry offers several
     * next hops, pick the one with the most downstream credit instead
     * of a weighted-random draw (paper II-A2 "adaptive").
     */
    bool adaptive_routing = false;
};

/**
 * One router node; a Clocked component of its tile. Not thread-safe
 * except through the lock-free VC-buffer producer/consumer interfaces
 * and the demand words of pooled ports (pool_egress), which the peer
 * endpoint of a bidirectional link reads, possibly on another thread;
 * posedge()/negedge() must be called by the owning tile's thread only.
 */
class Router : public sim::Clocked
{
  public:
    /**
     * @param id         this node's id
     * @param neighbors  neighbor node ids in port order (network ports)
     * @param cfg        hardware parameters
     * @param rng        tile-private PRNG (not owned)
     * @param stats      tile-private statistics sink (not owned)
     * @param arena      arena the VC buffers and egress ports are
     *                   placed into (not owned; must outlive the
     *                   router). Null falls back to a private arena,
     *                   so standalone construction (tests, micro
     *                   benches) needs no placement plumbing.
     */
    Router(NodeId id, const std::vector<NodeId> &neighbors,
           const RouterConfig &cfg, Rng *rng, TileStats *stats,
           common::Arena *arena = nullptr);

    /** Node id of this router. */
    NodeId id() const { return id_; }
    /** Number of network-facing ports (one per neighbor). */
    std::uint32_t num_net_ports() const { return num_net_ports_; }
    /** CPU port index (== number of network ports). */
    PortId cpu_port() const { return num_net_ports_; }
    /** Hardware parameters this router was built with. */
    const RouterConfig &config() const { return cfg_; }

    /** Routing table (filled by the routing builders). */
    RoutingTable &routing_table() { return table_; }
    /** Routing table (read-only). */
    const RoutingTable &routing_table() const { return table_; }

    /** VCA table (filled by the VCA builders). */
    VcaTable &vca_table() { return vca_table_; }
    /** VCA table (read-only). */
    const VcaTable &vca_table() const { return vca_table_; }

    /**
     * Freeze the routing table alone into this router's arena: the
     * VCA builders read routing tables frozen while they still add to
     * the VCA tables. Idempotent.
     */
    void freeze_routing_table() { table_.freeze(arena_); }

    /**
     * Compile the routing and VCA tables into their frozen flat forms
     * (common::FlatTable), carving storage from the arena this router
     * was constructed into, so its per-flit probes stay in its own
     * placement group's cache/NUMA lines. Called by sim::System before
     * the first run, once table building is complete; idempotent.
     * After it, table add() panics.
     */
    void
    freeze_tables()
    {
        freeze_routing_table();
        vca_table_.freeze(arena_);
    }

    /**
     * Share @p donor's frozen routing and VCA tables instead of
     * building and freezing private ones (the sim::SystemBlueprint
     * seam). This router's tables must still be empty; @p donor — the
     * blueprint prototype's router for the same node — must already be
     * frozen and must outlive this router. After adoption the tables
     * report frozen() and add() panics, exactly as after a private
     * freeze; lookups are bitwise identical because they probe the
     * very same flat tables.
     */
    void
    adopt_tables(const Router &donor)
    {
        table_.adopt(donor.table_);
        vca_table_.adopt(donor.vca_table_);
    }

    /**
     * Return the router to its just-constructed dynamic state so a
     * drained system can be reused for another run (the sim::JobEngine
     * reset-and-rerun path): per-VC route/allocation progress, egress
     * VC ownership, pending releases, bandwidth and the demand words
     * of pooled ports all reset to their construction values (the
     * rerun's clock restarts at 0, so a kept word's cycle stamp could
     * match again). The frozen tables are untouched — they are
     * run-independent. Panics if any flit is still buffered here: a
     * non-drained router cannot be reset without losing traffic.
     */
    void reset_run_state();

    /**
     * Wire network egress @p port to the downstream router's ingress
     * buffers @p downstream (one per VC), with the given link latency.
     */
    void connect_egress(PortId port, NodeId next_node,
                        std::vector<VcBuffer *> downstream,
                        Cycle link_latency);

    /** Ingress buffer (downstream side of some upstream egress). */
    VcBuffer &ingress_buffer(PortId port, VcId vc);

    /** All ingress buffers of @p port, for connect_egress of a peer. */
    std::vector<VcBuffer *> ingress_buffers(PortId port);

    /** Injection buffer used by the local bridge (CPU ingress). */
    VcBuffer &injection_buffer(VcId vc);
    /** Number of injection (CPU-ingress) VCs. */
    std::uint32_t num_injection_vcs() const { return cfg_.cpu_vcs; }

    /** Ejection buffer drained by the local bridge (CPU egress). */
    VcBuffer &ejection_buffer(VcId vc);
    /** Number of ejection (CPU-egress) VCs. */
    std::uint32_t num_ejection_vcs() const { return cfg_.cpu_vcs; }

    /** Per-flow delivery statistics sink (optional). */
    void
    set_flow_stats(common::FlowStatsTable *fs)
    {
        flow_stats_ = fs;
    }

    // ------------------------------------------------------------------
    // Simulation (Clocked interface).
    // ------------------------------------------------------------------

    /** Positive clock edge: RC, VA, SA, ST (paper II-C). */
    void posedge(Cycle now) override;

    /** Negative clock edge: commit pops, apply staged VC releases. */
    void negedge(Cycle now) override;

    /** Idle iff no flit is physically buffered here. */
    bool idle(Cycle now) const override
    {
        (void)now;
        return !has_buffered_flits();
    }

    /** Routers never self-schedule; they only react to flits. */
    Cycle next_event(Cycle now) const override
    {
        (void)now;
        return kNoEvent;
    }

    /** Any flit physically buffered here (fast-forward test)?
     *  Includes ejection buffers not yet drained by the bridge. The
     *  ingress half of the answer comes from the occupancy masks
     *  (O(occupied VCs), exact — stale bits are settled against the
     *  buffers before answering). */
    bool has_buffered_flits() const;

    // ------------------------------------------------------------------
    // Occupancy masks and ingress wake records (docs/ENGINE.md,
    // "Component-granularity wakes").
    // ------------------------------------------------------------------

    /** Most VCs an ingress port may have: one occupancy-mask word per
     *  port. The constructor rejects larger configurations. */
    static constexpr std::uint32_t kMaxVcsPerPort = 64;

    /**
     * Forward the wakes of every network-port ingress buffer to
     * @p consumer (sim::Tile::set_router wires the owning tile here);
     * the CPU injection port's records forward nowhere, because the
     * tile's own bridge is their only producer. Every ingress buffer's
     * wake target is this router's wake record for its (port, vc),
     * installed by the constructor and never replaced: a producer push
     * sets the occupancy bit and the pending wake cycle, then reaches
     * @p consumer. Calling set_wake_target on an ingress buffer
     * instead would bypass the record, lose mask bits and strand
     * flits. Wiring time only (no simulation thread may touch the
     * router).
     */
    void forward_ingress_wakes(Wakeable *consumer);

    /**
     * Reference full scan, for tests: true when every non-empty
     * ingress buffer has its occupancy bit set — the invariant the
     * mask walks in posedge() and has_buffered_flits() rely on. Owner
     * thread, or while no simulation thread runs.
     */
    bool ingress_masks_cover_buffers() const;

    /**
     * Consume the earliest pending ingress arrival posted by pushes
     * since the last take (kNoEvent when none): the minimum of the
     * cross-thread and the same-thread pending cycles. Owner thread
     * only; the tile calls it at each cycle begin to decide when a
     * sleeping router must wake.
     */
    Cycle take_pending_wake();

    /** Any flit sitting in an ejection buffer, drained or not (owner
     *  thread; the tile keeps frontends awake while this holds, so
     *  delivered flits are always drained on time). */
    bool has_ejection_flits() const;

    // ------------------------------------------------------------------
    // Bidirectional links (paper II-A4; net/link.h).
    // ------------------------------------------------------------------

    /**
     * Free space across the downstream buffers of @p port, folded from
     * the buffers' credit views now. Only this router reads them:
     * adaptive route computation mid-posedge, and the effective demand
     * a pooled port publishes at the end of its posedge.
     */
    std::uint32_t egress_free_space(PortId port) const;

    /**
     * Pool egress @p port with egress @p peer_port of @p peer, the
     * router it faces, into one bidirectional link of @p pool
     * flits/cycle (link_pool). From then on each posedge of this
     * router first takes this port's share of the pool (link_split
     * over both ports' demand words of the previous cycle), and ends
     * by publishing the port's effective demand — flits ready to
     * leave, bounded by downstream free space — into its own word.
     * The peer pools its facing port the same way. Writes only this
     * port's state, so a Network may pair ports from several
     * construction threads; @p peer must outlive this router. Wiring
     * time only.
     */
    void pool_egress(PortId port, const Router &peer, PortId peer_port,
                     std::uint32_t pool);

    /** True when @p port is one end of a pooled bidirectional link. */
    bool
    egress_pooled(PortId port) const
    {
        return egress_.at(port)->peer != nullptr;
    }

    /**
     * Effective demand @p port published at the posedge of cycle @p c
     * (any thread). A word stamped with another cycle reads 0, which
     * is what an idle router publishes: a router that was not ticked
     * at @p c holds no visible flit. Unpooled ports always read 0.
     */
    std::uint32_t
    published_demand(PortId port, Cycle c) const
    {
        return read_demand(*egress_.at(port), c);
    }

    /** Current-cycle bandwidth of @p port (tests). */
    std::uint32_t
    egress_bandwidth(PortId port) const
    {
        return egress_[port]->bandwidth;
    }

  private:
    /** Per-ingress-VC packet progress (route + allocated next-hop VC). */
    struct VcState
    {
        /// The buffer's front flit once stage A has seen it visible
        /// (VcBuffer::front_ready): it stays put, and visible, until
        /// stage B pops it, so a VC blocked for many cycles is not
        /// re-read from its buffer. Cleared at every pop.
        const Flit *front = nullptr;
        bool route_valid = false;
        PortId out_port = kInvalidPort;
        NodeId next_node = kInvalidNode;
        FlowId next_flow = kInvalidFlow;
        bool vc_allocated = false;
        VcId out_vc = kInvalidVc;
        Cycle alloc_cycle = 0;
    };

    struct IngressPort
    {
        NodeId prev_node = kInvalidNode; ///< table key; == id_ for CPU port
        std::vector<VcBuffer *> vcs; ///< arena-placed (see ctor)
        std::vector<VcState> state;
    };

    /** Upstream-side ownership of one downstream VC. */
    struct EgressVcState
    {
        bool owned = false;
        PacketId owner_packet = 0;
        FlowId owner_flow = kInvalidFlow;
    };

    struct EgressPort
    {
        NodeId next_node = kInvalidNode;
        bool is_cpu = false;
        /// This end leaves the lower-id router of its pooled link: it
        /// takes link_split's share, the peer the rest.
        bool low_end = false;
        Cycle link_latency = 1;
        std::vector<VcBuffer *> downstream;
        std::vector<EgressVcState> vc_state;
        std::uint32_t bandwidth = 1;
        /// Flits/cycle of the pooled link (pooled ports only).
        std::uint32_t pool = 0;
        /// The peer router's facing port; null when not pooled.
        const EgressPort *peer = nullptr;
        /// Effective-demand words, slot c & 1 written at the end of
        /// posedge(c): the cycle stamp (its low 48 bits) in the high
        /// bits, the demand in the low kDemandBits, one word so a
        /// reader never sees a torn pair.
        /// Two slots keep the peer's read of cycle c - 1 apart from
        /// this router's write of cycle c in the same phase. On their
        /// own cache line: the peer endpoint reads them, possibly from
        /// another thread, and must not evict the owner's hot egress
        /// state above.
        alignas(common::kCacheLineSize)
            std::atomic<std::uint64_t> demand[2]{};
    };

    /// Low bits of a demand word holding the demand (saturating; a
    /// port's demand is bounded by its router's ingress VC count).
    static constexpr unsigned kDemandBits = 16;
    static constexpr std::uint64_t kDemandMask =
        (std::uint64_t{1} << kDemandBits) - 1;

    /** The demand @p ep published at posedge(@p c); 0 when its word
     *  for that slot carries another cycle's stamp. */
    static std::uint32_t
    read_demand(const EgressPort &ep, Cycle c)
    {
        const std::uint64_t w =
            ep.demand[c & 1].load(std::memory_order_relaxed);
        return (w & ~kDemandMask) == (c << kDemandBits)
                   ? static_cast<std::uint32_t>(w & kDemandMask)
                   : 0;
    }

    /**
     * Wake target of one ingress VC buffer. Producers notify on their
     * own thread; the record marks the (port, vc) occupancy bit and
     * the pending wake cycle on the router, then forwards the wake
     * unchanged to `next` (the owning tile for network-port buffers,
     * see forward_ingress_wakes), so tile-level scheduling is
     * untouched. A push into a local buffer arrives as notify_local()
     * and stays on the plain-store path all the way down.
     * One record per ingress (port, vc), installed in the constructor
     * and never moved (buffers point at them).
     */
    struct IngressWake final : Wakeable
    {
        Router *router = nullptr;   ///< record owner
        PortId port = kInvalidPort; ///< ingress port of the buffer
        VcId vc = kInvalidVc;       ///< VC of the buffer
        Wakeable *next = nullptr;   ///< forwarded-to target (may be null)

        /** Mark occupancy + pending wake, then forward to `next`. */
        void notify_activity(Cycle at) override { notify<false>(at); }

        /** Same, from the router's own thread (local buffer). */
        void notify_local(Cycle at) override { notify<true>(at); }

        /// Shared body; @p kLocal selects the plain-store path.
        template <bool kLocal>
        void
        notify(Cycle at)
        {
            router->note_ingress_push<kLocal>(port, vc, at);
            if (next == nullptr)
                return;
            if constexpr (kLocal)
                next->notify_local(at);
            else
                next->notify_activity(at);
        }
    };

    /**
     * Producer-side push note: a flit with arrival cycle @p at was
     * published into ingress buffer (@p port, @p vc). Sets the (port,
     * vc) occupancy bit and folds @p at into the pending wake cycle.
     * Cross-thread (@p kLocal false, any thread) the bit is a fetch_or
     * and the cycle a CAS-min into pending_wake_. With @p kLocal the
     * buffer is in local mode, so the pushing thread is this router's
     * own: the port's one producer and its owner are the same thread,
     * so a plain load and store set the bit, and the cycle folds into
     * the owner-private local_pending_wake_ — no RMW at all.
     */
    template <bool kLocal>
    void
    note_ingress_push(PortId port, VcId vc, Cycle at)
    {
        const std::uint64_t bit = std::uint64_t{1} << vc;
        std::atomic<std::uint64_t> &mask = ingress_mask_[port];
        if constexpr (kLocal) {
            mask.store(mask.load(std::memory_order_relaxed) | bit,
                       std::memory_order_relaxed);
            if (at < local_pending_wake_)
                local_pending_wake_ = at;
        } else {
            mask.fetch_or(bit, std::memory_order_acq_rel);
            Cycle cur = pending_wake_.load(std::memory_order_relaxed);
            while (at < cur && !pending_wake_.compare_exchange_weak(
                                   cur, at, std::memory_order_release,
                                   std::memory_order_relaxed)) {
            }
        }
    }

    /** Egress port toward @p next (the CPU port for this node itself);
     *  panics when @p next is not a neighbour. */
    PortId egress_port_to(NodeId next) const;

    void do_route_compute(IngressPort &ip, VcState &st, const Flit &f);
    bool try_vc_allocate(IngressPort &ip, VcState &st, const Flit &f,
                         Cycle now);

    /**
     * Clear the occupancy bit of (@p port, @p vc), then re-set it if
     * the buffer turns out to be non-empty. The clear-then-verify
     * order makes concurrent producer pushes safe: the RMWs on the
     * mask word are totally ordered, so if our clear lands after a
     * producer's set, the acquire side of the clear also sees the
     * producer's earlier publication of the flit and the size check
     * re-sets the bit; if it lands before, the producer's set simply
     * survives. Either way no occupied buffer ever ends up unmasked.
     * A local buffer's producer is this thread, so nothing can push
     * between the check and the store: plain operations suffice. (All
     * VCs of a port share one producer and hence one locality, so the
     * word never mixes plain and RMW writers.)
     */
    void
    settle_ingress_bit(PortId port, VcId vc) const
    {
        const std::uint64_t bit = std::uint64_t{1} << vc;
        const VcBuffer &buf = *ingress_[port].vcs[vc];
        std::atomic<std::uint64_t> &mask = ingress_mask_[port];
        if (buf.local()) {
            const std::uint64_t m =
                mask.load(std::memory_order_relaxed) & ~bit;
            mask.store(buf.size_raw() != 0 ? m | bit : m,
                       std::memory_order_relaxed);
            return;
        }
        mask.fetch_and(~bit, std::memory_order_acq_rel);
        if (buf.size_raw() != 0)
            mask.fetch_or(bit, std::memory_order_acq_rel);
    }

    /** Downstream credit for (egress port, vc). */
    std::uint32_t
    downstream_credit(const EgressPort &ep, VcId vc) const
    {
        return ep.downstream[vc]->free_slots();
    }

    /** Publish @p demand flits ready to leave through pooled @p port
     *  at posedge(@p now), bounded by downstream free space. An unset
     *  word reads 0, so a zero demand needs no store. */
    void
    publish_demand(PortId port, std::uint32_t demand, Cycle now)
    {
        EgressPort &ep = *egress_[port];
        if (ep.peer == nullptr || demand == 0)
            return;
        const std::uint64_t eff = std::min<std::uint64_t>(
            {demand, egress_free_space(port), kDemandMask});
        ep.demand[now & 1].store((now << kDemandBits) | eff,
                                 std::memory_order_relaxed);
    }

    /** Recompute the stage-B per-(egress, out VC) flag offsets after
     *  the egress VC counts change (construction, connect_egress). */
    void index_out_vcs();

    NodeId id_;
    std::uint32_t num_net_ports_;
    RouterConfig cfg_;
    Rng *rng_;
    TileStats *stats_;
    RoutingTable table_;
    VcaTable vca_table_;
    common::FlowStatsTable *flow_stats_ = nullptr;

    /// Fallback arena when none was supplied (standalone routers);
    /// the buffers/ports below are raw pointers into whichever arena
    /// ended up backing this router.
    std::unique_ptr<common::Arena> own_arena_;
    /// The arena backing this router (the caller's placement-group
    /// arena or own_arena_); freeze_tables() carves from it too.
    common::Arena *arena_ = nullptr;
    std::vector<IngressPort> ingress_;
    std::vector<EgressPort *> egress_;
    std::vector<VcBuffer *> ejection_;

    /** (port, vc) pairs whose ownership releases at the next negedge. */
    std::vector<std::pair<PortId, VcId>> pending_releases_;

    // -------- occupancy masks and wake records ----------------------
    /**
     * Per-ingress-port VC occupancy masks: bit v of word p is set when
     * buffer (p, v) may hold flits. Producers set bits (via the wake
     * records, any thread); the owner settles stale bits with
     * settle_ingress_bit(). Mutable because the owner settles bits
     * from const queries (has_buffered_flits) — the masks are
     * scheduling bookkeeping, not simulation state.
     */
    std::unique_ptr<std::atomic<std::uint64_t>[]> ingress_mask_;
    /** Earliest arrival posted by cross-thread note_ingress_push
     *  since the last take_pending_wake (any thread; kNoEvent when
     *  none). */
    std::atomic<Cycle> pending_wake_{kNoEvent};
    /** Same, for pushes into local buffers (owner thread only). */
    Cycle local_pending_wake_ = kNoEvent;
    /** One wake record per ingress (port, vc), in (port, vc) order;
     *  sized in the ctor and never resized (buffers point into it). */
    std::vector<IngressWake> wake_records_;
    /** Ingress buffers popped this cycle (bounded by the one-flit-per-
     *  ingress-port crossbar constraint); the negedge commits exactly
     *  these instead of scanning every buffer. */
    std::vector<std::pair<PortId, VcId>> popped_dirty_;

    /** Scratch vectors reused across cycles to avoid allocation. */
    std::vector<std::pair<PortId, VcId>> scratch_candidates_;
    /// Adaptive route compute's most-credit options (do_route_compute).
    std::vector<const RouteResult *> scratch_maxima_;
    std::vector<VcId> scratch_vcs_;
    // Stage-B scratch, hoisted out of posedge() (it used to heap-
    // allocate four vectors per tick, on every scheduler).
    std::vector<std::pair<PortId, VcId>> scratch_sb_;
    std::vector<std::uint32_t> scratch_demand_;
    std::vector<char> scratch_in_port_used_;
    std::vector<std::uint32_t> scratch_eg_bw_left_;
    /** Flattened per-(egress, out vc) single-write flags, indexed by
     *  out_vc_base_[egress] + vc. */
    std::vector<char> scratch_out_vc_used_;
    /** First flag index of each egress port's VCs, and the flag count
     *  (index_out_vcs, at wiring time). */
    std::vector<std::size_t> out_vc_base_;
    std::size_t total_out_vcs_ = 0;
    // VCA scratch, hoisted out of try_vc_allocate for the same reason.
    std::vector<double> scratch_weights_;
    std::vector<VcId> scratch_grantable_;
    std::vector<double> scratch_gweights_;
};

} // namespace hornet::net

#endif // HORNET_NET_ROUTER_H
