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
 * and the atomic egress views (egress_demand / egress_free_space /
 * set_egress_bandwidth_next, polled by link arbiters possibly on
 * another thread); posedge()/negedge() must be called by the owning
 * tile's thread only.
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
        table_.freeze(arena_);
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
     * VC ownership, pending releases and the arbiter-facing atomics
     * (bandwidth, demand, free-space snapshot) all reset to their
     * construction values. The frozen tables are untouched — they are
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
     * Producer-side push note (any thread): a flit with arrival cycle
     * @p at was published into ingress buffer (@p port, @p vc). Sets
     * the (port, vc) occupancy bit and folds @p at into the pending
     * wake cycle; called by the ingress wake records on the pushing
     * thread.
     */
    void note_ingress_push(PortId port, VcId vc, Cycle at);

    /**
     * Consume the earliest pending ingress arrival posted by
     * note_ingress_push() since the last take (kNoEvent when none).
     * Owner thread only; the tile's fine scheduler calls it at each
     * cycle begin to decide when a sleeping router must wake.
     */
    Cycle take_pending_wake();

    /** Any flit sitting in an ejection buffer, drained or not (owner
     *  thread; the tile's fine scheduler keeps frontends awake while
     *  this holds, so delivered flits are always drained on time). */
    bool has_ejection_flits() const;

    // ------------------------------------------------------------------
    // Bidirectional-link support (paper II-A4).
    // ------------------------------------------------------------------

    /** Flits ready to leave through @p port (published at posedge). */
    std::uint32_t
    egress_demand(PortId port) const
    {
        return egress_[port]->demand.load(std::memory_order_acquire);
    }

    /**
     * Free space across the downstream buffers of @p port, folded from
     * the buffers' credit views *now*. Exact on the owning thread —
     * adaptive route computation uses it mid-posedge — but NOT
     * phase-stable: a cross-thread reader races the consumer's pop
     * commits. Link arbiters therefore read the posedge-published
     * egress_free_space_snapshot() instead (the determinism fix for
     * ROADMAP corner (a)); only the producing router's own view is
     * ever a push authorization.
     */
    std::uint32_t egress_free_space(PortId port) const;

    /**
     * Phase-stable downstream free space of @p port, published at the
     * end of this router's posedge exactly like `demand` (any thread).
     * It reflects the router's own pushes up to and including the
     * publishing cycle's stage B, and remote pop commits up to the
     * previous negedge — both fixed by the inter-phase barrier under
     * lockstep windows, which is what makes bidirectional-link
     * arbitration reproducible across shard counts. Only maintained on
     * ports marked by enable_free_space_snapshot() (zero cost
     * elsewhere); like the demand it rides with, it is a bandwidth-
     * split input, never a push credit.
     */
    std::uint32_t
    egress_free_space_snapshot(PortId port) const
    {
        return egress_[port]->free_space.load(std::memory_order_acquire);
    }

    /**
     * Ask posedge to publish the free-space snapshot of @p port.
     * Called at wiring time by BidirLink for its two endpoint ports;
     * ports without an arbiter skip the fold entirely.
     */
    void
    enable_free_space_snapshot(PortId port)
    {
        egress_.at(port)->publish_free_space = true;
        egress_[port]->free_space.store(egress_free_space(port),
                                        std::memory_order_release);
    }

    /** Set next-cycle bandwidth of @p port (called by a link arbiter
     *  during the negedge phase). */
    void
    set_egress_bandwidth_next(PortId port, std::uint32_t bw)
    {
        egress_[port]->bandwidth_next.store(bw, std::memory_order_release);
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
        Cycle link_latency = 1;
        std::vector<VcBuffer *> downstream;
        std::vector<EgressVcState> vc_state;
        std::uint32_t bandwidth = 1;
        /// Link-arbiter seam, on its own cache line: bandwidth_next is
        /// written by the BidirLink arbiter — potentially from the
        /// other endpoint's thread — and demand is read by it, so this
        /// cross-thread traffic must not evict the owner's hot egress
        /// state above (the downstream buffer pointers and VC
        /// ownership it walks every cycle).
        alignas(common::kCacheLineSize)
            std::atomic<std::uint32_t> bandwidth_next{1};
        std::atomic<std::uint32_t> demand{0};
        /// Phase-stable downstream free space, published at posedge
        /// alongside demand (see egress_free_space_snapshot). Only
        /// folded when publish_free_space is set.
        std::atomic<std::uint32_t> free_space{0};
        /// Posedge publishes the free-space snapshot of this port
        /// (set by enable_free_space_snapshot for arbiter endpoints).
        bool publish_free_space = false;
    };

    /**
     * Wake target of one ingress VC buffer. Producers notify on their
     * own thread; the record marks the (port, vc) occupancy bit and
     * the pending wake cycle on the router, then forwards the wake
     * unchanged to `next` (the owning tile for network-port buffers,
     * see forward_ingress_wakes), so tile-level scheduling is
     * untouched.
     * One record per ingress (port, vc), installed in the constructor
     * and never moved (buffers point at them).
     */
    struct IngressWake : Wakeable
    {
        Router *router = nullptr;   ///< record owner
        PortId port = kInvalidPort; ///< ingress port of the buffer
        VcId vc = kInvalidVc;       ///< VC of the buffer
        Wakeable *next = nullptr;   ///< forwarded-to target (may be null)

        /** Mark occupancy + pending wake, then forward to `next`. */
        void
        notify_activity(Cycle at) override
        {
            router->note_ingress_push(port, vc, at);
            if (next != nullptr)
                next->notify_activity(at);
        }
    };

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
     */
    void
    settle_ingress_bit(PortId port, VcId vc) const
    {
        const std::uint64_t bit = std::uint64_t{1} << vc;
        ingress_mask_[port].fetch_and(~bit, std::memory_order_acq_rel);
        if (ingress_[port].vcs[vc]->size_raw() != 0)
            ingress_mask_[port].fetch_or(bit, std::memory_order_acq_rel);
    }

    /** Downstream credit for (egress port, vc). */
    std::uint32_t
    downstream_credit(const EgressPort &ep, VcId vc) const
    {
        return ep.downstream[vc]->free_slots();
    }

    /** Publish the posedge free-space snapshot of @p port when the
     *  port is arbiter-facing (see enable_free_space_snapshot). */
    void
    publish_free_space_snapshot(PortId port)
    {
        EgressPort &ep = *egress_[port];
        if (!ep.publish_free_space)
            return;
        std::uint32_t total = 0;
        for (const auto *b : ep.downstream)
            total += b->free_slots();
        ep.free_space.store(total, std::memory_order_release);
    }

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
    /** Earliest arrival posted by note_ingress_push since the last
     *  take_pending_wake (any thread; kNoEvent when none). */
    std::atomic<Cycle> pending_wake_{kNoEvent};
    /** One wake record per ingress (port, vc), in (port, vc) order;
     *  sized in the ctor and never resized (buffers point into it). */
    std::vector<IngressWake> wake_records_;
    /** Ingress buffers popped this cycle (bounded by the one-flit-per-
     *  ingress-port crossbar constraint); the negedge commits exactly
     *  these instead of scanning every buffer. */
    std::vector<std::pair<PortId, VcId>> popped_dirty_;

    /** Scratch vectors reused across cycles to avoid allocation. */
    std::vector<std::pair<PortId, VcId>> scratch_candidates_;
    std::vector<VcId> scratch_vcs_;
    // Stage-B scratch, hoisted out of posedge() (it used to heap-
    // allocate four vectors per tick, on every scheduler).
    std::vector<std::pair<PortId, VcId>> scratch_sb_;
    std::vector<std::uint32_t> scratch_demand_;
    std::vector<char> scratch_in_port_used_;
    std::vector<std::uint32_t> scratch_eg_bw_left_;
    /** Flattened per-(egress, out vc) single-write flags... indexed by
     *  scratch_vc_base_[egress] + vc. */
    std::vector<char> scratch_out_vc_used_;
    std::vector<std::size_t> scratch_vc_base_;
    // VCA scratch, hoisted out of try_vc_allocate for the same reason.
    std::vector<double> scratch_weights_;
    std::vector<VcId> scratch_grantable_;
    std::vector<double> scratch_gweights_;
};

} // namespace hornet::net

#endif // HORNET_NET_ROUTER_H
