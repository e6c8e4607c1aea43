/**
 * @file
 * Lock-free single-producer/single-consumer virtual-channel buffer.
 *
 * VC buffers are the *only* communication points between tiles (paper
 * II-C). Each buffer has exactly one producer (the upstream router's
 * egress, or a local injector) and one consumer (the downstream
 * router), which makes push/pop the hottest path of every simulation.
 * The buffer therefore uses no locks at all: the fixed ring is
 * coordinated purely through the monotonic sequence counters, with an
 * acquire/release protocol between the two ends, and flow occupancy
 * (EDVCA/FAA, paper II-A3) lives in a fixed-capacity inline table of
 * atomic counts instead of a mutex-protected map. The full memory
 * model — who writes which atomic, which orderings pair up, and why —
 * is documented in docs/ENGINE.md, "VcBuffer memory model".
 *
 * Determinism discipline:
 *  - a pushed flit becomes visible to the consumer only once the
 *    consumer's clock reaches the flit's arrival_cycle;
 *  - pops are *committed at the negative edge*, so the producer sees
 *    freed credit one cycle later. Under cycle-accurate barrier
 *    synchronization this makes parallel simulation bitwise identical
 *    to sequential simulation.
 *
 * Same-shard fast path:
 *    when the wiring layer knows producer and consumer are stepped by
 *    the same thread — intra-tile buffers always (a tile is never
 *    split across threads; marked by sim::System), inter-tile buffers
 *    whose two tiles land in the same engine shard (marked per run by
 *    sim::Engine) — the buffer is switched to *local* mode: the hot
 *    paths (push/flush/pop/commit) drop to relaxed ordering and
 *    the flow table uses plain load/store arithmetic instead of
 *    read-modify-write ops. This is the common case for 1-thread and
 *    large-shard runs.
 *
 * Batched (window) handoff:
 *    when the producer and consumer run in different engine shards, the
 *    engine may put the buffer in *batched* mode: push() stages flits
 *    in a producer-private window array instead of publishing them, and
 *    flush_staged() — called by the producing shard at each window
 *    rendezvous — publishes the whole window's flits with a single
 *    release store. The producer-side logical views (credits, flow
 *    occupancy for EDVCA) include staged flits, so upstream decisions
 *    are identical to unbatched operation; the consumer-side physical
 *    views exclude them until the flush. In lockstep windows the
 *    engine also flushes at every intra-window cycle barrier, so
 *    observable behaviour is bitwise identical to unbatched pushes (a
 *    pushed flit only ever becomes visible at its arrival_cycle, at
 *    least one cycle after the push); in free-running windows
 *    visibility is deferred to the next rendezvous, which is exactly
 *    the loose-synchronization error envelope.
 *
 * Storage (ISSUE 6): all hot per-buffer arrays — the flit ring, the
 * flow table, and the pending-pop list — are carved from one packed
 * slab, optionally placed in a caller-supplied common::Arena so that
 * every buffer of one engine shard sits back-to-back in that shard's
 * memory. The credit discipline bounds each array by `capacity`
 * entries, so nothing ever grows. Only the batching window (a cold,
 * cross-shard-only feature) is heap-allocated, lazily, on the first
 * set_batched(true).
 */
#ifndef HORNET_NET_VC_BUFFER_H
#define HORNET_NET_VC_BUFFER_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/ring.h"
#include "common/types.h"
#include "common/wakeable.h"
#include "net/flit.h"

namespace hornet::common {
class Arena;
}

namespace hornet::net {

/**
 * Single-producer single-consumer bounded flit FIFO with a lock-free
 * acquire/release ring protocol and negedge-committed credits.
 * Over-aligned to the cache line so the consumer-written tail of one
 * buffer never shares a line with the head of an adjacent object (the
 * members are partitioned by writing side; see the layout comment).
 */
class alignas(common::kCacheLineSize) VcBuffer
{
  public:
    /**
     * @param capacity maximum number of buffered flits (>= 1).
     * @param arena    optional arena to carve the ring/flow-table slab
     *                 from; the buffer then holds raw pointers into it
     *                 and must not outlive the arena. Null (default)
     *                 falls back to a private heap block.
     */
    explicit VcBuffer(std::uint32_t capacity = 4,
                      common::Arena *arena = nullptr);

    /** Frees the private slab when no arena was supplied. */
    ~VcBuffer();

    VcBuffer(const VcBuffer &) = delete;
    VcBuffer &operator=(const VcBuffer &) = delete;

    /** Maximum number of buffered flits. */
    std::uint32_t capacity() const { return capacity_; }

    /**
     * Switch the unsynchronized same-thread fast path on or off: in
     * local mode the hot paths use relaxed ordering and the flow
     * table skips read-modify-write ops, which is sound only while
     * producer and consumer run on one thread. Set at wiring time by
     * the layer that knows thread placement (sim::System for
     * intra-tile buffers, sim::Engine per run for inter-tile buffers
     * whose endpoints share a shard), and only while no simulation
     * thread touches the buffer.
     */
    void set_local(bool on) { local_ = on; }

    /** True when the unsynchronized same-thread fast path is active. */
    bool local() const { return local_; }

    /**
     * Register the consumer of this buffer for push-based wake-up
     * (the event-driven scheduler seam). When set, every publication
     * of flits — a direct push, or the flush of a staged batch —
     * notifies @p consumer with the earliest arrival_cycle published,
     * from the *producer's* thread. Null (the default) disables
     * notification entirely. A router's ingress buffers are wired to
     * the router's wake records by its constructor and must not be
     * re-targeted (see net::Router::forward_ingress_wakes); a tile
     * wires its router's ejection buffers in sim::Tile::set_router.
     */
    void set_wake_target(Wakeable *consumer) { wake_ = consumer; }

    // ------------------------------------------------------------------
    // Producer (upstream) side.
    // ------------------------------------------------------------------

    /**
     * Credits available to the producer: capacity minus flits pushed
     * (published or staged) and not yet *committed* popped.
     * Conservative (freed space shows up one negedge later), which is
     * what makes parallel cycle-accurate runs deterministic. Exact on
     * the producer's own thread, which is the only thread that may
     * use it as a push authorization, and the only one that reads it
     * in a run (the far end of a bidirectional link reads the near
     * router's published demand, not its buffers). Another thread
     * would get a snapshot that can be stale in either direction — a
     * remote reader can miss recent pushes as easily as recent
     * commits.
     */
    std::uint32_t
    free_slots() const
    {
        std::uint64_t pushed = pushed_.load(std::memory_order_acquire);
        std::uint64_t popped =
            popped_committed_.load(std::memory_order_acquire);
        std::uint64_t in_use =
            pushed - popped + staged_count_.load(std::memory_order_acquire);
        return in_use >= capacity_
                   ? 0
                   : capacity_ - static_cast<std::uint32_t>(in_use);
    }

    /**
     * Push a flit; the caller must have checked free_slots() > 0.
     * @p f.arrival_cycle must already be set by the caller. In batched
     * mode the flit is staged producer-side until flush_staged().
     */
    void push(const Flit &f);

    /**
     * Enable or disable batched (window) handoff. Producer-side only:
     * must be called by the producing thread, or while no thread
     * touches the buffer (e.g. before an engine run starts or after it
     * ends). Disabling flushes any staged flits. The first enable
     * allocates the window array (heap, not slab: only cross-shard
     * buffers ever batch, and never on the lockstep fast path).
     */
    void set_batched(bool on);

    /** True when pushes are currently staged rather than published. */
    bool batched() const { return batched_; }

    /**
     * Publish all staged flits to the consumer in push order (one
     * release store for the whole batch). Called by the producing
     * thread at a window rendezvous. Returns the number of flits
     * published.
     */
    std::uint32_t flush_staged();

    /** Flits staged and not yet published. */
    std::uint32_t
    staged_count() const
    {
        return staged_count_.load(std::memory_order_acquire);
    }

    /** Total flits ever published to the consumer (excludes flits
     *  still staged in batched mode; tests / conservation checks). */
    std::uint64_t
    total_pushed() const
    {
        return pushed_.load(std::memory_order_acquire);
    }

    /** Total pops committed so far (tests / conservation checks). */
    std::uint64_t
    total_popped_committed() const
    {
        return popped_committed_.load(std::memory_order_acquire);
    }

    // ------------------------------------------------------------------
    // Consumer (downstream) side.
    // ------------------------------------------------------------------

    /**
     * The front flit if one is present *and visible* at local cycle
     * @p now (arrival_cycle <= now); nullptr otherwise. Consumer
     * thread only. The flit is read in place, not copied: the pointer
     * stays valid, and the flit unchanged, until the next pop() — the
     * producer never writes an occupied ring slot. A caller that needs
     * the flit after popping uses pop()'s return value.
     */
    const Flit *
    front_ready(Cycle now) const
    {
        // Only the consumer writes popped_actual_, so the relaxed
        // self-read is exact; the acquire on pushed_ pairs with the
        // producer's release, making the slot contents visible (and
        // costs nothing in local mode on x86, like the other inline
        // views).
        const std::uint64_t head =
            popped_actual_.load(std::memory_order_relaxed);
        if (head == pushed_.load(std::memory_order_acquire))
            return nullptr;
        const Flit *f = &ring_[head % capacity_];
        return f->arrival_cycle <= now ? f : nullptr;
    }

    /** True when no flits are physically present (even invisible ones). */
    bool
    empty_raw() const
    {
        return popped_actual_.load(std::memory_order_acquire) ==
               pushed_.load(std::memory_order_acquire);
    }

    /** Number of flits physically present (visible or not). */
    std::uint32_t
    size_raw() const
    {
        return static_cast<std::uint32_t>(
            pushed_.load(std::memory_order_acquire) -
            popped_actual_.load(std::memory_order_acquire));
    }

    /**
     * Pop the front flit and return a copy of it. The caller must have
     * observed it via front_ready(). The credit is returned to the
     * producer only at the next commit_negedge().
     */
    Flit pop();

    /** Commit all pops performed since the previous commit. Called by
     *  the consumer tile at its negative edge. */
    void commit_negedge();

    // ------------------------------------------------------------------
    // Content inspection (EDVCA / FAA, paper II-A3).
    // ------------------------------------------------------------------

    /**
     * True when every flit logically in the buffer (pushed and not yet
     * committed-popped) belongs to @p flow — or the buffer is logically
     * empty. This is the EDVCA exclusivity query (producer-side: the
     * upstream allocator asks it about its own downstream buffers).
     */
    bool exclusively_holds(FlowId flow) const;

    /** True when the buffer is logically empty (credit view; staged
     *  flits count as present). */
    bool
    logically_empty() const
    {
        return logical_size() == 0;
    }

    /** Flits logically present: pushed (published or staged) minus
     *  committed pops. */
    std::uint32_t
    logical_size() const
    {
        return static_cast<std::uint32_t>(
            pushed_.load(std::memory_order_acquire) -
            popped_committed_.load(std::memory_order_acquire) +
            staged_count_.load(std::memory_order_acquire));
    }

    /** Number of distinct flows logically present (tests / FAA). */
    std::size_t distinct_flows() const;

  private:
    /**
     * One entry of the inline flow-occupancy table. A slot is claimed
     * (by the producer only) when count goes 0 -> 1, and free when
     * count == 0; the flow id of a free slot is stale and never read.
     * The producer is the only thread that writes `flow` and the only
     * one that increments `count`; the consumer only decrements, at
     * commit_negedge, for flits it popped. The credit discipline
     * bounds logical occupancy by the buffer capacity, so `capacity_`
     * slots always suffice (at most one slot per distinct flow).
     *
     * Deliberately *not* padded to cache-line granularity (ISSUE 5
     * audit): producer charge and consumer discharge act on the same
     * slot whenever they act on the same flow — wormhole traffic's
     * common case — so that sharing is inherent, and per-slot padding
     * only separates *different* flows of one VC. Measured on this
     * container, line-padding these slots (and the flit ring) inflated
     * a 16x16 mesh's working set past cache/TLB reach and cost up to
     * 2x wall time at low load, dwarfing any false-sharing win; see
     * docs/BENCHMARKS.md, "The wake mailbox and the layout audit".
     */
    struct FlowSlot
    {
        std::atomic<FlowId> flow{kInvalidFlow};
        std::atomic<std::uint32_t> count{0};
    };

    // The hot paths are templated on locality so every atomic access
    // carries a *compile-time* memory order: relaxed in the kLocal
    // instantiation, acquire/release otherwise. (A runtime-selected
    // memory_order defeats the point — GCC lowers it to the strongest
    // order, turning every release store into a serializing xchg.)

    /// push() body; see the class comment for the protocol.
    template <bool kLocal> void push_impl(const Flit &f);

    /// flush_staged() body.
    template <bool kLocal> std::uint32_t flush_impl();

    /// pop() body.
    template <bool kLocal> Flit pop_impl();

    /// commit_negedge() body.
    template <bool kLocal> void commit_impl();

    /// Charge one flit of @p flow to the table (producer side).
    template <bool kLocal> void flow_add(FlowId flow);

    /// Discharge one committed flit of @p flow (consumer side).
    template <bool kLocal> void flow_remove(FlowId flow);

    // Members are grouped by writer, each group starting on its own
    // cache line (common::kCacheLineSize), so one side's writes never
    // invalidate the other side's private state. The class itself is
    // over-aligned (see the declaration) so the consumer group's tail
    // never shares a line with whatever object follows this one in an
    // array or allocation. The slab payloads (ring, flow table,
    // pending pops) are one packed carve — see the ctor — compact on
    // purpose per the FlowSlot comment.

    // -------- read-mostly wiring state (written while quiescent) ----
    const std::uint32_t capacity_;
    /// Flit ring: slot i holds sequence number k with k % cap == i.
    /// First section of the slab carve.
    Flit *ring_ = nullptr;
    /// Flits logically present per flow; capacity_ slots (slab carve).
    FlowSlot *flow_table_ = nullptr;
    /// Consumer wake target (event-driven scheduling seam); set once
    /// at wiring time, before any simulation thread runs.
    Wakeable *wake_ = nullptr;
    /// Same-thread fast path (see set_local). Plain bool: only ever
    /// flipped while the buffer is quiescent.
    bool local_ = false;
    /// Slab block owned by this buffer when constructed without an
    /// arena (tests, standalone routers); null for arena carves.
    void *owned_block_ = nullptr;
    /// Pending-pop ring: flows popped since the last commit (consumer
    /// -thread private; capacity_ slots of the slab carve). Only the
    /// *pointer* lives here with the wiring state — the contents and
    /// pending_pop_count_ below belong to the consumer.
    FlowId *pending_pop_flows_ = nullptr;

    // -------- producer-written state --------------------------------
    /// Publication counter: the ring's tail sequence number.
    alignas(common::kCacheLineSize) std::atomic<std::uint64_t> pushed_{0};
    /// Last slot flow_add() touched. Wormhole traffic usually parks
    /// one flow per VC, so the hinted slot hits almost always and the
    /// charge is O(1) instead of a table scan.
    std::size_t add_hint_ = 0;
    /// Batched-handoff state. The staged_ window itself is
    /// producer-thread private (lazily heap-allocated by the first
    /// set_batched(true) — only cross-shard buffers ever batch);
    /// staged_count_ mirrors staged_size_ for the credit/occupancy
    /// views above. Only the producing router (or bridge) reads those
    /// views in a run; the atomic keeps them well-defined for any
    /// other reader. Flow counting for staged flits happens at push
    /// time, so the logical views stay exact.
    bool batched_ = false;
    std::atomic<std::uint32_t> staged_count_{0};
    std::unique_ptr<Flit[]> staged_;
    std::uint32_t staged_size_ = 0;
    /// Earliest arrival_cycle among staged flits (producer-private).
    Cycle staged_min_arrival_ = kNoEvent;

    // -------- consumer-written state --------------------------------
    /// Pop counter (advances at pop; frees the ring slot).
    alignas(common::kCacheLineSize) std::atomic<std::uint64_t> popped_actual_{0};
    /// Commit counter (advances at the negedge; frees the credit).
    std::atomic<std::uint64_t> popped_committed_{0};
    /// Last slot flow_remove() touched (consumer's own hint).
    std::size_t remove_hint_ = 0;
    /// Pops staged in pending_pop_flows_ since the last commit.
    std::uint32_t pending_pop_count_ = 0;
};

} // namespace hornet::net

#endif // HORNET_NET_VC_BUFFER_H
