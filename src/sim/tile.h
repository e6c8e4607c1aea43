/**
 * @file
 * A tile: one clock domain and the Clocked components attached to it —
 * a virtual-channel router and any traffic frontends — plus a private
 * pseudorandom number generator and the data structures required for
 * collecting statistics (paper II-C). A tile is never split across
 * threads.
 *
 * The tile ticks its components generically through the Clocked
 * interface; it knows nothing about what the components are. Ordering
 * within an edge is fixed by component kind so that results are
 * reproducible: frontends tick before the router at the positive edge
 * (so their pushes surface next cycle), and the router commits before
 * the frontends at the negative edge.
 *
 * The tile is the shard scheduler's unit of sleeping, and each of its
 * components sleeps on its own inside it: it ticks only its awake
 * components, caches its aggregate busy()/next_event()/done() folds
 * (valid until the next tick or wake), and implements Wakeable so that
 * producers pushing into its ingress VC buffers — possibly from
 * another thread — can announce new work via notify_activity(), which
 * invalidates the cache and forwards the wake to the owning shard's
 * scheduler (docs/ENGINE.md, "Event-driven shards").
 */
#ifndef HORNET_SIM_TILE_H
#define HORNET_SIM_TILE_H

#include <atomic>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flow_stats_table.h"
#include "common/log.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/wakeable.h"
#include "net/router.h"
#include "sim/clocked.h"
#include "sim/frontend.h"

namespace hornet::sim {

/** One simulated tile with its own clock. */
class Tile : public Wakeable
{
  public:
    /**
     * Receiver of tile wake-ups (implemented by the event-driven shard
     * scheduler). wake() may be invoked from any thread — the producer
     * of a cross-shard flit wakes the *consumer's* tile from its own
     * thread — and must record the wake for application at the
     * receiving scheduler's next synchronization point.
     */
    class WakeSink
    {
      public:
        /** Sinks are owned by the engine, not by tiles. */
        virtual ~WakeSink() = default;
        /** Tile @p t has externally produced work actionable at cycle
         *  @p at; schedule it no later than that. */
        virtual void wake(Tile &t, Cycle at) = 0;

        /** Same as wake(), invoked on the sink's own worker thread (a
         *  push into a local buffer, Tile::notify_local), so no
         *  thread check or cross-thread post is needed. The default
         *  forwards to wake(). */
        virtual void wake_local(Tile &t, Cycle at) { wake(t, at); }
    };

    /** @param id this tile's node id; @param seed its private PRNG seed. */
    Tile(NodeId id, std::uint64_t seed) : id_(id), rng_(seed) {}

    /** Node id of this tile. */
    NodeId id() const { return id_; }
    /** Tile-private pseudorandom number generator (paper II-A5). */
    Rng &rng() { return rng_; }
    /** Tile-private statistics sink. */
    TileStats &stats() { return stats_; }
    /** Tile-private statistics sink (read-only). */
    const TileStats &stats() const { return stats_; }

    /** Per-flow delivery statistics: a dense frozen table (hot
     *  per-flit path; sim::System freezes it onto the deliverable-flow
     *  ids before the first run). The ordered view is produced at
     *  stats-merge time. */
    common::FlowStatsTable &flow_stats() { return flow_stats_; }
    /** Per-flow delivery statistics (read-only). */
    const common::FlowStatsTable &flow_stats() const
    {
        return flow_stats_;
    }

    /** Local clock (cycles completed). */
    Cycle now() const { return now_; }

    /**
     * Jump the clock forward to @p c (fast-forward; called by the
     * engine only, on behalf of a SyncPolicy). The simulated clock is
     * monotonic: moving it backwards is a simulator bug.
     */
    void
    advance_to(Cycle c)
    {
        if (c < now_)
            panic(strcat("Tile ", id_, ": clock may only move forward "
                         "(now=", now_, ", target=", c, ")"));
        if (c != now_) {
            now_ = c;
            // The aggregates are queried at the new clock value; an
            // idle component may have become due (e.g. an injector
            // whose injection cycle was just reached).
            invalidate_aggregates();
        }
    }

    // ------------------------------------------------------------------
    // Event-driven scheduling seam (docs/ENGINE.md).
    // ------------------------------------------------------------------

    /**
     * Register (or, with nullptr, deregister) the scheduler interested
     * in this tile's wake-ups. Set by the engine before its worker
     * threads start and cleared after they join; notify_activity()
     * without a sink only invalidates the aggregate cache.
     */
    void set_wake_sink(WakeSink *sink) { wake_sink_ = sink; }

    /**
     * Announce externally produced work actionable at cycle @p at
     * (Wakeable; invoked by the VC buffers this tile consumes from, on
     * the producer's thread). Invalidates the cached aggregates and
     * forwards the wake to the registered scheduler, if any.
     */
    void
    notify_activity(Cycle at) override
    {
        invalidate_aggregates();
        if (wake_sink_ != nullptr)
            wake_sink_->wake(*this, at);
    }

    /**
     * notify_activity() from this tile's own thread (Wakeable; a push
     * into a local buffer): relaxed invalidation, and the sink's
     * same-thread entry point.
     */
    void
    notify_local(Cycle at) override
    {
        invalidate_aggregates<true>();
        if (wake_sink_ != nullptr)
            wake_sink_->wake_local(*this, at);
    }

    /** Scheduler-private slot index (set by the owning Shard). */
    void set_sched_slot(std::size_t slot) { sched_slot_ = slot; }

    /** Scheduler-private slot index of this tile within its shard. */
    std::size_t sched_slot() const { return sched_slot_; }

    /**
     * Wake every component (docs/ENGINE.md, "Component-granularity
     * wakes"): each component keeps an awake flag and an absolute wake
     * cycle, the tile ticks only awake components, idle ones retire
     * when the scheduler calls fine_retire(), and pushes wake exactly
     * the component that consumes them — the router via its ingress
     * wake records, the frontends via the tile's ejection wake record.
     * Called serially by the owning Shard's prepare_run, so every run
     * starts with the whole tile awake.
     */
    void
    wake_all()
    {
        rebuild_order(); // sizes the flags with every component awake
        ej_pending_ = kNoEvent;
    }

    /**
     * Lifetime-cumulative count of component ticks actually executed
     * (both edges of one cycle count once): only awake components
     * tick, all of them while nothing retires (Schedule::Poll). The
     * engine differences this across a run to report how many
     * component ticks the scheduler skipped.
     */
    std::uint64_t comp_cycles_run() const { return comp_cycles_; }

    /** Number of clocked components this tile ticks per cycle
     *  (router, frontends): the denominator of the component x cycle
     *  grid comp_cycles_run() covers. */
    std::size_t
    num_components() const
    {
        if (order_dirty_)
            rebuild_order();
        return comps_.size();
    }

    /**
     * Drop the cached aggregate folds. Called at every tick and clock
     * jump (owning thread), from notify_activity() (any thread), and
     * by the scheduler when it re-activates a sleeping tile — a
     * producer's invalidation can race the owner's concurrent fill
     * (the fill would re-publish a fold computed before the push), so
     * wake application always invalidates once more on the owning
     * thread. Only the validity flags are touched cross-thread; the
     * cached values themselves are written by the owning thread alone.
     * @p kLocal: the caller is the owning thread itself, so program
     * order already places the stores before its next fill and
     * relaxed stores suffice.
     */
    template <bool kLocal = false>
    void
    invalidate_aggregates() const
    {
        constexpr std::memory_order order =
            kLocal ? std::memory_order_relaxed : std::memory_order_release;
        valid_.busy.store(false, order);
        valid_.next.store(false, order);
        valid_.done.store(false, order);
    }

    /** Attach this tile's router (wired by System): the router's
     *  network-port wake records forward to this tile — a push from a
     *  neighbour is the only way a sleeping tile acquires work — and
     *  the tile's ejection wake record becomes the wake target of the
     *  router's ejection buffers. */
    void
    set_router(net::Router *r)
    {
        router_ = r;
        order_dirty_ = true;
        r->forward_ingress_wakes(this);
        for (VcId v = 0; v < r->num_ejection_vcs(); ++v)
            r->ejection_buffer(v).set_wake_target(&ej_wake_);
    }
    /** This tile's router (nullptr until wired). */
    net::Router *router() { return router_; }

    /** Attach a traffic frontend (generator/consumer). */
    void
    add_frontend(std::unique_ptr<Frontend> fe)
    {
        frontends_.push_back(std::move(fe));
        order_dirty_ = true;
    }

    /** The frontends attached to this tile. */
    const std::vector<std::unique_ptr<Frontend>> &frontends() const
    {
        return frontends_;
    }

    /**
     * Register a VC buffer this tile's components produce into whose
     * consumer is the tile of node @p consumer (wired by System from
     * the network's link map). The engine splits the registry along
     * its shard partition: buffers that straddle it — the only points
     * where one thread's execution is observed by another — get
     * cross-shard traffic accounting and window-batched handoff,
     * while buffers whose two tiles share a shard are switched to the
     * unsynchronized same-thread fast path for the run
     * (net::VcBuffer::set_local).
     */
    void
    add_egress_buffer(NodeId consumer, net::VcBuffer *buf)
    {
        egress_buffers_.emplace_back(consumer, buf);
    }

    /** All (consumer node, buffer) pairs this tile produces into. */
    const std::vector<std::pair<NodeId, net::VcBuffer *>> &
    egress_buffers() const
    {
        return egress_buffers_;
    }

    /** Positive edge: apply the cycle's pending component wakes, then
     *  tick the awake components in posedge order. */
    void
    posedge()
    {
        if (order_dirty_)
            rebuild_order();
        invalidate_aggregates();
        fine_cycle_begin();
        for (std::size_t i = fe_base_; i < comps_.size(); ++i)
            if (comp_awake_[i] != 0)
                comps_[i]->posedge(now_);
        if (fe_base_ != 0 && comp_awake_[0] != 0)
            router_->posedge(now_);
    }

    /** Negative edge: commit the awake components in negedge order,
     *  then advance the clock. */
    void
    negedge()
    {
        if (order_dirty_)
            rebuild_order();
        invalidate_aggregates();
        std::uint64_t awake = 0;
        for (std::size_t i = 0; i < comps_.size(); ++i) {
            if (comp_awake_[i] != 0) {
                comps_[i]->negedge(now_);
                ++awake;
            }
        }
        comp_cycles_ += awake;
        ++now_;
    }

    /**
     * End-of-cycle component retire (the scheduler calls it after the
     * negedge, so the clock has already advanced): put idle components
     * to sleep until their next self-scheduled event. Frontends stay
     * awake while ejection buffers hold flits — a bridge may report
     * idle with undrained deliveries pending, and sleeping it would
     * strand them.
     */
    void
    fine_retire()
    {
        const bool ej =
            router_ != nullptr && router_->has_ejection_flits();
        for (std::size_t i = 0; i < comps_.size(); ++i) {
            if (comp_awake_[i] == 0)
                continue;
            if (i >= fe_base_ && ej)
                continue;
            const Clocked *c = comps_[i];
            if (!c->idle(now_))
                continue;
            const Cycle nxt = c->next_event(now_);
            if (nxt <= now_)
                continue;
            comp_awake_[i] = 0;
            comp_wake_at_[i] = nxt;
        }
    }

    /**
     * Anything buffered or scheduled right now (fast-forward test)?
     * The fold over the components is cached: for a sleeping tile —
     * whose components, by the wake-seam contract, cannot change state
     * without a tick or a notify_activity() — repeated scheduler
     * queries are O(1) instead of a component re-poll.
     */
    bool
    busy() const
    {
        if (valid_.busy.load(std::memory_order_acquire))
            return busy_cache_;
        if (order_dirty_)
            rebuild_order();
        bool b = false;
        for (const Clocked *c : comps_) {
            if (!c->idle(now_)) {
                b = true;
                break;
            }
        }
        busy_cache_ = b;
        valid_.busy.store(true, std::memory_order_release);
        return b;
    }

    /** Earliest future component event (kNoEvent when none); cached
     *  like busy(). For a non-busy tile the result is an absolute
     *  cycle independent of the current clock (wake-seam contract). */
    Cycle
    next_event() const
    {
        if (valid_.next.load(std::memory_order_acquire))
            return next_cache_;
        if (order_dirty_)
            rebuild_order();
        Cycle best = kNoEvent;
        for (const Clocked *c : comps_) {
            Cycle e = c->next_event(now_);
            if (e < best)
                best = e;
        }
        next_cache_ = best;
        valid_.next.store(true, std::memory_order_release);
        return best;
    }

    /** Clear statistics (e.g. after a warmup phase); in-flight flits
     *  keep their carried counters. */
    void
    reset_stats()
    {
        stats_ = TileStats{};
        flow_stats_.clear();
    }

    /**
     * Return the tile to its just-constructed state for another
     * simulation run (the sim::JobEngine reuse path; see
     * System::reset_for_rerun). Rewinds the clock, reseeds the PRNG as
     * the constructor would from @p seed, clears statistics, and drops
     * the frontends (the next run attaches its own). The wiring —
     * router and egress-buffer registry — is construction-time state
     * and survives; comp_cycles_run() is lifetime-cumulative by
     * contract and keeps counting. The caller must have verified the
     * network is drained (a fresh tile holds no flits). Must not be
     * called while an engine run is active.
     */
    void
    reset_for_rerun(std::uint64_t seed)
    {
        now_ = 0;
        rng_.reseed(seed);
        reset_stats();
        frontends_.clear();
        order_dirty_ = true;
        ej_pending_ = kNoEvent;
        invalidate_aggregates();
    }

    /** All components report their workloads finished; cached like
     *  busy(). */
    bool
    done() const
    {
        if (valid_.done.load(std::memory_order_acquire))
            return done_cache_;
        if (order_dirty_)
            rebuild_order();
        bool d = true;
        for (const Clocked *c : comps_) {
            if (!c->done(now_)) {
                d = false;
                break;
            }
        }
        done_cache_ = d;
        valid_.done.store(true, std::memory_order_release);
        return d;
    }

  private:
    /**
     * Derive the component list from the attached components, every
     * component awake. The negedge order is the router (commit pops),
     * then the frontends; the posedge ticks the frontends first, then
     * the router (injections become visible to the router the
     * following cycle). The list contains every component exactly once
     * and doubles as the iteration set for the aggregate queries.
     */
    void
    rebuild_order() const
    {
        comps_.clear();
        if (router_ != nullptr)
            comps_.push_back(router_);
        fe_base_ = comps_.size();
        for (const auto &fe : frontends_)
            comps_.push_back(fe.get());
        comp_awake_.assign(comps_.size(), 1);
        comp_wake_at_.assign(comps_.size(), kNoEvent);
        order_dirty_ = false;
    }

    /**
     * Start-of-cycle wake application: fold the router's pending
     * ingress arrivals and the pending ejection wake into the
     * component wake cycles, then wake every component whose wake
     * cycle is due. Pending wakes for a component that is already
     * awake are dropped — an awake router drains its buffers anyway
     * and cannot retire while they hold flits, so nothing is lost.
     */
    void
    fine_cycle_begin()
    {
        if (router_ != nullptr) {
            const Cycle p = router_->take_pending_wake();
            if (p != kNoEvent && comp_awake_[0] == 0 &&
                p < comp_wake_at_[0])
                comp_wake_at_[0] = p;
        }
        if (ej_pending_ != kNoEvent) {
            for (std::size_t i = fe_base_; i < comps_.size(); ++i) {
                if (comp_awake_[i] == 0 && ej_pending_ < comp_wake_at_[i])
                    comp_wake_at_[i] = ej_pending_;
            }
            ej_pending_ = kNoEvent;
        }
        for (std::size_t i = 0; i < comps_.size(); ++i) {
            if (comp_awake_[i] == 0 && comp_wake_at_[i] <= now_) {
                comp_awake_[i] = 1;
                comp_wake_at_[i] = kNoEvent;
            }
        }
    }

    NodeId id_;
    Rng rng_;
    TileStats stats_;
    common::FlowStatsTable flow_stats_;
    net::Router *router_ = nullptr;
    std::vector<std::pair<NodeId, net::VcBuffer *>> egress_buffers_;
    std::vector<std::unique_ptr<Frontend>> frontends_;
    /// Components in negedge order: the router (if any), then the
    /// frontends from index fe_base_ on (rebuild_order).
    mutable std::vector<Clocked *> comps_;
    mutable std::size_t fe_base_ = 0;
    mutable bool order_dirty_ = true;
    Cycle now_ = 0;

    /**
     * Validity flags of the cached aggregate folds. These are the only
     * tile state written by *other* threads (invalidate_aggregates via
     * notify_activity, on a producer's push), so they live on their
     * own cache line: a cross-shard push must invalidate the cache
     * flags, not evict the owner's adjacent hot state (clock, tick
     * orders, the cached fold values themselves).
     */
    struct alignas(common::kCacheLineSize) AggregateValidity
    {
        std::atomic<bool> busy{false};
        std::atomic<bool> next{false};
        std::atomic<bool> done{false};
    };
    mutable AggregateValidity valid_;
    // Cached aggregate folds (see busy()); owner-thread private.
    mutable bool busy_cache_ = false;
    mutable Cycle next_cache_ = kNoEvent;
    mutable bool done_cache_ = false;

    WakeSink *wake_sink_ = nullptr;
    std::size_t sched_slot_ = 0;

    // ---------------- component scheduling state --------------------

    /**
     * Wake target of the router's ejection buffers (installed by
     * set_router): the router delivers to the CPU port on the owning
     * thread, so a plain min-fold of the arrival cycle is enough; the
     * pending value wakes every sleeping frontend at the next cycle
     * begin (conservative — waking a frontend with nothing to drain
     * is a no-op by the wake-seam contract); wake_all() clears it.
     */
    struct EjectionWake final : Wakeable
    {
        /** @param t the owning tile. */
        explicit EjectionWake(Tile *t) : tile(t) {}
        Tile *tile; ///< record owner
        /** Fold @p at into the tile's pending ejection wake. */
        void
        notify_activity(Cycle at) override
        {
            if (at < tile->ej_pending_)
                tile->ej_pending_ = at;
        }
        /** Ejection buffers are local: the same plain fold. */
        void notify_local(Cycle at) override { notify_activity(at); }
    };

    /// Awake flag per component, indexed like comps_ (sized by
    /// rebuild_order, every component awake).
    mutable std::vector<std::uint8_t> comp_awake_;
    /// Absolute wake cycle per sleeping component (kNoEvent: external
    /// wakes only), indexed like comps_.
    mutable std::vector<Cycle> comp_wake_at_;
    /// Earliest undrained ejection arrival (owner thread; kNoEvent
    /// when none). Folded into the frontends' wake cycles at the next
    /// cycle begin.
    Cycle ej_pending_ = kNoEvent;
    /// The one ejection wake record (all ejection VCs share it).
    EjectionWake ej_wake_{this};
    /// Lifetime component ticks executed (see comp_cycles_run()).
    std::uint64_t comp_cycles_ = 0;
};

} // namespace hornet::sim

#endif // HORNET_SIM_TILE_H
