/**
 * @file
 * A tile: one clock domain and the Clocked components attached to it —
 * a virtual-channel router, any traffic frontends, the link arbiters
 * it owns — plus a private pseudorandom number generator and the data
 * structures required for collecting statistics (paper II-C).
 * A tile is never split across threads.
 *
 * The tile ticks its components generically through the Clocked
 * interface; it knows nothing about what the components are. Ordering
 * within an edge is fixed by component kind so that results are
 * reproducible: frontends tick before the router at the positive edge
 * (so their pushes surface next cycle), and the router commits before
 * the frontends, followed by the link arbiters, at the negative edge.
 *
 * For the event-driven scheduler the tile is also the unit of
 * sleeping: it caches its aggregate busy()/next_event()/done() folds
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
#include "net/link.h"
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

    /** Per-flow delivery statistics: a dense frozen-index table (hot
     *  per-flit path; sim::System freezes the deliverable-flow set
     *  before the first run). The ordered view is produced at
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

    /**
     * Exclude this tile from event-driven sleeping: it is ticked every
     * cycle like under the polling scheduler. Set by System for tiles
     * coupled to state outside the wake seam — the endpoints of
     * bidirectional-link arbiters, whose bandwidth split depends on
     * *both* routers' published demand every cycle.
     */
    void pin_awake() { pinned_awake_ = true; }

    /** True when the tile must be ticked every cycle (never sleeps). */
    bool pinned_awake() const { return pinned_awake_; }

    /** Scheduler-private slot index (set by the owning Shard). */
    void set_sched_slot(std::size_t slot) { sched_slot_ = slot; }

    /** Scheduler-private slot index of this tile within its shard. */
    std::size_t sched_slot() const { return sched_slot_; }

    /**
     * Enter or leave fine-grain (component-granularity) scheduling
     * (docs/ENGINE.md, "Component-granularity wakes"). While active,
     * an awake tile ticks only the components with pending work:
     * every component keeps a sleeping flag and an absolute wake
     * cycle, idle components retire after each negedge, and pushes
     * wake exactly the component that consumes them — the router via
     * its ingress wake records, the frontends via the tile's ejection
     * wake record. Both records are wired for the tile's lifetime;
     * this switch only arms the per-component sleep state. Bitwise
     * neutral by the wake-seam contract (ticking an idle component is
     * a no-op). Called serially by the owning Shard's
     * prepare_run/finish_run; pinned tiles stay coarse (their link
     * arbiters are coupled to both endpoint routers' demand outside
     * the wake seam).
     */
    void
    set_fine(bool on)
    {
        if (on == fine_)
            return;
        if (on && pinned_awake_)
            return; // pinned tiles tick every component every cycle
        if (order_dirty_)
            rebuild_order();
        if (on) {
            comp_awake_.assign(negedge_order_.size(), 1);
            comp_wake_at_.assign(negedge_order_.size(), kNoEvent);
            ej_pending_ = kNoEvent;
        } else {
            comp_awake_.clear();
            comp_wake_at_.clear();
        }
        fine_ = on;
    }

    /**
     * Lifetime-cumulative count of component ticks actually executed
     * (both edges of one cycle count once). Under coarse scheduling an
     * awake tile ticks every component; under fine-grain scheduling
     * only the awake ones — the engine differences this across a run
     * to report how many component ticks the scheduler skipped.
     */
    std::uint64_t comp_cycles_run() const { return comp_cycles_; }

    /** Number of clocked components this tile ticks per cycle
     *  (router, frontends, owned link arbiters): the denominator of
     *  the component x cycle grid comp_cycles_run() covers. */
    std::size_t
    num_components() const
    {
        if (order_dirty_)
            rebuild_order();
        return negedge_order_.size();
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

    /** Attach a link arbiter stepped at this tile's negedge. */
    void
    add_owned_link(net::BidirLink *l)
    {
        owned_links_.push_back(l);
        order_dirty_ = true;
    }

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

    /** Positive edge: tick every component in posedge order (under
     *  fine-grain scheduling, only the awake ones, after applying the
     *  cycle's pending component wakes). */
    void
    posedge()
    {
        if (order_dirty_)
            rebuild_order();
        invalidate_aggregates();
        if (!fine_) {
            for (Clocked *c : posedge_order_)
                c->posedge(now_);
            return;
        }
        fine_cycle_begin();
        for (std::size_t k = 0; k < posedge_order_.size(); ++k)
            if (comp_awake_[posedge_comp_[k]] != 0)
                posedge_order_[k]->posedge(now_);
    }

    /** Negative edge: commit every component in negedge order (under
     *  fine-grain scheduling, only the awake ones), advance the clock,
     *  then retire components that went idle. */
    void
    negedge()
    {
        if (order_dirty_)
            rebuild_order();
        invalidate_aggregates();
        if (!fine_) {
            for (Clocked *c : negedge_order_)
                c->negedge(now_);
            comp_cycles_ += negedge_order_.size();
            ++now_;
            return;
        }
        std::uint64_t awake = 0;
        for (std::size_t i = 0; i < negedge_order_.size(); ++i) {
            if (comp_awake_[i] != 0) {
                negedge_order_[i]->negedge(now_);
                ++awake;
            }
        }
        comp_cycles_ += awake;
        ++now_;
        fine_retire();
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
        for (const Clocked *c : negedge_order_) {
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
        for (const Clocked *c : negedge_order_) {
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
     * router, owned links, egress-buffer registry, pin_awake — is
     * construction-time state and survives; comp_cycles_run() is
     * lifetime-cumulative by contract and keeps counting. The caller
     * must have verified the network is drained (a fresh tile holds no
     * flits). Must not be called while an engine run is active.
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
        for (const Clocked *c : negedge_order_) {
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
     * Derive the per-edge tick orders from the attached components.
     * posedge: frontends, then router (injections become visible to
     * the router the following cycle). negedge: router (commit pops),
     * then frontends, then link arbiters. The negedge order contains
     * every component exactly once and doubles as the iteration set
     * for the aggregate queries.
     */
    void
    rebuild_order() const
    {
        posedge_order_.clear();
        negedge_order_.clear();
        comp_kind_.clear();
        for (const auto &fe : frontends_)
            posedge_order_.push_back(fe.get());
        if (router_ != nullptr) {
            posedge_order_.push_back(router_);
            negedge_order_.push_back(router_);
            comp_kind_.push_back(kCompRouter);
        }
        for (const auto &fe : frontends_) {
            negedge_order_.push_back(fe.get());
            comp_kind_.push_back(kCompFrontend);
        }
        for (auto *l : owned_links_) {
            negedge_order_.push_back(l);
            comp_kind_.push_back(kCompLink);
        }
        // Map each posedge position to its component's negedge index
        // (the canonical index of the fine-grain state arrays):
        // frontends follow the router in negedge order, the router —
        // last at the posedge — is index 0.
        posedge_comp_.clear();
        const std::size_t fe_base = router_ != nullptr ? 1 : 0;
        for (std::size_t i = 0; i < frontends_.size(); ++i)
            posedge_comp_.push_back(fe_base + i);
        if (router_ != nullptr)
            posedge_comp_.push_back(0);
        order_dirty_ = false;
    }

    /**
     * Start-of-cycle wake application (fine-grain mode): fold the
     * router's pending ingress arrivals and the pending ejection wake
     * into the component wake cycles, then wake every component whose
     * wake cycle is due. Pending wakes for a component that is already
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
            for (std::size_t i = 0; i < negedge_order_.size(); ++i) {
                if (comp_kind_[i] == kCompFrontend &&
                    comp_awake_[i] == 0 &&
                    ej_pending_ < comp_wake_at_[i])
                    comp_wake_at_[i] = ej_pending_;
            }
            ej_pending_ = kNoEvent;
        }
        for (std::size_t i = 0; i < negedge_order_.size(); ++i) {
            if (comp_awake_[i] == 0 && comp_wake_at_[i] <= now_) {
                comp_awake_[i] = 1;
                comp_wake_at_[i] = kNoEvent;
            }
        }
    }

    /**
     * End-of-cycle component retire (fine-grain mode; the clock has
     * already advanced): put idle components to sleep until their next
     * self-scheduled event. Link arbiters never retire (their output
     * depends on both routers' demand, outside the wake seam), and
     * frontends stay awake while ejection buffers hold flits — a
     * bridge may report idle with undrained deliveries pending, and
     * sleeping it would strand them.
     */
    void
    fine_retire()
    {
        const bool ej =
            router_ != nullptr && router_->has_ejection_flits();
        for (std::size_t i = 0; i < negedge_order_.size(); ++i) {
            if (comp_awake_[i] == 0)
                continue;
            if (comp_kind_[i] == kCompLink)
                continue;
            if (comp_kind_[i] == kCompFrontend && ej)
                continue;
            const Clocked *c = negedge_order_[i];
            if (!c->idle(now_))
                continue;
            const Cycle nxt = c->next_event(now_);
            if (nxt <= now_)
                continue;
            comp_awake_[i] = 0;
            comp_wake_at_[i] = nxt;
        }
    }

    NodeId id_;
    Rng rng_;
    TileStats stats_;
    common::FlowStatsTable flow_stats_;
    net::Router *router_ = nullptr;
    std::vector<std::pair<NodeId, net::VcBuffer *>> egress_buffers_;
    std::vector<net::BidirLink *> owned_links_;
    std::vector<std::unique_ptr<Frontend>> frontends_;
    mutable std::vector<Clocked *> posedge_order_;
    mutable std::vector<Clocked *> negedge_order_;
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
    bool pinned_awake_ = false;
    std::size_t sched_slot_ = 0;

    // ---------------- fine-grain scheduling state -------------------

    /**
     * Wake target of the router's ejection buffers (installed by
     * set_router): the router delivers to the CPU port on the owning
     * thread, so a plain min-fold of the arrival cycle is enough; the
     * pending value wakes every frontend at the next fine-grain cycle
     * begin (conservative — waking a frontend with nothing to drain
     * is a no-op by the wake-seam contract). Outside fine-grain mode
     * the fold is never read; set_fine(true) clears it.
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

    /// Component kinds, indexed like negedge_order_ (fine-grain
    /// scheduling treats the kinds differently at retire time).
    enum : std::uint8_t
    {
        kCompRouter = 0,
        kCompFrontend = 1,
        kCompLink = 2
    };

    bool fine_ = false; ///< component-granularity mode active
    /// Awake flag per component, indexed like negedge_order_.
    std::vector<std::uint8_t> comp_awake_;
    /// Absolute wake cycle per sleeping component (kNoEvent: external
    /// wakes only), indexed like negedge_order_.
    std::vector<Cycle> comp_wake_at_;
    /// Component kind per negedge_order_ index (rebuild_order).
    mutable std::vector<std::uint8_t> comp_kind_;
    /// posedge_order_ position -> negedge_order_ index (rebuild_order).
    mutable std::vector<std::size_t> posedge_comp_;
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
