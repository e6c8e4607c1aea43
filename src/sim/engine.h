/**
 * @file
 * The simulation engine: per-thread Shard schedulers driven by a
 * SyncPolicy (paper II-C, IV-B).
 *
 * The engine partitions tiles into contiguous shards, one per
 * execution thread, and advances them in windows. Between windows all
 * shards rendezvous at a barrier; the last thread to arrive assembles
 * a global EngineView from per-shard summaries and asks the SyncPolicy
 * to plan the next window (stop / jump clocks / run-until / lockstep).
 * The engine itself contains no per-layer special cases: it talks to
 * tiles only through their clock and their aggregate Clocked queries,
 * and to the synchronization strategy only through SyncPolicy.
 *
 * One thread is the degenerate case of the same machinery, so a
 * sequential run is simply an Engine with a single shard — there is no
 * separate sequential code path.
 *
 * Each shard runs under one of two schedulers (EngineOptions::
 * schedule, orthogonal to the SyncPolicy):
 *
 *  - polling: every tile is ticked every cycle — O(tiles) per cycle.
 *    It is the reference semantics the differential tests compare
 *    against.
 *  - event-fine: the shard keeps an *active set* of awake tiles plus
 *    a timing wheel of (wake_cycle, tile) for the sleeping ones, ticks
 *    only the active set, and re-sorts lazily when a wake moves —
 *    O(active) per cycle. Inside each awake tile, idle components
 *    (frontends between injections, routers with no buffered flits)
 *    are skipped individually. Sleeping is sound because ticking an
 *    idle tile or component is a no-op by construction, and pushes
 *    into a sleeping tile's VC buffers wake it through the
 *    Tile::notify_activity seam (docs/ENGINE.md, "Event-driven
 *    shards" and "Component-granularity wakes").
 *
 * Results are bitwise identical across both for lockstep windows and
 * single-shard runs; loose multi-shard windows keep their own
 * scheduler-independent timing nondeterminism, with the same
 * conservation guarantees under either scheduler (docs/ENGINE.md,
 * "Event-driven shards").
 */
#ifndef HORNET_SIM_ENGINE_H
#define HORNET_SIM_ENGINE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/placement.h"
#include "common/ring.h"
#include "common/timing_wheel.h"
#include "common/types.h"
#include "net/vc_buffer.h"
#include "sim/sync_policy.h"
#include "sim/tile.h"

namespace hornet::sim {

/**
 * Shard scheduler selection (see the file comment): polling ticks
 * every tile every cycle; event-fine ticks only awake tiles and, inside
 * them, only awake components. Both produce bitwise-identical results
 * for lockstep windows and single-shard runs.
 */
enum class Schedule
{
    Poll,     ///< tick every tile every cycle (the reference)
    EventFine ///< tile- and component-granularity wake scheduling
};

/**
 * Parse a scheduler name: "poll" or "event-fine" (the spelling used by
 * HORNET_SCHEDULE, RunOptions::schedule and the `[sim] schedule`
 * config key). Anything else is fatal; the retired "event" gets a
 * message naming its replacement.
 */
Schedule schedule_from_name(const std::string &name);

/**
 * The set of tiles stepped by one execution thread. Tiles within a
 * shard advance in lockstep with each other (posedge of every tile,
 * then negedge of every tile), so intra-shard traffic is always
 * cycle-accurate regardless of the active SyncPolicy; only inter-shard
 * skew is policy-dependent (paper II-C).
 *
 * Besides its tiles, a shard tracks the *cross-shard buffers* its
 * tiles produce into (VC buffers whose consumer lives in another
 * shard, registered by the Engine at partition time). They are the
 * only points where this shard's execution is observed by another
 * thread, so they carry the cross-shard traffic counter the adaptive
 * sync policy feeds on, and they are where window-batched message
 * handoff is staged and flushed. The complementary *same-shard
 * buffers* — producer and consumer tile both in this shard — are
 * touched by this shard's thread only, so each run switches them to
 * the VC buffer's unsynchronized fast path (docs/ENGINE.md,
 * "VcBuffer memory model").
 *
 * Under the event-fine scheduler the shard additionally owns the
 * wake bookkeeping for its tiles: the active set (ticked each cycle,
 * kept in node-id order so tick order matches the polling scheduler),
 * the wake heap for sleeping tiles, and a mailbox for wakes posted by
 * other threads (cross-shard pushes), which is drained at cycle
 * boundaries — the synchronization points where, under lockstep
 * windows, an unbatched push would first become visible, keeping
 * event-driven lockstep runs bitwise identical to sequential ones.
 * The mailbox is a bounded lock-free MPSC ring with a mutex-guarded
 * overflow list behind it, so a producer shard posting a wake never
 * blocks on the consumer shard's drain (docs/ENGINE.md, "Wake mailbox
 * memory model").
 */
class Shard final : public Tile::WakeSink
{
  public:
    /** An empty shard; the Engine fills it at partition time. */
    Shard() = default;

    /** Append @p t to this shard (Engine, during partitioning). */
    void add_tile(Tile *t) { tiles_.push_back(t); }
    /** The tiles stepped by this shard's thread, in id order. */
    const std::vector<Tile *> &tiles() const { return tiles_; }
    /** True when no tile has been assigned. */
    bool empty() const { return tiles_.empty(); }

    /** Register a VC buffer produced by this shard whose consumer
     *  lives in another shard (Engine, at partition time). */
    void add_cross_buffer(net::VcBuffer *b) { cross_bufs_.push_back(b); }

    /** The cross-shard buffers this shard produces into. */
    const std::vector<net::VcBuffer *> &cross_buffers() const
    {
        return cross_bufs_;
    }

    /**
     * Register a VC buffer whose producer *and* consumer tiles both
     * live in this shard (Engine, at partition time). These are only
     * ever touched by this shard's thread, so prepare_run() switches
     * them to the buffer's unsynchronized same-thread fast path
     * (net::VcBuffer::set_local) for the duration of the run and
     * finish_run() restores the synchronized default.
     */
    void add_local_buffer(net::VcBuffer *b) { local_bufs_.push_back(b); }

    /** The same-shard buffers this shard's thread owns exclusively. */
    const std::vector<net::VcBuffer *> &local_buffers() const
    {
        return local_bufs_;
    }

    /** Cumulative flits this shard published into cross-shard buffers
     *  (flush staged flits first when batching for an exact count). */
    std::uint64_t
    cross_pushed() const
    {
        std::uint64_t total = 0;
        for (const net::VcBuffer *b : cross_bufs_)
            total += b->total_pushed();
        return total;
    }

    /** Any flit this shard handed across a boundary is still staged or
     *  unconsumed (keeps rendezvous idleness conservative: the consumer
     *  shard may have summarized before the push). */
    bool
    cross_in_flight() const
    {
        for (const net::VcBuffer *b : cross_bufs_)
            if (!b->logically_empty())
                return true;
        return false;
    }

    /** Switch window-batched handoff on or off for every cross-shard
     *  buffer (off flushes leftovers). Producer-thread or quiescent. */
    void
    set_cross_batched(bool on)
    {
        for (net::VcBuffer *b : cross_bufs_)
            b->set_batched(on);
    }

    /** Publish this shard's staged cross-shard flits (rendezvous). */
    void
    flush_cross()
    {
        for (net::VcBuffer *b : cross_bufs_)
            b->flush_staged();
    }

    // ------------------------------------------------------------------
    // Run lifecycle (Engine only).
    // ------------------------------------------------------------------

    /**
     * Prepare for one engine run: reset the tick counters, initialize
     * the shard clock from the tiles, and — under Schedule::EventFine —
     * build the wake schedule (all tiles start active; sleepers peel
     * off after the first cycle), register this shard as its tiles'
     * wake sink, and switch every non-pinned tile to
     * component-granularity scheduling.
     * @p track_done records each tile's done() at sleep time so
     * done() stays O(active); pass it only when the run needs
     * completion detection (it costs a component scan per sleep).
     * Called serially, before any worker thread starts, so
     * cross-shard producers can never race a sink registration.
     */
    void prepare_run(Schedule sched, bool track_done = false);

    /** Bind the event scheduler to the executing worker thread (wakes
     *  from this thread are applied directly; any other thread posts
     *  to the mailbox). Called at worker entry. */
    void bind_thread();

    /** End one engine run: catch sleeping tiles' clocks up to the
     *  shard clock and deregister the wake sinks. Called serially,
     *  after all worker threads joined. */
    void finish_run();

    /** Local clock (tiles agree at cycle boundaries; sleeping tiles
     *  lag and are caught up on wake). Undefined on an empty shard. */
    Cycle
    now() const
    {
        return event_ ? now_ : tiles_.front()->now();
    }

    // ------------------------------------------------------------------
    // Cycle execution (Engine worker loop).
    // ------------------------------------------------------------------

    /** Positive edge of the current cycle for every scheduled tile. */
    void posedge();

    /** Negative edge of the current cycle for every scheduled tile
     *  (advances the clocks; event mode also retires idle tiles to
     *  the wake heap). */
    void negedge();

    /** Free-run whole cycles until the clock reaches @p end. The
     *  event scheduler jumps over stretches where every tile sleeps. */
    void run_until(Cycle end);

    /** Jump every scheduled clock forward to @p c (fast-forward). */
    void advance_to(Cycle c);

    // ------------------------------------------------------------------
    // Rendezvous summaries (Engine worker, between windows).
    // ------------------------------------------------------------------

    /**
     * Bring the wake bookkeeping up to date before summary queries:
     * drain the cross-thread wake mailbox and activate tiles whose
     * wake cycle has been reached. No-op under the polling scheduler.
     */
    void prepare_summaries();

    /** Any component in the shard holds work right now. */
    bool busy() const;

    /** Every component in the shard finished its workload. */
    bool done() const;

    /** Min next self-scheduled event over the shard's components. */
    Cycle next_event() const;

    // ------------------------------------------------------------------
    // Introspection (tests, engine statistics).
    // ------------------------------------------------------------------

    /** Tile-cycles actually ticked during the current/last run. */
    std::uint64_t tile_cycles_run() const { return ticks_; }

    /** Tiles currently awake (== all tiles under polling). */
    std::size_t
    active_tiles() const
    {
        return event_ ? active_.size() : tiles_.size();
    }

    /** Tile::WakeSink — tile @p t has work actionable at @p at. */
    void wake(Tile &t, Cycle at) override;

  private:
    // Per-tile scheduling state (event mode only), kept as parallel
    // packed arrays instead of an array-of-structs: the hot consumers
    // — settle_heap's validity test and apply_wake's sleeping check —
    // read only `sleeping` and `wake_at`, so splitting the fields
    // stops those scans from dragging the cold done-at-sleep bytes
    // (and AoS padding) through the cache. Indexed by tile position in
    // tiles_; all three are resized together by prepare_run.
    //
    //  - wake_at_[i]: wake cycle while sleeping (kNoEvent = only an
    //    external notify can wake it). A wheel entry is valid iff the
    //    tile is sleeping and the entry's cycle equals wake_at_ (lazy
    //    deletion of superseded entries).
    //  - sleeping_[i]: nonzero while the tile is parked in the heap
    //    (uint8_t, not bool: a packed byte array with no bitmask
    //    read-modify-write on the scheduling path).
    //  - done_at_sleep_[i]: done() recorded at sleep time; valid while
    //    sleeping (the wake-seam contract forbids done() flips without
    //    a wake). Cold: only touched when a tile retires or activates.

    /// Mailbox entry: (wake cycle, slot index).
    using WakeEntry = std::pair<Cycle, std::size_t>;

    void drain_mailbox();
    void apply_wake(std::size_t slot, Cycle at);
    void activate_due();
    void activate(std::size_t slot);
    /// Earliest valid pending wake (kNoEvent if none); drops stale
    /// wheel entries on the way. Logically const (lazy cleanup only),
    /// hence the mutable wheel.
    Cycle settled_min_wake() const;
    /// Move tiles that went idle at this negedge to the wake wheel.
    void retire_idle();
    /// Top-of-cycle bookkeeping: drain wakes, activate due sleepers.
    void cycle_begin();

    /// Wake-mailbox ring capacity per shard. The owning thread drains
    /// every cycle while it runs, but a shard parked at the rendezvous
    /// barrier drains nothing while its neighbours free-run a whole
    /// window — so the ring is sized for a window's worth of
    /// cross-shard pushes in common configs (boundary buffers x
    /// window cycles), not one cycle's. Larger bursts (oversubscribed
    /// hosts can starve a consumer for a whole scheduler quantum) go
    /// to the overflow list: correct, merely slower.
    static constexpr std::size_t kMailboxCapacity = 1024;

    std::vector<Tile *> tiles_;
    std::vector<net::VcBuffer *> cross_bufs_;
    std::vector<net::VcBuffer *> local_bufs_;

    // Event-driven scheduling state. This block — the clock, the
    // active set, the wake wheel's hot head and the tick counter — is
    // touched by the owning thread every cycle and by nobody else;
    // the alignas fences it off from the preceding wiring vectors and,
    // via the mailbox's own alignment below, from everything remote
    // threads write, so a cross-shard wake post never invalidates the
    // scheduler's working set.
    alignas(common::kCacheLineSize) bool event_ = false; ///< EventFine
    bool track_done_ = false;
    Cycle now_ = 0;
    std::vector<Cycle> wake_at_;            ///< see the Slot-split comment
    std::vector<std::uint8_t> sleeping_;    ///< packed hot flags
    std::vector<std::uint8_t> done_at_sleep_; ///< cold completion cache
    std::vector<Tile *> active_; ///< awake tiles, kept in id order
    std::vector<Tile *> pending_active_; ///< woken, not yet merged
    /// Calendar queue of pending wakes (O(1) amortized schedule/pop;
    /// see common/timing_wheel.h). Mutable because stale-entry
    /// cleanup (settled_min_wake) is logically const.
    mutable common::TimingWheel wheel_;
    std::size_t sleeping_not_done_ = 0;
    std::uint64_t ticks_ = 0;
    std::thread::id run_thread_{};

    // Cross-thread wake mailbox (producer shards post, the owning
    // thread drains at cycle boundaries): a bounded lock-free MPSC
    // ring on the fast path — the push is a CAS claim plus a release
    // publish, no lock, no allocation — with a mutex-guarded overflow
    // list for the (rare, tested) case of a full ring. The ring is
    // drained *unconditionally* every cycle: probing an empty ring is
    // one acquire load of the head cell, exactly what an "anything
    // posted?" flag would cost — and a flag would reintroduce the
    // Dekker-style store->load race the old mutex mailbox was
    // implicitly immune to (the consumer's flag-clear could reorder
    // after its ring probes and overwrite a producer's set, stranding
    // a published wake behind a false flag). MpscRing is itself
    // cache-line partitioned, and its alignment starts a fresh line
    // here, so posts touch no line the lines above care about.
    common::MpscRing<WakeEntry> mailbox_{kMailboxCapacity};
    /// The overflow list is non-empty. Sound as a gate — unlike a
    /// ring flag — because both sides take overflow_mx_: a producer
    /// that appends after the consumer's swap acquired the mutex
    /// after it, so its flag-set happens-after the consumer's
    /// clear-before-lock and always survives.
    std::atomic<bool> overflow_any_{false};
    mutable std::mutex overflow_mx_;
    std::vector<WakeEntry> overflow_;
};

/** Engine run parameters (policy-independent). */
struct EngineOptions
{
    /** Stop when the clock reaches this cycle (absolute target). */
    Cycle max_cycles = 0;
    /** Also stop as soon as every component is done and the system
     *  has drained. Completion is checked at window rendezvous, so a
     *  loose-sync run may overshoot the completion cycle by up to one
     *  window (regardless of thread count). */
    bool stop_when_done = false;
    /**
     * Batch cross-shard flit handoff per window: pushes into another
     * shard's buffers are staged producer-side and published once per
     * rendezvous (one release store per buffer per window) instead
     * of per push. Bitwise-neutral for lockstep windows of any length
     * (staged flits are additionally published at each intra-window
     * cycle barrier, where an unbatched push would first become
     * observable); for free-running windows it defers cross-shard
     * visibility to the rendezvous, within the loose-synchronization
     * error envelope. Ignored on single-shard runs.
     */
    bool batch_cross_shard = false;
    /**
     * Shard scheduler selection (see Schedule). Unset (the default)
     * defers to the HORNET_SCHEDULE environment variable ("poll" or
     * "event-fine"; unset or empty = poll), which is how CI runs the
     * whole suite under both schedulers. Results are
     * bitwise identical across schedulers for lockstep windows and
     * single-shard runs; loose multi-shard windows are
     * timing-nondeterministic under every scheduler.
     */
    std::optional<Schedule> schedule;
    /**
     * Worker thread affinity (resolved via common::resolve_pin_mode):
     * pin worker t so shard t stays on the core whose NUMA node holds
     * the shard's first-touched arena (see sim::SystemLayout). Worker
     * 0 runs on the calling thread; its previous affinity is restored
     * when run() returns. Never affects results.
     */
    common::PinMode pin_threads = common::PinMode::None;
};

/** Per-run engine scheduling statistics (fast-forward and
 *  event-driven effectiveness; see SystemStats for the report). */
struct EngineRunStats
{
    /** Whole-system clock cycles jumped over by SyncPolicy
     *  fast-forwarding during the run. */
    std::uint64_t ff_skipped_cycles = 0;
    /** Tile-cycles actually ticked (posedge+negedge pairs summed over
     *  tiles). */
    std::uint64_t tile_cycles_run = 0;
    /** Tile-cycles *not* ticked: fast-forward jumps plus, under
     *  Schedule::EventFine, cycles individual tiles slept. */
    std::uint64_t tile_cycles_skipped = 0;
    /** Component-cycles actually ticked (summed over tiles; a coarse
     *  tile tick counts every component, a fine one only the awake
     *  ones). */
    std::uint64_t comp_cycles_run = 0;
    /** Component-cycles *not* ticked out of the component x cycle
     *  grid: fast-forward plus, under Schedule::EventFine, tile-level
     *  sleeping and per-component sleeping inside awake tiles. */
    std::uint64_t comp_cycles_skipped = 0;
    /** True when the run used the event-driven shard scheduler
     *  (Schedule::EventFine). */
    bool event_driven = false;
    /** True when worker threads were pinned (pin_threads resolved to
     *  an affinity mode the platform could apply). */
    bool threads_pinned = false;
};

/**
 * Runs a set of tiles under a SyncPolicy with a fixed number of
 * threads. The engine owns the partition and the rendezvous machinery;
 * all synchronization strategy lives in the policy.
 */
class Engine
{
  public:
    /**
     * Partition @p tiles into min(@p threads, tiles) contiguous
     * shards. Contiguous block partition keeps mesh neighbours in the
     * same thread, which minimizes cross-thread links and thus
     * loose-synchronization skew error (paper II-C).
     */
    Engine(const std::vector<Tile *> &tiles, unsigned threads);

    /** Number of shards (== execution threads) of the partition. */
    std::size_t num_shards() const { return shards_.size(); }
    /** Shard @p i of the partition (introspection: tests). */
    Shard &shard(std::size_t i) { return *shards_.at(i); }

    /**
     * Advance all shards until @p policy stops the run, the horizon
     * is reached, or (with stop_when_done) the workload completes.
     * Returns the final cycle. Resumable: call again to continue.
     */
    Cycle run(SyncPolicy &policy, const EngineOptions &opts);

    /** Scheduling statistics of the most recent run() call. */
    const EngineRunStats &last_run_stats() const { return run_stats_; }

  private:
    std::vector<std::unique_ptr<Shard>> shards_;
    EngineRunStats run_stats_;
};

} // namespace hornet::sim

#endif // HORNET_SIM_ENGINE_H
