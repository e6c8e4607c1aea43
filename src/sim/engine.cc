#include "sim/engine.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "common/log.h"
#include "common/ring.h"
#include "sim/barrier.h"

namespace hornet::sim {

Schedule
schedule_from_name(const std::string &name)
{
    if (name == "poll")
        return Schedule::Poll;
    if (name == "event-fine")
        return Schedule::EventFine;
    if (name == "event")
        fatal("schedule \"event\" was retired: use \"event-fine\" (it "
              "also sleeps tiles, and idle components inside them)");
    fatal("schedule must be \"poll\" or \"event-fine\", got \"" + name +
          "\"");
}

namespace {

/**
 * Schedule selection when EngineOptions::schedule is unset: the
 * HORNET_SCHEDULE environment variable ("poll" or "event-fine"; unset
 * or empty selects event-fine). This is how CI runs the whole test
 * suite under both schedules without touching every call site.
 */
Schedule
env_schedule_default()
{
    const char *e = std::getenv("HORNET_SCHEDULE");
    if (e == nullptr || *e == '\0')
        return Schedule::EventFine;
    return schedule_from_name(e);
}

} // namespace

// ----------------------------------------------------------------------
// Shard: run lifecycle.
// ----------------------------------------------------------------------

void
Shard::prepare_run(Schedule sched, bool track_done)
{
    ticks_ = 0;
    retire_ = sched == Schedule::EventFine;
    track_done_ = track_done;
    // Same-shard buffers are accessed by this shard's thread only for
    // the whole run: select their unsynchronized fast path. Set here
    // (serially, before any worker starts) and restored in
    // finish_run() so the buffers are safe for arbitrary use between
    // runs.
    for (net::VcBuffer *b : local_bufs_)
        b->set_local(true);
    if (tiles_.empty())
        return;
    now_ = tiles_.front()->now();
    // Every tile and component starts awake: the first cycle ticks the
    // whole shard and, unless polling, the idle ones retire at its
    // negedge. This avoids trusting any pre-run component state and
    // makes resumed runs trivially correct.
    wake_at_.assign(tiles_.size(), 0);
    sleeping_.assign(tiles_.size(), 0);
    done_at_sleep_.assign(tiles_.size(), 0);
    active_ = tiles_;
    pending_active_.clear();
    wheel_.reset(now_);
    sleeping_not_done_ = 0;
    // Discard stale wakes from a previous run (called serially, so no
    // producer can be posting concurrently).
    WakeEntry stale;
    while (mailbox_.try_pop(stale)) {}
    {
        std::lock_guard<std::mutex> lk(overflow_mx_);
        overflow_.clear();
    }
    overflow_any_.store(false, std::memory_order_release);
    run_thread_ = std::thread::id{};
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
        tiles_[i]->set_sched_slot(i);
        tiles_[i]->set_wake_sink(this);
        tiles_[i]->wake_all();
    }
}

void
Shard::bind_thread()
{
    run_thread_ = std::this_thread::get_id();
}

void
Shard::finish_run()
{
    for (net::VcBuffer *b : local_bufs_)
        b->set_local(false);
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
        // Sleeping tiles' clocks lag the shard clock; catch them up so
        // the tiles are in a consistent post-run state (statistics and
        // a future engine see one global clock).
        if (sleeping_[i])
            tiles_[i]->advance_to(now_);
        tiles_[i]->set_wake_sink(nullptr);
    }
    active_.clear();
    pending_active_.clear();
    wake_at_.clear();
    sleeping_.clear();
    done_at_sleep_.clear();
    wheel_.reset(now_);
    sleeping_not_done_ = 0;
}

// ----------------------------------------------------------------------
// Shard: wake bookkeeping.
// ----------------------------------------------------------------------

void
Shard::wake(Tile &t, Cycle at)
{
    if (std::this_thread::get_id() == run_thread_) {
        apply_wake(t.sched_slot(), at);
        return;
    }
    // Cross-thread wake (a producer in another shard): post to the
    // lock-free mailbox ring; the owning thread drains it at its next
    // cycle boundary (unconditionally — see the mailbox_ comment in
    // engine.h for why there is deliberately no "anything posted?"
    // flag on the ring). A full ring falls back to the overflow
    // list — correctness never depends on ring capacity, only the
    // fast path does.
    if (!mailbox_.try_push(WakeEntry(at, t.sched_slot()))) {
        {
            std::lock_guard<std::mutex> lk(overflow_mx_);
            overflow_.emplace_back(at, t.sched_slot());
        }
        overflow_any_.store(true, std::memory_order_release);
    }
}

void
Shard::apply_wake(std::size_t slot, Cycle at)
{
    if (!sleeping_[slot])
        return; // active tiles re-evaluate their state every negedge
    const Cycle eff = std::max(at, now_);
    if (eff < wake_at_[slot]) {
        // Lazy re-sort: schedule a superseding entry; the old one is
        // dropped when it surfaces (the wheel's validity predicate).
        wake_at_[slot] = eff;
        wheel_.schedule(eff, slot);
    }
}

void
Shard::drain_mailbox()
{
    // The ring is probed unconditionally (no gating flag — see the
    // mailbox_ comment in engine.h): an empty probe is one acquire
    // load of the head cell. apply_wake is a commutative min per
    // tile, so drain order (ring claim order, overflow last) cannot
    // affect the resulting schedule.
    WakeEntry e;
    while (mailbox_.try_pop(e))
        apply_wake(e.second, e.first);
    if (overflow_any_.load(std::memory_order_acquire)) {
        // Clear-then-swap, both sides under the same mutex ordering:
        // a producer that lands in the overflow list after our swap
        // necessarily took the mutex after us, so its flag-set
        // happens-after this clear and survives for the next drain.
        overflow_any_.store(false, std::memory_order_release);
        std::vector<WakeEntry> posted;
        {
            std::lock_guard<std::mutex> lk(overflow_mx_);
            posted.swap(overflow_);
        }
        for (const auto &[at, slot] : posted)
            apply_wake(slot, at);
    }
}

Cycle
Shard::settled_min_wake() const
{
    return wheel_.settle_min([this](Cycle c, std::uint64_t slot) {
        return sleeping_[slot] != 0 && wake_at_[slot] == c;
    });
}

void
Shard::activate(std::size_t slot)
{
    sleeping_[slot] = 0;
    if (track_done_ && !done_at_sleep_[slot])
        --sleeping_not_done_;
    Tile *t = tiles_[slot];
    // The tile slept through provably idle cycles; its clock catches
    // up in one jump (the per-tile analogue of paper IV-B). The
    // aggregate cache is dropped unconditionally: a producer's
    // invalidation may have raced the fold that put the tile to
    // sleep (the fold re-publishes a pre-push value), and a zero-
    // cycle sleep would make the advance_to a non-invalidating no-op.
    t->advance_to(now_);
    t->invalidate_aggregates();
    pending_active_.push_back(t);
}

void
Shard::activate_due()
{
    // Stale entries (superseded or already woken) fail the validity
    // test and are simply dropped; activation order within one cycle
    // is irrelevant because cycle_begin sorts pending_active_ by id.
    wheel_.pop_due(now_, [this](Cycle c, std::uint64_t slot) {
        if (sleeping_[slot] != 0 && wake_at_[slot] == c)
            activate(slot);
    });
}

void
Shard::cycle_begin()
{
    drain_mailbox();
    activate_due();
    if (!pending_active_.empty()) {
        // Keep the active set in node-id order so the tick order of
        // awake tiles matches Schedule::Poll's exactly. The
        // newly woken few are sorted and merged rather than re-sorting
        // the whole set.
        auto by_id = [](const Tile *a, const Tile *b) {
            return a->id() < b->id();
        };
        std::sort(pending_active_.begin(), pending_active_.end(), by_id);
        const std::size_t mid = active_.size();
        active_.insert(active_.end(), pending_active_.begin(),
                       pending_active_.end());
        std::inplace_merge(active_.begin(),
                           active_.begin() +
                               static_cast<std::ptrdiff_t>(mid),
                           active_.end(), by_id);
        pending_active_.clear();
    }
}

void
Shard::retire_idle()
{
    std::size_t w = 0;
    for (Tile *t : active_) {
        t->fine_retire();
        bool keep = t->busy();
        Cycle nxt = kNoEvent;
        if (!keep) {
            nxt = t->next_event();
            // A next_event at or before the current cycle means the
            // component is due immediately (or broke the wake-seam
            // contract); stay awake — conservative and always safe.
            if (nxt <= now_)
                keep = true;
        }
        if (keep) {
            active_[w++] = t;
            continue;
        }
        const std::size_t slot = t->sched_slot();
        sleeping_[slot] = 1;
        wake_at_[slot] = nxt;
        if (track_done_) {
            done_at_sleep_[slot] = t->done() ? 1 : 0;
            if (!done_at_sleep_[slot])
                ++sleeping_not_done_;
        }
        if (nxt != kNoEvent)
            wheel_.schedule(nxt, slot);
    }
    active_.resize(w);
}

// ----------------------------------------------------------------------
// Shard: cycle execution.
// ----------------------------------------------------------------------

void
Shard::posedge()
{
    cycle_begin();
    for (Tile *t : active_)
        t->posedge();
}

void
Shard::negedge()
{
    for (Tile *t : active_)
        t->negedge();
    ticks_ += active_.size();
    ++now_;
    if (retire_)
        retire_idle();
}

void
Shard::run_until(Cycle end)
{
    while (now_ < end) {
        cycle_begin();
        if (active_.empty()) {
            // Every tile sleeps: jump straight to the earliest wake
            // (or the window end). This is what makes free-running
            // windows O(active) instead of O(cycles x tiles).
            now_ = std::min(end, settled_min_wake());
            continue; // re-drain the mailbox before deciding again
        }
        for (Tile *t : active_)
            t->posedge();
        negedge();
    }
}

void
Shard::advance_to(Cycle c)
{
    for (Tile *t : active_)
        t->advance_to(c);
    if (c > now_)
        now_ = c;
}

// ----------------------------------------------------------------------
// Shard: rendezvous summaries.
// ----------------------------------------------------------------------

void
Shard::prepare_summaries()
{
    cycle_begin();
}

bool
Shard::busy() const
{
    // A sleeping tile is not busy by construction (it retired idle and
    // every external push since would have woken it via the drained
    // mailbox), so only the active set is scanned.
    for (const Tile *t : active_)
        if (t->busy())
            return true;
    return false;
}

bool
Shard::done() const
{
    if (track_done_) {
        if (sleeping_not_done_ != 0)
            return false;
        for (const Tile *t : active_)
            if (!t->done())
                return false;
        return true;
    }
    // An untracked run (possible when a policy introspects doneness
    // the engine did not announce): fold over every tile; sleeping
    // tiles answer from their aggregate cache.
    for (const Tile *t : tiles_)
        if (!t->done())
            return false;
    return true;
}

Cycle
Shard::next_event() const
{
    Cycle best = settled_min_wake(); // min wake over sleeping tiles
    for (const Tile *t : active_)
        best = std::min(best, t->next_event());
    return best;
}

// ----------------------------------------------------------------------
// Engine.
// ----------------------------------------------------------------------

Engine::Engine(const std::vector<Tile *> &tiles, unsigned threads)
{
    // threads == 0 degenerates to sequential, like the pre-engine API.
    const unsigned T =
        std::min<unsigned>(std::max(threads, 1u),
                           static_cast<unsigned>(tiles.size()));
    shards_.reserve(std::max(1u, T));
    for (unsigned i = 0; i < std::max(1u, T); ++i)
        shards_.push_back(std::make_unique<Shard>());
    // Contiguous block partition: equal shares (paper II-C) while
    // keeping mesh neighbours in the same thread, which minimizes
    // cross-thread links and thus loose-synchronization skew error.
    for (std::size_t i = 0; i < tiles.size(); ++i)
        shards_[common::block_of(i, tiles.size(), T)]->add_tile(tiles[i]);

    // Split each tile's egress registry along the partition: each tile
    // declares the downstream buffers it produces into and the node
    // consuming them. Buffers whose consumer lands in a different
    // shard become the producing shard's cross-shard set (traffic
    // feedback + batched handoff); buffers whose consumer shares the
    // shard are thread-private for the whole run and become its
    // same-shard set (unsynchronized fast path, selected per run by
    // Shard::prepare_run). With one shard every inter-tile buffer is
    // local — a sequential run pays no synchronization at all.
    std::unordered_map<NodeId, std::size_t> shard_of;
    for (std::size_t s = 0; s < shards_.size(); ++s)
        for (const Tile *t : shards_[s]->tiles())
            shard_of.emplace(t->id(), s);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        for (Tile *t : shards_[s]->tiles()) {
            for (const auto &[consumer, buf] : t->egress_buffers()) {
                auto it = shard_of.find(consumer);
                if (it == shard_of.end())
                    continue;
                if (it->second != s)
                    shards_[s]->add_cross_buffer(buf);
                else
                    shards_[s]->add_local_buffer(buf);
            }
        }
    }
}

Cycle
Engine::run(SyncPolicy &policy, const EngineOptions &opts)
{
    if (opts.max_cycles == 0)
        fatal("Engine::run: max_cycles must be nonzero "
              "(absolute cycle target)");
    if (shards_.empty() || shards_[0]->empty())
        return 0;

    const unsigned T = static_cast<unsigned>(shards_.size());
    const Schedule sched =
        opts.schedule ? *opts.schedule : env_schedule_default();

    // Baselines for the per-run component-tick counters: the tiles'
    // comp_cycles_run() totals are lifetime-cumulative, so the run's
    // contribution is differenced across the run.
    std::uint64_t comp_before = 0;
    std::uint64_t comps_total = 0;
    for (const auto &s : shards_)
        for (const Tile *t : s->tiles()) {
            comp_before += t->comp_cycles_run();
            comps_total += t->num_components();
        }

    // Per-shard summaries cost a full component scan each; publish
    // only what the policy and the run options will actually read.
    const ViewNeeds needs = policy.needs();
    const bool need_idle = needs.idleness || opts.stop_when_done;
    const bool need_done = opts.stop_when_done;
    // stop_when_done also needs next_event: a pending wake (a flit
    // pushed toward a sleeping tile of another shard) shows up there
    // and must veto completion, since a shard's busy() does not scan
    // sleeping tiles.
    const bool need_next = needs.next_event || opts.stop_when_done;
    const bool need_cross = needs.cross_traffic;
    const bool batching = opts.batch_cross_shard && T > 1;

    // cross_flits is promised per-run, but the underlying buffer
    // counters are lifetime-cumulative: subtract what previous runs
    // of this system already pushed.
    std::uint64_t cross_base = 0;
    if (need_cross)
        for (const auto &s : shards_)
            cross_base += s->cross_pushed();

    // Wake sinks must be registered before any worker can push into
    // another shard's buffers, so the schedules are built serially
    // here rather than at worker entry.
    for (auto &s : shards_)
        s->prepare_run(sched, need_done);
    const Cycle start_cycle = shards_[0]->now();

    // One shard's pre-rendezvous summary. Each shard writes its own
    // slot every window; CacheAligned keeps the slots on distinct
    // cache lines so the publishes never contend (the seed layout —
    // parallel byte/word vectors indexed by tid — put every shard's
    // writes on the same line).
    struct Summary
    {
        char busy = 1;
        char done = 0;
        Cycle min_next = kNoEvent;
        std::uint64_t cross = 0;
    };

    struct Shared
    {
        Barrier barrier;
        std::atomic<bool> stop{false};
        SyncWindow window;
        std::vector<common::CacheAligned<Summary>> sums;
        std::uint64_t ff_skipped = 0; ///< leader-only (under barrier)
        explicit Shared(unsigned t) : barrier(t), sums(t) {}
    } sh(T);

    // Runs inside the rendezvous barrier, by whichever thread arrives
    // last: assemble the global view from the per-shard summaries and
    // let the policy plan the next window.
    auto leader_plan = [&] {
        EngineView view;
        view.now = shards_[0]->now();
        view.horizon = opts.max_cycles;
        view.stop_when_done = opts.stop_when_done;
        view.skipped_cycles = sh.ff_skipped;
        view.all_idle =
            need_idle &&
            std::none_of(sh.sums.begin(), sh.sums.end(),
                         [](const auto &s) { return s.value.busy != 0; });
        view.all_done =
            need_done &&
            std::all_of(sh.sums.begin(), sh.sums.end(),
                        [](const auto &s) { return s.value.done != 0; });
        if (need_next)
            for (const auto &s : sh.sums)
                view.next_event =
                    std::min(view.next_event, s.value.min_next);
        if (need_cross) {
            for (const auto &s : sh.sums)
                view.cross_flits += s.value.cross;
            view.cross_flits -= cross_base;
        }

        if (view.now >= opts.max_cycles) {
            sh.stop.store(true, std::memory_order_relaxed);
            return;
        }
        if (opts.stop_when_done && view.all_done && view.all_idle &&
            view.next_event == kNoEvent) {
            // A genuinely finished system schedules nothing: any
            // remaining next_event is an in-flight wake or a component
            // that will still act, and vetoes the stop.
            sh.stop.store(true, std::memory_order_relaxed);
            return;
        }

        SyncWindow w = policy.next_window(view);
        if (w.stop) {
            sh.stop.store(true, std::memory_order_relaxed);
            return;
        }
        w.end = std::min(w.end, opts.max_cycles);
        if (w.advance_to != kNoEvent) {
            w.advance_to = std::min(w.advance_to, opts.max_cycles);
            if (w.advance_to < view.now)
                panic("SyncPolicy: clocks may only jump forward");
            sh.ff_skipped += w.advance_to - view.now;
        }
        const Cycle base =
            w.advance_to == kNoEvent ? view.now : w.advance_to;
        if (w.end <= base && base == view.now) {
            // Neither cycles to run nor a jump: no progress possible.
            sh.stop.store(true, std::memory_order_relaxed);
            return;
        }
        sh.window = w;
    };

    // Affinity: resolved once so every worker agrees on the mode.
    // Compact pinning puts shard i on core i — the same mapping the
    // System's construction groups used, so each shard's arena pages
    // stay on the NUMA node that first touched them. Worker 0 runs on
    // the calling thread; ScopedThreadPin restores its prior mask on
    // return so Engine::run never leaks affinity to the caller.
    const common::PinMode pin = common::resolve_pin_mode(opts.pin_threads);

    auto worker = [&](unsigned tid) {
        common::ScopedThreadPin pin_guard(pin, tid, T);
        Shard &my = *shards_[tid];
        my.bind_thread();
        if (batching)
            my.set_cross_batched(true);
        while (true) {
            // Publish the window's staged cross-shard flits before the
            // summaries: a flit this shard handed across a boundary is
            // reported busy by *this* shard (via cross_in_flight) until
            // the consumer commits it, so the leader can never observe
            // an all-idle system with flits still in flight, whatever
            // order the shards reach the rendezvous in. That holds
            // without batching too: under loose windows a slower
            // producer can push after the consumer shard summarized,
            // and a false all-idle lets fast-forward jump past the flit
            // to the horizon, stranding it.
            if (batching)
                my.flush_cross();

            // Publish this shard's state for the leader's decision.
            my.prepare_summaries();
            Summary &sum = sh.sums[tid].value;
            if (need_idle)
                sum.busy = (my.busy() || my.cross_in_flight()) ? 1 : 0;
            if (need_done)
                sum.done = my.done() ? 1 : 0;
            if (need_next)
                sum.min_next = my.next_event();
            if (need_cross)
                sum.cross = my.cross_pushed();

            sh.barrier.arrive_and_wait(leader_plan);
            if (sh.stop.load(std::memory_order_relaxed))
                break;

            const SyncWindow w = sh.window;
            if (w.advance_to != kNoEvent && w.advance_to > my.now())
                my.advance_to(w.advance_to);
            if (w.lockstep) {
                // Globally aligned clock edges: bitwise identical to
                // sequential execution (paper II-C). Every shard sees
                // the same clock and window bounds, so all of them
                // run this loop — and take its branches — the same
                // number of times. Multi-cycle lockstep windows also
                // need a barrier between one cycle's negedge and the
                // next cycle's posedge; the final cycle's is provided
                // by the rendezvous itself.
                while (my.now() < w.end) {
                    my.posedge();
                    sh.barrier.arrive_and_wait();
                    my.negedge();
                    if (my.now() < w.end) {
                        // Batched handoff must stay invisible to
                        // lockstep execution: publish this cycle's
                        // staged flits before the inter-cycle barrier
                        // (the final cycle's are published at the
                        // rendezvous), exactly where an unbatched
                        // push would first become observable.
                        if (batching)
                            my.flush_cross();
                        sh.barrier.arrive_and_wait();
                    }
                }
            } else {
                // Loose synchronization: free-run to the window end;
                // tiles within a shard stay mutually cycle-accurate.
                my.run_until(w.end);
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(T - 1);
    for (unsigned tid = 1; tid < T; ++tid)
        threads.emplace_back(worker, tid);
    worker(0);
    for (auto &th : threads)
        th.join();

    // Leave the buffers in normal (unbatched) mode between runs. The
    // final rendezvous flushed every staged flit, so this is a
    // bookkeeping reset, not a publication point.
    if (batching)
        for (auto &s : shards_)
            s->set_cross_batched(false);

    const Cycle end_cycle = shards_[0]->now();

    run_stats_ = EngineRunStats{};
    run_stats_.event_driven = sched == Schedule::EventFine;
    run_stats_.threads_pinned = pin != common::PinMode::None;
    run_stats_.ff_skipped_cycles = sh.ff_skipped;
    std::uint64_t comp_after = 0;
    for (const auto &s : shards_)
        for (const Tile *t : s->tiles())
            comp_after += t->comp_cycles_run();
    run_stats_.comp_cycles_run = comp_after - comp_before;
    run_stats_.comp_cycles_skipped =
        comps_total * (end_cycle - start_cycle) -
        run_stats_.comp_cycles_run;
    std::uint64_t total_tile_cycles = 0;
    for (const auto &s : shards_) {
        run_stats_.tile_cycles_run += s->tile_cycles_run();
        total_tile_cycles += static_cast<std::uint64_t>(
                                 s->tiles().size()) *
                             (end_cycle - start_cycle);
        s->finish_run();
    }
    run_stats_.tile_cycles_skipped =
        total_tile_cycles - run_stats_.tile_cycles_run;

    return end_cycle;
}

} // namespace hornet::sim
