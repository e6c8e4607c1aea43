/**
 * @file
 * The Clocked component interface: the contract between everything that
 * evolves with a tile clock (routers, memory endpoints, traffic
 * frontends) and the simulation engine.
 *
 * A clock domain (a Tile) ticks its components in two phases per cycle
 * (paper II-C): a positive edge in which components read state published
 * in previous cycles and stage their own updates, and a negative edge in
 * which staged updates are committed. Beyond ticking, components expose
 * exactly the three queries the engine needs to schedule them:
 * idleness (may the clock jump?, paper IV-B), the next self-scheduled
 * event (how far may it jump?), and workload completion (may the run
 * stop?). Keeping this surface minimal is what lets sync backends be
 * swapped (cycle-accurate barriers, periodic sync, fast-forward,
 * event-driven shards, and future distributed shards) without touching
 * any component code.
 *
 * The event-driven scheduler sharpens these queries into a *wake-seam
 * contract* (docs/ENGINE.md, "Event-driven shards"): while a component
 * is idle, ticking it must be a no-op (no state change, no PRNG
 * draws), its next_event() must be an absolute cycle that does not
 * depend on how often it was queried or ticked, and any future
 * done()-flip must be announced by next_event() — because an idle
 * component may not be ticked again until that cycle, or until work
 * arrives in one of its buffers. Work arriving from another thread is
 * announced through the Wakeable seam and crosses into the owning
 * scheduler via a lock-free MPSC mailbox drained at cycle boundaries
 * (docs/ENGINE.md, "Wake mailbox memory model"); a component never
 * sees any of that machinery — it only has to keep the three queries
 * honest.
 */
#ifndef HORNET_SIM_CLOCKED_H
#define HORNET_SIM_CLOCKED_H

#include "common/types.h"

/**
 * @namespace hornet::sim
 * The simulation engine: clock domains (tiles), per-thread shard
 * schedulers, synchronization policies and the system composition
 * root.
 */
namespace hornet::sim {

/**
 * Anything stepped by a tile clock. Implementations are owned by
 * exactly one clock domain and are only ever ticked by that domain's
 * thread; the engine provides whatever cross-domain synchronization the
 * active SyncPolicy requires.
 */
class Clocked
{
  public:
    /** Components are owned and destroyed by their clock domain. */
    virtual ~Clocked() = default;

    /** Positive clock edge at local cycle @p now: read published
     *  state, stage updates. */
    virtual void posedge(Cycle now) = 0;

    /** Negative clock edge at local cycle @p now: commit staged
     *  updates. */
    virtual void negedge(Cycle now) = 0;

    /**
     * True when the component holds no buffered work and would not act
     * at cycle @p now — i.e. it would not mind the clock jumping
     * forward (fast-forward, paper IV-B). While idle, ticking the
     * component must be a no-op: the event-driven scheduler may skip
     * its ticks entirely until next_event() or an external push.
     */
    virtual bool idle(Cycle now) const = 0;

    /**
     * Earliest future cycle at which this component will act on its
     * own (given an otherwise idle system). kNoEvent when it will
     * never self-schedule again. Components that cannot predict (e.g.
     * running CPU cores) must return now + 1, which disables
     * fast-forward while they run. Precision contract (event-driven
     * shards): the hint may be early but never late, for an idle
     * component it must be an absolute cycle (stable under clock
     * jumps while idle), and a pending done()-flip at cycle T with no
     * other action must be announced as next_event() <= T.
     */
    virtual Cycle next_event(Cycle now) const = 0;

    /**
     * True once the component has finished its workload entirely.
     * Components with no notion of a finite workload (routers) report
     * done by default. A false→true flip without an
     * intervening tick must be announced via next_event() (see
     * there); flips back to false only happen when new work arrives,
     * which always wakes the owning tile.
     */
    virtual bool done(Cycle /*now*/) const { return true; }
};

} // namespace hornet::sim

#endif // HORNET_SIM_CLOCKED_H
