/**
 * @file
 * The Wakeable interface: the push half of the event-driven wake seam.
 *
 * Communication endpoints that can receive work asynchronously (a tile
 * whose VC buffers another tile produces into) implement Wakeable so
 * that the *producer* of the work can tell the consumer's scheduler
 * "something will happen for you at cycle c" at the moment the work is
 * handed over, instead of the scheduler re-polling every component
 * every cycle. The interface lives in common/ so that the network
 * layer (which owns the communication points) can wake the simulation
 * layer (which owns the schedulers) without a dependency cycle.
 */
#ifndef HORNET_COMMON_WAKEABLE_H
#define HORNET_COMMON_WAKEABLE_H

#include "common/types.h"

namespace hornet {

/**
 * Anything that can be told "new work for you becomes actionable at
 * cycle @p at". Implementations must be safe to call from any thread:
 * producers invoke notify_activity() from their own thread while the
 * consumer may be running (the wake is recorded and applied at the
 * consumer's next synchronization point). Spurious or early wakes must
 * be harmless — waking an idle consumer is a scheduling hint, never an
 * observable simulation event.
 */
class Wakeable
{
  public:
    /** Wakeables are owned elsewhere; destruction via this interface
     *  is not supported. */
    virtual ~Wakeable() = default;

    /**
     * Announce externally produced work that becomes actionable at
     * cycle @p at (e.g. a flit whose arrival_cycle is @p at was pushed
     * into one of this consumer's ingress buffers). Callable from any
     * thread; idempotent; never later than the work it announces.
     */
    virtual void notify_activity(Cycle at) = 0;

    /**
     * Same-thread form of notify_activity(): the caller runs on the
     * consumer's own thread, as a push into a buffer in local mode
     * does (net::VcBuffer::set_local). Implementations may then use
     * plain loads and stores where notify_activity() needs atomic
     * read-modify-writes. The default forwards to notify_activity().
     */
    virtual void notify_local(Cycle at) { notify_activity(at); }
};

} // namespace hornet

#endif // HORNET_COMMON_WAKEABLE_H
