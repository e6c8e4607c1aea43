/**
 * @file
 * Shareable immutable half of a simulated system (sweep support).
 *
 * A parameter sweep runs the same system many times with different
 * seeds or workloads. Building a System from scratch for every point
 * repeats work whose result is identical each time: walking the
 * topology in the routing/VCA builders and compiling the tables into
 * their frozen flat forms. SystemBlueprint factors that work out: it
 * owns a frozen *prototype* System whose read-only frozen tables every
 * instantiated System adopts as views (net::RoutingTable::adopt), and
 * whose registered deliverable-flow ids their flow statistics freeze
 * onto, so per-run construction is reduced to the genuinely
 * per-run half — tiles, routers, buffers and frontends. Instantiated
 * systems are independent otherwise and may run concurrently on
 * different threads; sim::JobEngine packs them onto a worker pool.
 */
#ifndef HORNET_SIM_SYSTEM_BLUEPRINT_H
#define HORNET_SIM_SYSTEM_BLUEPRINT_H

#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/system.h"

namespace hornet::sim {

/**
 * The immutable, shareable half of a System: topology, configuration,
 * frozen routing/VCA tables and the registered deliverable-flow sets.
 *
 * Usage: construct, populate the prototype's routing/VCA tables
 * through network() (the same builder calls a standalone System
 * takes), optionally register a frontend factory, then freeze().
 * After freeze() the blueprint is immutable and instantiate() may be
 * called concurrently from any number of threads; every System it
 * returns reads the one shared copy of the tables and must not
 * outlive the blueprint.
 */
class SystemBlueprint
{
  public:
    /**
     * Attaches a run's frontends (traffic generators/consumers) to a
     * freshly instantiated or reset System. Called once per job with
     * the System and the job's seed; must be thread-safe — the
     * JobEngine invokes it concurrently from its workers on distinct
     * Systems — and deterministic in (system, seed): attaching to a
     * reset System must reproduce exactly the frontends a fresh
     * instantiation would get, or reuse breaks bitwise identity.
     */
    using FrontendFactory = std::function<void(System &, std::uint64_t)>;

    /**
     * Build the prototype System for @p topo / @p cfg. The prototype
     * never runs; it exists to host the table build and the frozen
     * storage. @p layout is also the layout every instantiated System
     * is built with.
     */
    SystemBlueprint(const net::Topology &topo, const net::NetworkConfig &cfg,
                    const SystemLayout &layout = {});

    /** The geometry this blueprint was built on. */
    const net::Topology &topology() const { return topo_; }

    /** The network configuration this blueprint was built with. */
    const net::NetworkConfig &config() const { return cfg_; }

    /**
     * The prototype's network, for the routing/VCA builders to
     * populate (net::build_routing and friends take a Network).
     * Mutation is only allowed before freeze().
     */
    net::Network &network() { return proto_->network(); }

    /** The prototype System (read-only; table introspection). */
    const System &prototype() const { return *proto_; }

    /**
     * Register the factory that attaches each run's frontends (see
     * FrontendFactory for the contract). May be replaced between
     * jobs of different workloads, but not while instantiate() or
     * attach_frontends() runs concurrently.
     */
    void set_frontend_factory(FrontendFactory f) { factory_ = std::move(f); }

    /**
     * Freeze the prototype's tables. Call after the builders have
     * populated the tables (and registered their flows); idempotent.
     * Until then instantiate() panics.
     */
    void freeze();

    /** True once freeze() has run. */
    bool frozen() const { return frozen_; }

    /**
     * Build a run-ready System: constructed like System(topo, cfg,
     * @p seed, layout), but adopting the blueprint's frozen tables
     * instead of building and freezing its own, and with the frontend
     * factory's frontends already attached. Thread-safe after
     * freeze() (concurrent instantiations share only read-only
     * state). The System must not outlive the blueprint.
     */
    std::unique_ptr<System> instantiate(std::uint64_t seed) const;

    /**
     * Run the frontend factory against @p sys with @p seed (no-op
     * without a factory). instantiate() calls this itself; the
     * JobEngine reuse path calls it directly after a successful
     * System::reset_for_rerun, which drops the previous run's
     * frontends.
     */
    void
    attach_frontends(System &sys, std::uint64_t seed) const
    {
        if (factory_)
            factory_(sys, seed);
    }

  private:
    net::Topology topo_;
    net::NetworkConfig cfg_;
    SystemLayout layout_;
    /// Prototype hosting the shared frozen tables; never runs.
    std::unique_ptr<System> proto_;
    FrontendFactory factory_;
    bool frozen_ = false;
};

} // namespace hornet::sim

#endif // HORNET_SIM_SYSTEM_BLUEPRINT_H
