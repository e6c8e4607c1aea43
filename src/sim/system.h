/**
 * @file
 * Whole-system composition root (paper II-C, IV-B).
 *
 * The simulated system is divided into tiles (router + generators +
 * private PRNG + private statistics). System builds the tiles and the
 * network, wires every Clocked component to its owning tile, and runs
 * the simulation by composing an Engine (per-thread Shard schedulers)
 * with a SyncPolicy (cycle-accurate barriers, periodic sync, and/or
 * fast-forward). All engine mechanics live in sim/engine.*; all
 * synchronization strategy lives in sim/sync_policy.*.
 */
#ifndef HORNET_SIM_SYSTEM_H
#define HORNET_SIM_SYSTEM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/placement.h"
#include "common/stats.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/engine.h"
#include "sim/sync_policy.h"
#include "sim/tile.h"

namespace hornet::sim {

/** Engine run parameters (declarative form; see make_sync_policy). */
struct RunOptions
{
    /** Stop after this many cycles (counted on tile 0's clock). */
    Cycle max_cycles = 0;
    /** Number of simulation threads (tiles are dealt in contiguous
     *  blocks, one shard per thread). */
    unsigned threads = 1;
    /**
     * Barrier period in cycles. 1 = cycle-accurate (two barriers per
     * cycle); k > 1 = loose synchronization every k cycles.
     */
    std::uint32_t sync_period = 1;
    /**
     * Synchronization backend by name: "" (default) derives the policy
     * from sync_period as above; explicit values are "cycle-accurate",
     * "periodic" (uses sync_period) and "adaptive" (uses the adaptive
     * options below; sync_period is ignored).
     */
    std::string sync;
    /** AdaptiveSync controller tuning (sync == "adaptive" only). */
    AdaptiveSync::Options adaptive;
    /** Fast-forward drained-network gaps (paper IV-B). */
    bool fast_forward = false;
    /** Batch cross-shard flit handoff per window instead of per push
     *  (see EngineOptions::batch_cross_shard). Usually enabled
     *  together with the adaptive backend. */
    bool batch_handoff = false;
    /**
     * Shard schedule by name: "event-fine" ticks only awake tiles and,
     * inside them, only awake components; "poll" is its never-sleep
     * mode and ticks every tile every cycle (bitwise identical results
     * for lockstep/single-shard runs — see EngineOptions::schedule for
     * the loose-window caveat). Left empty, the HORNET_SCHEDULE
     * environment variable decides (default event-fine).
     */
    std::string schedule;
    /** Also stop as soon as every frontend is done and the network has
     *  drained (used by application workloads). Checked at window
     *  rendezvous: with sync_period k > 1 the run may overshoot the
     *  completion cycle by up to k-1 cycles — for any thread count,
     *  where the old engine checked every cycle when threads == 1. */
    bool stop_when_done = false;
    /**
     * Worker thread affinity by name: "auto" (pin compactly on
     * multi-NUMA hosts, else leave the OS scheduler alone), "none",
     * "compact", "spread" (see common::PinMode). Empty means "auto".
     * Affinity keeps each shard on the core whose NUMA node holds the
     * shard's first-touched arena; it never changes results.
     */
    std::string pin;
};

/**
 * Build the SyncPolicy described by @p opts. With no explicit
 * opts.sync name: CycleAccurateSync for sync_period 1, PeriodicSync
 * otherwise. An explicit name selects its policy directly ("adaptive"
 * builds AdaptiveSync from opts.adaptive). Either way the result is
 * wrapped in FastForwardSync when fast_forward is requested.
 */
std::unique_ptr<SyncPolicy> make_sync_policy(const RunOptions &opts);

/**
 * How the system's object graph is laid onto memory and threads at
 * construction time (ISSUE 6). Placement never changes simulation
 * results — only where objects live and which thread first touches
 * them.
 */
struct SystemLayout
{
    /**
     * Number of placement groups == per-group arenas. Tiles are dealt
     * into groups with the same contiguous block partition the engine
     * uses for shards, so when a later run's thread count equals the
     * group count, each shard's working set is one contiguous arena.
     * 0 (default) = one group per hardware thread (capped by the tile
     * count).
     */
    unsigned placement_groups = 0;
    /** Affinity of the per-group construction threads (first touch). */
    common::PinMode pin = common::PinMode::Auto;
};

/**
 * Owns the tiles and the network, and runs the simulation. All
 * per-node objects (tiles, routers, egress ports, VC buffers) live in the
 * per-group construction arenas owned here; everything handed out is
 * a raw pointer into them, valid for the System's lifetime.
 */
class System
{
  public:
    /**
     * Build a system: one tile and one router per node of @p topo.
     * @param seed master seed; tile i uses seed + i for its PRNG.
     * @param layout memory/thread placement of the object graph
     *               (defaults to one arena group per hardware thread).
     */
    System(const net::Topology &topo, const net::NetworkConfig &cfg,
           std::uint64_t seed, const SystemLayout &layout = {});

    /** The simulated network (routers + links). */
    net::Network &network() { return *network_; }
    /** The simulated network (read-only). */
    const net::Network &network() const { return *network_; }

    /** Tile of node @p n. */
    Tile &tile(NodeId n) { return *tiles_.at(n); }
    /** Tile of node @p n (read-only). */
    const Tile &tile(NodeId n) const { return *tiles_.at(n); }
    /** Number of tiles (== nodes of the topology). */
    std::uint32_t num_tiles() const
    {
        return static_cast<std::uint32_t>(tiles_.size());
    }

    /** Attach a frontend to tile @p n. */
    void add_frontend(NodeId n, std::unique_ptr<Frontend> fe);

    /** Run the simulation; returns the final cycle of tile 0. */
    Cycle run(const RunOptions &opts);

    /**
     * Run under an explicit synchronization policy (strategy form of
     * run(RunOptions)); returns the final cycle of tile 0.
     */
    Cycle run(SyncPolicy &policy, const EngineOptions &opts,
              unsigned threads = 1);

    /**
     * Compile the per-flit lookup structures: every router's routing
     * and VCA tables freeze into their flat single-probe forms, and
     * every tile's deliverable-flow set (the flows the routing
     * builders registered with it as destination,
     * net::Network::deliverable_flows) freezes into the dense
     * flow-stats index — all carved from the owning placement group's
     * arena, on that group's construction thread. Routing tables a VCA
     * builder already froze (on the builder's thread) stay as they
     * are. Called automatically before the first run once table
     * building is complete; idempotent. Table add() panics afterwards.
     */
    void freeze_tables();

    /**
     * Adopt another System's frozen lookup tables instead of freezing
     * our own (the SystemBlueprint seam): every router's routing and
     * VCA tables share @p donor's read-only flat storage
     * (net::OptionTable::adopt), and every tile's flow-stats index
     * freezes from the donor's registered deliverable-flow sets —
     * skipping both the table build and the freeze compilation, the
     * dominant cost of System construction. Runs per placement group
     * on that group's construction thread, like freeze_tables(). The
     * donor must be frozen, built on the same topology/config, and
     * must outlive this System. Panics if tables were already frozen
     * or any router's tables are non-empty (builders must not have
     * run here).
     */
    void adopt_frozen_tables(const System &donor);

    /**
     * Return the system to its just-constructed state for another run
     * (the sim::JobEngine reuse path): rewinds every tile's clock,
     * reseeds its PRNG from @p seed exactly as the constructor would
     * (tile i gets seed + i), clears statistics, drops all frontends
     * (including default sinks — the next run attaches its own), and
     * resets every router's arbitration state. Frozen tables are
     * untouched. Returns false — leaving the system unchanged — when
     * flits are still buffered anywhere (a run that stopped at
     * max_cycles mid-traffic is not reusable); callers fall back to
     * building a fresh System. Must not be called during a run.
     */
    bool reset_for_rerun(std::uint64_t seed);

    /** True once freeze_tables() has run. */
    bool tables_frozen() const { return tables_frozen_; }

    /** Merge all per-tile statistics into a snapshot (includes the
     *  engine scheduling counters of the most recent run). */
    SystemStats collect_stats() const;

    /** Clear all per-tile statistics (end-of-warmup, paper Table I). */
    void reset_stats();

    /** Engine scheduling statistics of the most recent run() call
     *  (fast-forward jumps, tile-cycles ticked vs skipped). */
    const EngineRunStats &last_engine_stats() const
    {
        return last_engine_stats_;
    }

    /** Number of placement groups (== construction arenas). */
    unsigned placement_groups() const
    {
        return static_cast<unsigned>(arenas_.size());
    }

    /** Construction arena of placement group @p g (footprint checks). */
    const common::Arena &arena(unsigned g) const { return *arenas_.at(g); }

  private:
    /** Give destination-only tiles a discarding consumer. */
    void attach_default_sinks();

    /// Per-group construction arenas. Declared before everything that
    /// points into them: members destroy in reverse order, so the
    /// arenas (which run the tiles'/routers' destructors) go last.
    std::vector<std::unique_ptr<common::Arena>> arenas_;
    /// Node-to-arena map handed to net::Network; pins the block
    /// partition used at construction time.
    common::NodePlacement placement_;
    std::vector<Tile *> tiles_; ///< arena-placed, non-owning
    std::unique_ptr<net::Network> network_;
    bool sinks_attached_ = false;
    bool tables_frozen_ = false;
    EngineRunStats last_engine_stats_;
};

} // namespace hornet::sim

#endif // HORNET_SIM_SYSTEM_H
