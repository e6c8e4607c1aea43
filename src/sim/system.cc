#include "sim/system.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/log.h"
#include "sim/ejection_sink.h"

namespace hornet::sim {

std::unique_ptr<SyncPolicy>
make_sync_policy(const RunOptions &opts)
{
    if (opts.sync_period == 0)
        fatal("run: sync_period must be >= 1");
    std::unique_ptr<SyncPolicy> policy;
    if (opts.sync.empty()) {
        // Legacy declarative form: the period picks the policy.
        if (opts.sync_period == 1)
            policy = std::make_unique<CycleAccurateSync>();
        else
            policy = std::make_unique<PeriodicSync>(opts.sync_period);
    } else if (opts.sync == "cycle-accurate") {
        policy = std::make_unique<CycleAccurateSync>();
    } else if (opts.sync == "periodic") {
        policy = std::make_unique<PeriodicSync>(opts.sync_period);
    } else if (opts.sync == "adaptive") {
        policy = std::make_unique<AdaptiveSync>(opts.adaptive);
    } else {
        fatal("run: unknown sync backend \"" + opts.sync +
              "\" (expected cycle-accurate, periodic or adaptive)");
    }
    if (opts.fast_forward)
        policy = std::make_unique<FastForwardSync>(std::move(policy));
    return policy;
}

System::System(const net::Topology &topo, const net::NetworkConfig &cfg,
               std::uint64_t seed, const SystemLayout &layout)
{
    const std::uint32_t n = topo.num_nodes();

    // Placement groups: one arena per group, nodes dealt in the same
    // contiguous blocks the engine uses for shards. Default: one group
    // per hardware thread so any later thread count <= that finds its
    // shards' storage in whole arenas.
    unsigned groups = layout.placement_groups;
    if (groups == 0)
        groups = std::max(1u, std::thread::hardware_concurrency());
    groups = std::min<unsigned>(groups, std::max(1u, n));
    arenas_.reserve(groups);
    for (unsigned g = 0; g < groups; ++g)
        arenas_.push_back(std::make_unique<common::Arena>());
    placement_.arena_of_node.resize(n);
    for (NodeId i = 0; i < n; ++i)
        placement_.arena_of_node[i] =
            arenas_[common::block_of(i, n, groups)].get();
    placement_.groups = groups;
    placement_.parallel = groups > 1;
    placement_.pin = layout.pin;

    // Tiles go into their group's arena first (they head the arena's
    // destructor list, so they are destroyed last within the group),
    // each group on its own — possibly pinned — thread: the first
    // touch of the arena pages happens on the core that will later run
    // the matching shard. Tile construction is order-independent (tile
    // i's PRNG seeds from i alone), so parallel construction is
    // bitwise-equivalent to serial.
    tiles_.assign(n, nullptr);
    common::for_each_group(placement_, [&](unsigned g) {
        for (NodeId i = 0; i < n; ++i) {
            if (common::block_of(i, n, groups) == g)
                tiles_[i] = arenas_[g]->make<Tile>(i, seed + i);
        }
    });
    std::vector<Rng *> rngs;
    std::vector<TileStats *> stats;
    for (NodeId i = 0; i < n; ++i) {
        rngs.push_back(&tiles_[i]->rng());
        stats.push_back(&tiles_[i]->stats());
    }
    network_ = std::make_unique<net::Network>(topo, cfg, rngs, stats,
                                              &placement_);
    for (NodeId i = 0; i < n; ++i) {
        tiles_[i]->set_router(&network_->router(i));
        network_->router(i).set_flow_stats(&tiles_[i]->flow_stats());
    }

    // Declare each tile's inter-tile egress buffers: the egress of a
    // toward b produces into the ingress buffers of b's port facing a.
    // The engine intersects this registry with its shard partition to
    // find the buffers that cross thread boundaries.
    for (NodeId a = 0; a < n; ++a) {
        const auto &nbrs = topo.neighbors(a);
        for (PortId p = 0; p < nbrs.size(); ++p) {
            const NodeId b = nbrs[p];
            for (net::VcBuffer *buf :
                 network_->router(b).ingress_buffers(topo.port_to(b, a)))
                tiles_[a]->add_egress_buffer(b, buf);
        }
    }

    // Intra-tile buffers — the CPU-port injection buffers a tile's
    // bridge produces into and the ejection buffers it drains — never
    // cross a thread boundary (a tile is never split across threads),
    // so they use the VC buffer's unsynchronized fast path
    // permanently, whatever the engine partition. Inter-tile buffers
    // are classified per run by the Engine (same-shard ones also go
    // local; see Shard::prepare_run).
    for (NodeId i = 0; i < n; ++i) {
        net::Router &r = network_->router(i);
        for (VcId v = 0; v < r.num_injection_vcs(); ++v)
            r.injection_buffer(v).set_local(true);
        for (VcId v = 0; v < r.num_ejection_vcs(); ++v)
            r.ejection_buffer(v).set_local(true);
    }
}

void
System::add_frontend(NodeId n, std::unique_ptr<Frontend> fe)
{
    if (network_->router(n).num_injection_vcs() == 0)
        fatal(strcat("add_frontend: node ", n,
                     " is switch-only (no CPU-facing port)"));
    tiles_.at(n)->add_frontend(std::move(fe));
}

void
System::attach_default_sinks()
{
    if (sinks_attached_)
        return;
    // Destination-only tiles get a discarding consumer so their
    // ejection buffers drain. Switch-only tiles (zero ejection VCs —
    // see Topology::is_switch) never receive traffic endpoints, so
    // they get no frontend at all.
    for (auto *t : tiles_) {
        if (t->frontends().empty() &&
            t->router()->num_ejection_vcs() > 0)
            t->add_frontend(std::make_unique<EjectionSink>(t->router()));
    }
    sinks_attached_ = true;
}

Cycle
System::run(const RunOptions &opts)
{
    if (opts.max_cycles == 0)
        fatal("run: max_cycles must be nonzero (absolute cycle target)");
    auto policy = make_sync_policy(opts);
    EngineOptions eng_opts;
    eng_opts.max_cycles = opts.max_cycles;
    eng_opts.stop_when_done = opts.stop_when_done;
    eng_opts.batch_cross_shard = opts.batch_handoff;
    if (!opts.schedule.empty())
        eng_opts.schedule = schedule_from_name(opts.schedule);
    eng_opts.pin_threads = common::pin_mode_from_string(
        opts.pin.empty() ? "auto" : opts.pin);
    return run(*policy, eng_opts, opts.threads);
}

void
System::freeze_tables()
{
    if (tables_frozen_)
        return;
    const std::uint32_t n = static_cast<std::uint32_t>(tiles_.size());
    // Each group's tables freeze into that group's arena on its own
    // (possibly pinned) thread, mirroring construction: the frozen
    // slot arrays and option slabs first-touch on the core that later
    // runs the matching shard. Table contents are thread-independent,
    // so parallel freezing is bitwise-equivalent to serial.
    common::for_each_group(placement_, [&](unsigned g) {
        for (NodeId i = 0; i < n; ++i) {
            if (common::block_of(i, n, placement_.groups) != g)
                continue;
            net::Router &r = network_->router(i);
            r.freeze_tables();
            // The flows this tile can deliver: delivery entries route
            // to the node itself, and their next_flow is the original
            // (phase-stripped) flow id the delivered-flit stats are
            // keyed by.
            tiles_[i]->flow_stats().freeze(
                net::deliverable_flows(r.routing_table(), i),
                placement_.arena_of_node[i]);
        }
    });
    tables_frozen_ = true;
}

void
System::adopt_frozen_tables(
    const System &donor, const std::vector<std::vector<FlowId>> &deliverable)
{
    if (tables_frozen_)
        panic("adopt_frozen_tables: tables already frozen");
    const std::uint32_t n = static_cast<std::uint32_t>(tiles_.size());
    if (donor.num_tiles() != n || deliverable.size() != n)
        panic(strcat("adopt_frozen_tables: donor/deliverable shape "
                     "mismatch (", donor.num_tiles(), "/",
                     deliverable.size(), " vs ", n, " tiles)"));
    common::for_each_group(placement_, [&](unsigned g) {
        for (NodeId i = 0; i < n; ++i) {
            if (common::block_of(i, n, placement_.groups) != g)
                continue;
            network_->router(i).adopt_tables(donor.network().router(i));
            std::vector<FlowId> flows = deliverable[i];
            tiles_[i]->flow_stats().freeze(std::move(flows),
                                           placement_.arena_of_node[i]);
        }
    });
    tables_frozen_ = true;
}

bool
System::reset_for_rerun(std::uint64_t seed)
{
    if (network_->has_buffered_flits())
        return false;
    const std::uint32_t n = static_cast<std::uint32_t>(tiles_.size());
    for (NodeId i = 0; i < n; ++i) {
        tiles_[i]->reset_for_rerun(seed + i);
        network_->router(i).reset_run_state();
    }
    sinks_attached_ = false;
    last_engine_stats_ = EngineRunStats{};
    return true;
}

Cycle
System::run(SyncPolicy &policy, const EngineOptions &opts,
            unsigned threads)
{
    attach_default_sinks();
    freeze_tables();
    Engine engine(tiles_, threads);
    const Cycle end = engine.run(policy, opts);
    last_engine_stats_ = engine.last_run_stats();
    return end;
}

void
System::reset_stats()
{
    for (auto *t : tiles_)
        t->reset_stats();
}

SystemStats
System::collect_stats() const
{
    SystemStats out;
    out.ff_skipped_cycles = last_engine_stats_.ff_skipped_cycles;
    out.tile_cycles_run = last_engine_stats_.tile_cycles_run;
    out.tile_cycles_skipped = last_engine_stats_.tile_cycles_skipped;
    out.comp_cycles_run = last_engine_stats_.comp_cycles_run;
    out.comp_cycles_skipped = last_engine_stats_.comp_cycles_skipped;
    out.arena_per_group.reserve(arenas_.size());
    for (const auto &a : arenas_) {
        out.arena_per_group.push_back(
            {a->bytes_reserved(), a->bytes_used()});
        out.arena_bytes_reserved += a->bytes_reserved();
        out.arena_bytes_used += a->bytes_used();
    }
    if (!tiles_.empty())
        out.arena_bytes_per_tile =
            static_cast<double>(out.arena_bytes_used) /
            static_cast<double>(tiles_.size());
    out.per_tile.reserve(tiles_.size());
    for (const auto *t : tiles_) {
        out.per_tile.push_back(t->stats());
        out.total.merge(t->stats());
        // Tile flow stats live in the dense frozen-index table (hot
        // path); the ordered view is produced here, at merge time, by
        // the per_flow std::map. Accumulation is deterministic
        // regardless of within-tile iteration order: each flow appears
        // at most once per tile (dense XOR overflow), and tiles merge
        // in index order.
        t->flow_stats().for_each([&](FlowId flow, const FlowStats &fs) {
            auto &dst = out.per_flow[flow];
            dst.packets_delivered += fs.packets_delivered;
            dst.flits_delivered += fs.flits_delivered;
            dst.packet_latency.merge(fs.packet_latency);
        });
    }
    return out;
}

} // namespace hornet::sim
