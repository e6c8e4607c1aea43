/**
 * @file
 * Randomized differential-test harness (ISSUE 7): a seeded generator
 * of small random systems — topology, VC configuration, routing
 * scheme, injection process, sync policy, batching, fast-forward —
 * each run under {poll, event-fine} x {1, 2, 4 threads} and checked
 * against the sequential polling reference. Every run also ends with
 * the routers' reference full scan: each non-empty ingress buffer
 * must still have its occupancy-mask bit.
 *
 * Determinism envelope (docs/ENGINE.md):
 *  - one thread is bitwise for every policy and scheduler;
 *  - lockstep policies (cycle-accurate, period-1 periodic, adaptive
 *    pinned to one-cycle windows, and fast-forward around any of
 *    those) are bitwise at every thread count, bidirectional links
 *    included: link arbitration reads only posedge-published
 *    snapshots (demand and free space), fixed by the inter-phase
 *    barrier, so no negedge-phase race remains (ROADMAP determinism
 *    corner (a), fixed);
 *  - loose multi-shard windows are thread-timing dependent, so those
 *    configurations assert conservation (every injected flit
 *    delivered after the sources stop) instead of bitwise equality,
 *    and only on deadlock-free XY mesh routes where a full drain is
 *    guaranteed.
 *
 * The full sweep (>= 200 configurations) runs as the `long`-labelled
 * ctest case (HORNET_DIFF_FULL=1); the default registration runs a
 * CI-smoke subset. HORNET_DIFF_CONFIGS=N overrides the count for
 * bisection.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "net/routing/builders.h"
#include "net/topology.h"
#include "net/vca.h"
#include "sim/engine.h"
#include "sim/sync_policy.h"
#include "sim/system.h"
#include "sim/system_blueprint.h"
#include "test_util.h"
#include "traffic/flows.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"
#include "traffic/system_builder.h"

namespace hornet {
namespace {

using sim::EngineOptions;
using sim::Schedule;
using testutil::snapshot;

/** Sync-policy families the generator draws from. */
enum class Policy
{
    CycleAccurate,  ///< lockstep
    PeriodicOne,    ///< period-1 windows: lockstep
    PeriodicLoose,  ///< multi-cycle windows: loose
    AdaptivePinned, ///< min == max == 1: lockstep
    AdaptiveLoose,  ///< default adaptive windows: loose
};

/** One drawn configuration (everything a run needs, all seeded). */
struct DiffConfig
{
    std::uint64_t seed = 1; ///< system seed (PRNGs, ROMM tables)
    bool ring = false;      ///< ring topology instead of a 2D mesh
    std::uint32_t w = 2;    ///< mesh width, or ring node count
    std::uint32_t h = 1;    ///< mesh height (unused for rings)
    const char *routing = "xy";
    const char *pattern = "uniform";
    net::NetworkConfig net;
    std::uint32_t packet_size = 4;
    double rate = 0.1;
    Cycle burst_period = 0;
    std::uint32_t burst_size = 1;
    Cycle stop_at = 0;
    Cycle horizon = 500;
    Policy policy = Policy::CycleAccurate;
    std::uint32_t period = 1; ///< PeriodicLoose window
    bool fast_forward = false;
    bool batch = false;

    bool
    lockstep() const
    {
        return policy == Policy::CycleAccurate ||
               policy == Policy::PeriodicOne ||
               policy == Policy::AdaptivePinned;
    }

    /** Multi-thread runs are bitwise under lockstep windows —
     *  bidirectional links included, now that link arbitration reads
     *  only posedge-published phase-stable snapshots (see the file
     *  comment). */
    bool
    thread_bitwise() const
    {
        return lockstep();
    }

    /** Loose runs assert a full drain: only deadlock-free XY mesh
     *  routes guarantee one. EDVCA is excluded — its exclusive
     *  per-flow VC ownership can strand packets under loose windows'
     *  sync error, and so can bidirectional-link arbitration reading
     *  remote demand across desynchronized shards (both observed
     *  under every scheduler, poll included; ROADMAP "Loose-window
     *  liveness"). */
    bool
    drain_safe() const
    {
        return !ring && std::strcmp(routing, "xy") == 0 &&
               net.router.vca_mode != net::VcaMode::Edvca &&
               !net.bidirectional_links;
    }

    std::string
    describe() const
    {
        std::ostringstream os;
        os << "seed=" << seed << ' '
           << (ring ? "ring" : "mesh") << w << 'x' << h << ' '
           << routing << ' ' << pattern << " vcs=" << net.router.net_vcs
           << '/' << net.router.cpu_vcs
           << " cap=" << net.router.net_vc_capacity
           << " lat=" << net.link_latency
           << " bw=" << net.router.link_bandwidth
           << " xbar=" << net.router.xbar_bandwidth
           << " vca=" << net::to_string(net.router.vca_mode)
           << (net.router.adaptive_routing ? " adaptive" : "")
           << (net.bidirectional_links ? " bidir" : "")
           << " pkt=" << packet_size << " rate=" << rate
           << " burst=" << burst_period << '/' << burst_size
           << " stop=" << stop_at << " horizon=" << horizon
           << " policy=" << static_cast<int>(policy)
           << " period=" << period
           << (fast_forward ? " ff" : "")
           << (batch ? " batch" : "");
        return os.str();
    }
};

/** Tiny deterministic PRNG for the generator itself (split-mix): the
 *  draw sequence must be stable across standard libraries, so no
 *  std::uniform_int_distribution. */
struct Draw
{
    std::uint64_t s;
    explicit Draw(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    operator()()
    {
        s += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t
    below(std::uint64_t n)
    {
        return (*this)() % n;
    }
    bool
    chance(std::uint64_t num, std::uint64_t den)
    {
        return below(den) < num;
    }
};

DiffConfig
draw_config(std::uint64_t index)
{
    Draw d(0x5eed + index * 0x1000193ull);
    DiffConfig c;
    c.seed = index + 1;

    c.ring = d.chance(1, 5);
    if (c.ring) {
        c.w = static_cast<std::uint32_t>(4 + d.below(6)); // 4..9 nodes
        c.h = 1;
        c.routing = "shortest";
    } else {
        c.w = static_cast<std::uint32_t>(2 + d.below(3)); // 2..4
        c.h = static_cast<std::uint32_t>(2 + d.below(3));
        static const char *kMeshRouting[] = {
            "xy",    "xy",      "o1turn",   "romm",
            "prom",  "valiant", "shortest",
        };
        c.routing = kMeshRouting[d.below(std::size(kMeshRouting))];
    }

    const std::uint32_t nodes = c.ring ? c.w : c.w * c.h;
    const bool pow2 = (nodes & (nodes - 1)) == 0;
    std::uint32_t bits = 0;
    while ((1u << bits) < nodes)
        ++bits;
    std::vector<const char *> patterns{"uniform"};
    if (pow2) {
        patterns.push_back("bitcomp");
        patterns.push_back("shuffle");
        if (bits % 2 == 0)
            patterns.push_back("transpose");
    }
    c.pattern = patterns[d.below(patterns.size())];

    static const std::uint32_t kVcs[] = {1, 2, 4};
    static const std::uint32_t kCaps[] = {2, 4, 8};
    c.net.router.net_vcs = kVcs[d.below(3)];
    c.net.router.net_vc_capacity = kCaps[d.below(3)];
    c.net.router.cpu_vcs = kVcs[d.below(3)];
    c.net.router.cpu_vc_capacity = kCaps[1 + d.below(2)];
    c.net.router.link_bandwidth = static_cast<std::uint32_t>(1 + d.below(2));
    c.net.router.xbar_bandwidth = d.chance(1, 4) ? 2 : 0;
    static const net::VcaMode kVca[] = {
        net::VcaMode::Dynamic, net::VcaMode::StaticSet,
        net::VcaMode::Edvca, net::VcaMode::Faa};
    c.net.router.vca_mode = kVca[d.below(std::size(kVca))];
    c.net.router.adaptive_routing = d.chance(1, 4);
    c.net.bidirectional_links = d.chance(1, 4);
    c.net.link_latency = static_cast<Cycle>(1 + d.below(3));

    static const std::uint32_t kPkt[] = {1, 2, 4, 8};
    c.packet_size = kPkt[d.below(std::size(kPkt))];
    c.rate = 0.02 + 0.01 * static_cast<double>(d.below(28));
    if (d.chance(1, 4)) {
        c.burst_period = static_cast<Cycle>(50 + d.below(200));
        c.burst_size = static_cast<std::uint32_t>(1 + d.below(3));
    }

    switch (d.below(6)) {
    case 0:
    case 1:
        c.policy = Policy::CycleAccurate;
        break;
    case 2:
        c.policy = Policy::PeriodicOne;
        break;
    case 3:
        c.policy = Policy::PeriodicLoose;
        c.period = static_cast<std::uint32_t>(2 + d.below(31));
        break;
    case 4:
        c.policy = Policy::AdaptivePinned;
        break;
    default:
        c.policy = Policy::AdaptiveLoose;
        break;
    }
    c.fast_forward = d.chance(1, 4);
    c.batch = d.chance(1, 2);

    c.horizon = static_cast<Cycle>(300 + d.below(500));
    if (c.lockstep()) {
        if (d.chance(1, 2))
            c.stop_at = c.horizon / 2;
    } else {
        // Loose configurations assert conservation, which needs the
        // sources off and the network fully drained by the horizon.
        c.stop_at = static_cast<Cycle>(100 + d.below(150));
        c.horizon = c.stop_at + 3000;
    }
    return c;
}

std::unique_ptr<sim::System>
build_system(const DiffConfig &c)
{
    net::Topology topo = c.ring ? net::Topology::ring(c.w)
                                : net::Topology::mesh2d(c.w, c.h);
    auto sys = std::make_unique<sim::System>(topo, c.net, c.seed);
    const std::uint32_t nodes = topo.num_nodes();
    auto pattern = traffic::pattern_by_name(c.pattern, nodes);
    const std::vector<net::FlowSpec> flows =
        std::strcmp(c.pattern, "uniform") == 0
            ? traffic::flows_all_pairs(nodes)
            : traffic::flows_for_pattern(nodes, pattern);

    if (std::strcmp(c.routing, "xy") == 0)
        net::routing::build_xy(sys->network(), flows);
    else if (std::strcmp(c.routing, "o1turn") == 0)
        net::routing::build_o1turn(sys->network(), flows);
    else if (std::strcmp(c.routing, "romm") == 0)
        net::routing::build_romm(sys->network(), flows);
    else if (std::strcmp(c.routing, "prom") == 0)
        net::routing::build_prom(sys->network(), flows);
    else if (std::strcmp(c.routing, "valiant") == 0)
        net::routing::build_valiant(sys->network(), flows);
    else
        net::routing::build_shortest(sys->network(), flows);

    for (NodeId n = 0; n < nodes; ++n) {
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = c.packet_size;
        sc.rate = c.rate;
        sc.burst_period = c.burst_period;
        sc.burst_size = c.burst_size;
        sc.stop_at = c.stop_at;
        sys->add_frontend(n,
                          std::make_unique<traffic::SyntheticInjector>(
                              sys->tile(n), sc));
    }
    return sys;
}

std::unique_ptr<sim::SyncPolicy>
make_policy(const DiffConfig &c)
{
    std::unique_ptr<sim::SyncPolicy> p;
    switch (c.policy) {
    case Policy::CycleAccurate:
        p = std::make_unique<sim::CycleAccurateSync>();
        break;
    case Policy::PeriodicOne:
        p = std::make_unique<sim::PeriodicSync>(1);
        break;
    case Policy::PeriodicLoose:
        p = std::make_unique<sim::PeriodicSync>(c.period);
        break;
    case Policy::AdaptivePinned: {
        sim::AdaptiveSync::Options pinned;
        pinned.min_period = 1;
        pinned.max_period = 1;
        p = std::make_unique<sim::AdaptiveSync>(pinned);
        break;
    }
    case Policy::AdaptiveLoose:
        p = std::make_unique<sim::AdaptiveSync>();
        break;
    }
    if (c.fast_forward)
        p = std::make_unique<sim::FastForwardSync>(std::move(p));
    return p;
}

/** Every router's occupancy masks cover its non-empty ingress
 *  buffers (the reference full scan, run after the engine joined). */
void
expect_masks_cover_buffers(sim::System &sys)
{
    for (NodeId n = 0; n < sys.num_tiles(); ++n)
        EXPECT_TRUE(sys.network().router(n).ingress_masks_cover_buffers())
            << "router " << n;
}

/** Build + run one variant; return the stats fingerprint. */
std::string
run_variant(const DiffConfig &c, Schedule sched, unsigned threads,
            SystemStats *stats_out = nullptr)
{
    auto sys = build_system(c);
    auto policy = make_policy(c);
    EngineOptions opts;
    opts.max_cycles = c.horizon;
    opts.batch_cross_shard = c.batch;
    opts.schedule = sched;
    sys->run(*policy, opts, threads);
    expect_masks_cover_buffers(*sys);
    SystemStats s = sys->collect_stats();
    if (stats_out != nullptr)
        *stats_out = s;
    return snapshot(s);
}

/** Number of configs: CI-smoke subset by default, the full >= 200
 *  sweep under HORNET_DIFF_FULL=1 (the `long` ctest case), numeric
 *  override via HORNET_DIFF_CONFIGS for bisection. */
std::uint64_t
config_count()
{
    if (const char *n = std::getenv("HORNET_DIFF_CONFIGS"))
        return std::strtoull(n, nullptr, 10);
    if (const char *full = std::getenv("HORNET_DIFF_FULL"))
        if (*full != '\0' && *full != '0')
            return 208;
    return 48;
}

TEST(Differential, RandomConfigsAgreeAcrossSchedulersAndThreads)
{
    const std::uint64_t n = config_count();
    std::uint64_t lockstep_configs = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const DiffConfig c = draw_config(i);
        SCOPED_TRACE("config " + std::to_string(i) + ": " +
                     c.describe());

        // Sequential polling is the reference semantics.
        SystemStats ref_stats;
        const std::string ref =
            run_variant(c, Schedule::Poll, 1, &ref_stats);

        // One thread is bitwise for every policy and scheduler.
        EXPECT_EQ(run_variant(c, Schedule::EventFine, 1), ref);

        if (c.thread_bitwise()) {
            ++lockstep_configs;
            for (Schedule sched : {Schedule::Poll, Schedule::EventFine})
                for (unsigned threads : {2u, 4u})
                    EXPECT_EQ(run_variant(c, sched, threads), ref)
                        << "sched=" << static_cast<int>(sched)
                        << " threads=" << threads;
        } else if (c.drain_safe()) {
            // Loose windows are thread-timing dependent: assert
            // conservation after a guaranteed drain instead.
            ASSERT_GT(ref_stats.total.packets_injected, 0u);
            ASSERT_EQ(ref_stats.total.flits_delivered,
                      ref_stats.total.flits_injected);
            for (Schedule sched : {Schedule::Poll, Schedule::EventFine})
                for (unsigned threads : {2u, 4u}) {
                    SystemStats s;
                    run_variant(c, sched, threads, &s);
                    EXPECT_GT(s.total.packets_injected, 0u);
                    EXPECT_EQ(s.total.flits_delivered,
                              s.total.flits_injected)
                        << "sched=" << static_cast<int>(sched)
                        << " threads=" << threads;
                    EXPECT_EQ(s.total.packets_delivered,
                              s.total.packets_injected);
                }
        }
    }
    // The generator must keep exercising the bitwise multi-thread
    // path, not just loose conservation runs.
    EXPECT_GT(lockstep_configs, n / 4);
}

/** Build + run a config-schema system (the config_run path) under one
 *  scheduler / thread-count variant; return the stats fingerprint. */
std::string
run_config_variant(const std::string &text, Schedule sched,
                   unsigned threads, Cycle horizon)
{
    auto sys = traffic::build_system(Config::from_string(text));
    sim::CycleAccurateSync policy;
    EngineOptions opts;
    opts.max_cycles = horizon;
    opts.schedule = sched;
    sys->run(policy, opts, threads);
    expect_masks_cover_buffers(*sys);
    return snapshot(sys->collect_stats());
}

TEST(Differential, IndirectTopologiesAreBitwiseUnderLockstep)
{
    // ISSUE 10 acceptance: the schedulers x threads matrix must stay
    // bitwise on at least one fat-tree and one dragonfly config. Both
    // go through the [topology]/[routing] config schema, so this also
    // pins the config_run path for the new geometries end to end.
    const char *kConfigs[] = {
        "[topology]\nkind = fat_tree\nlevels = 2\narity = 2\n"
        "[routing]\nscheme = updown\n"
        "[traffic]\npattern = uniform\nrate = 0.2\npacket_size = 4\n"
        "[sim]\nseed = 7\n",
        "[topology]\nkind = dragonfly\ngroups = 4\nrouters = 2\n"
        "hosts = 2\n"
        "[routing]\nscheme = dragonfly-valiant\n"
        "[traffic]\npattern = transpose\nrate = 0.15\npacket_size = 2\n"
        "[sim]\nseed = 11\n",
        "[topology]\nkind = dragonfly\ngroups = 4\nrouters = 2\n"
        "hosts = 2\n"
        "[routing]\nscheme = dragonfly\n"
        "[traffic]\npattern = uniform\nrate = 0.1\npacket_size = 8\n"
        "[sim]\nseed = 3\n",
    };
    const Cycle horizon = 400;
    for (const char *text : kConfigs) {
        SCOPED_TRACE(text);
        const std::string ref =
            run_config_variant(text, Schedule::Poll, 1, horizon);
        for (Schedule sched : {Schedule::Poll, Schedule::EventFine})
            for (unsigned threads : {1u, 2u, 4u})
                EXPECT_EQ(run_config_variant(text, sched, threads,
                                             horizon),
                          ref)
                    << "sched=" << static_cast<int>(sched)
                    << " threads=" << threads;
    }
}

TEST(Differential, BlueprintInstantiationMatchesScratchOnFatTree)
{
    // The sweep engine's blueprint seam (shared frozen tables, empty
    // deliverable sets at switches) must be invisible on switch-only
    // topologies: a blueprint-instantiated fat-tree system and one
    // built from scratch produce identical fingerprints.
    const net::Topology topo = net::Topology::fat_tree(2, 2);
    const net::NetworkConfig nc;
    const std::uint64_t seed = 5;
    const std::vector<NodeId> hosts = topo.hosts();
    const auto flows = traffic::flows_all_pairs(hosts);
    const auto pattern = traffic::pattern_over_hosts("uniform", hosts);
    traffic::SyntheticConfig sc;
    sc.pattern = pattern;
    sc.packet_size = 4;
    sc.rate = 0.2;
    const auto attach = [&](sim::System &sys) {
        for (NodeId n : hosts)
            sys.add_frontend(
                n, std::make_unique<traffic::SyntheticInjector>(
                       sys.tile(n), sc));
    };
    const auto run_one = [](sim::System &sys) {
        sim::CycleAccurateSync policy;
        EngineOptions opts;
        opts.max_cycles = 400;
        sys.run(policy, opts, 1);
        expect_masks_cover_buffers(sys);
        return snapshot(sys.collect_stats());
    };

    sim::SystemBlueprint bp(topo, nc);
    net::routing::build_updown(bp.network(), flows);
    bp.set_frontend_factory(
        [&](sim::System &sys, std::uint64_t) { attach(sys); });
    bp.freeze();
    auto from_bp = bp.instantiate(seed);

    auto scratch = std::make_unique<sim::System>(topo, nc, seed);
    net::routing::build_updown(scratch->network(), flows);
    attach(*scratch);

    EXPECT_EQ(run_one(*from_bp), run_one(*scratch));
}

TEST(Differential, GeneratorIsStable)
{
    // The drawn configurations are part of the test contract: a
    // changed generator silently re-rolls every covered config, so
    // pin a few fields of the first draws.
    const DiffConfig a = draw_config(0);
    const DiffConfig b = draw_config(0);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_NE(draw_config(1).describe(), a.describe());
}

} // namespace
} // namespace hornet
