/**
 * @file
 * Shared helpers for the engine/sync-policy test suites: the canonical
 * transpose-mesh and giant-shuffle-mesh system builders, the
 * explicit-scheduler run wrapper, and the full-fidelity statistics
 * fingerprint used by every bitwise-determinism assertion.
 */
#ifndef HORNET_TESTS_TEST_UTIL_H
#define HORNET_TESTS_TEST_UTIL_H

#include <memory>
#include <sstream>
#include <string>

#include "net/routing/builders.h"
#include "net/topology.h"
#include "sim/system.h"
#include "traffic/flows.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"

namespace hornet::testutil {

/** side x side transpose mesh with one synthetic injector per node. */
inline std::unique_ptr<sim::System>
make_mesh_system(std::uint32_t side, double rate, std::uint64_t seed,
                 Cycle burst_period = 0, Cycle stop_at = 0,
                 std::uint32_t burst_size = 2)
{
    net::Topology topo = net::Topology::mesh2d(side, side);
    net::NetworkConfig cfg;
    auto sys = std::make_unique<sim::System>(topo, cfg, seed);

    auto pattern =
        traffic::pattern_by_name("transpose", topo.num_nodes());
    auto flows = traffic::flows_for_pattern(topo.num_nodes(), pattern);
    net::routing::build_xy(sys->network(), flows);

    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = 4;
        sc.rate = rate;
        sc.burst_period = burst_period;
        sc.burst_size = burst_size;
        sc.stop_at = stop_at;
        sys->add_frontend(n,
                          std::make_unique<traffic::SyntheticInjector>(
                              sys->tile(n), sc));
    }
    return sys;
}

/** side x side shuffle mesh with one injector per node, an explicit
 *  memory layout and network configuration. Giant-mesh suites use the
 *  shuffle pattern (one flow per source) because FlowSpecs and
 *  deliverable-flow sets are per source-destination pair: all-pairs
 *  traffic would make construction quadratic in nodes. */
inline std::unique_ptr<sim::System>
make_big_mesh(std::uint32_t side, double rate, std::uint64_t seed,
              const sim::SystemLayout &layout = {},
              const net::NetworkConfig &cfg = {})
{
    net::Topology topo = net::Topology::mesh2d(side, side);
    auto sys = std::make_unique<sim::System>(topo, cfg, seed, layout);
    auto pattern =
        traffic::pattern_by_name("shuffle", topo.num_nodes());
    auto flows = traffic::flows_for_pattern(topo.num_nodes(), pattern);
    net::routing::build_xy(sys->network(), flows);
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = 4;
        sc.rate = rate;
        sys->add_frontend(n,
                          std::make_unique<traffic::SyntheticInjector>(
                              sys->tile(n), sc));
    }
    return sys;
}

/** Run @p sys under an explicit scheduler selection. */
inline Cycle
run_scheduled(sim::System &sys, sim::SyncPolicy &policy,
              sim::Schedule sched, unsigned threads, Cycle max_cycles,
              bool batch = false)
{
    sim::EngineOptions opts;
    opts.max_cycles = max_cycles;
    opts.batch_cross_shard = batch;
    opts.schedule = sched;
    return sys.run(policy, opts, threads);
}

/** Full-fidelity snapshot fingerprint: per-tile and per-flow stats.
 *  Two runs are bitwise identical iff their fingerprints compare
 *  equal (paper II-C determinism contract). */
inline std::string
snapshot(const SystemStats &s)
{
    std::ostringstream os;
    os.precision(17);
    for (const auto &t : s.per_tile) {
        os << t.flits_injected << ',' << t.flits_delivered << ','
           << t.packets_injected << ',' << t.packets_delivered << ','
           << t.buffer_reads << ',' << t.buffer_writes << ','
           << t.xbar_transits << ',' << t.va_grants << ','
           << t.sa_grants << ',' << t.packet_latency.sum() << ','
           << t.packet_latency.count() << ';';
    }
    os << '|';
    for (const auto &[flow, fs] : s.per_flow) {
        os << flow << ':' << fs.packets_delivered << ','
           << fs.flits_delivered << ',' << fs.packet_latency.sum()
           << ';';
    }
    return os.str();
}

} // namespace hornet::testutil

#endif // HORNET_TESTS_TEST_UTIL_H
