#include "traffic/system_builder.h"

#include "common/log.h"
#include "net/routing/builders.h"
#include "net/vca_builders.h"
#include "traffic/flows.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"
#include "traffic/trace.h"

namespace hornet::traffic {

net::Topology
topology_from_config(const Config &cfg)
{
    const std::string kind = cfg.get_string("topology.kind", "mesh");
    const auto width =
        static_cast<std::uint32_t>(cfg.get_int("topology.width", 8));
    const auto height =
        static_cast<std::uint32_t>(cfg.get_int("topology.height", 8));
    if (kind == "mesh")
        return net::Topology::mesh2d(width, height);
    if (kind == "torus")
        return net::Topology::torus2d(width, height);
    if (kind == "ring") {
        return net::Topology::ring(static_cast<std::uint32_t>(
            cfg.get_int("topology.nodes", 8)));
    }
    if (kind == "fat_tree") {
        return net::Topology::fat_tree(
            static_cast<std::uint32_t>(cfg.get_int("topology.levels", 2)),
            static_cast<std::uint32_t>(cfg.get_int("topology.arity", 2)));
    }
    if (kind == "dragonfly") {
        return net::Topology::dragonfly(
            static_cast<std::uint32_t>(cfg.get_int("topology.groups", 4)),
            static_cast<std::uint32_t>(cfg.get_int("topology.routers", 4)),
            static_cast<std::uint32_t>(cfg.get_int("topology.hosts", 1)));
    }
    if (kind == "mesh3d") {
        const std::string style_name =
            cfg.get_string("topology.style", "xcube");
        net::LayerStyle style;
        if (style_name == "x1")
            style = net::LayerStyle::X1;
        else if (style_name == "x1y1")
            style = net::LayerStyle::X1Y1;
        else if (style_name == "xcube")
            style = net::LayerStyle::XCube;
        else
            fatal("unknown mesh3d style: " + style_name);
        return net::Topology::mesh3d(
            width, height,
            static_cast<std::uint32_t>(cfg.get_int("topology.layers", 2)),
            style);
    }
    fatal("unknown topology kind: " + kind);
}

net::NetworkConfig
network_from_config(const Config &cfg)
{
    net::NetworkConfig nc;
    nc.router.net_vcs =
        static_cast<std::uint32_t>(cfg.get_int("network.vcs", 4));
    nc.router.net_vc_capacity = static_cast<std::uint32_t>(
        cfg.get_int("network.vc_capacity", 4));
    nc.router.cpu_vcs =
        static_cast<std::uint32_t>(cfg.get_int("network.cpu_vcs", 4));
    nc.router.cpu_vc_capacity = static_cast<std::uint32_t>(
        cfg.get_int("network.cpu_vc_capacity", 8));
    nc.router.link_bandwidth = static_cast<std::uint32_t>(
        cfg.get_int("network.link_bandwidth", 1));
    nc.router.xbar_bandwidth = static_cast<std::uint32_t>(
        cfg.get_int("network.xbar_bandwidth", 0));
    nc.router.vca_mode = net::vca_mode_from_string(
        cfg.get_string("network.vca", "dynamic"));
    nc.router.adaptive_routing = cfg.get_bool("network.adaptive", false);
    nc.link_latency =
        static_cast<Cycle>(cfg.get_int("network.link_latency", 1));
    nc.bidirectional_links =
        cfg.get_bool("network.bidirectional", false);
    return nc;
}

sim::RunOptions
run_options_from_config(const Config &cfg)
{
    sim::RunOptions ro;
    ro.max_cycles =
        static_cast<Cycle>(cfg.get_int("sim.max_cycles", 10000));
    ro.threads =
        static_cast<unsigned>(cfg.get_int("sim.threads", 1));
    const std::string sync = cfg.get_enum(
        "sim.sync", "auto",
        {"auto", "cycle-accurate", "periodic", "adaptive"});
    ro.sync = sync == "auto" ? "" : sync;
    ro.sync_period =
        static_cast<std::uint32_t>(cfg.get_int("sim.sync_period", 1));
    ro.fast_forward = cfg.get_bool("sim.fast_forward", false);
    ro.stop_when_done = cfg.get_bool("sim.stop_when_done", false);
    const std::string schedule = cfg.get_enum(
        "sim.schedule", "auto", {"auto", "poll", "event-fine"});
    ro.schedule = schedule == "auto" ? "" : schedule;
    ro.batch_handoff =
        cfg.get_bool("sim.batch_handoff", ro.sync == "adaptive");
    ro.pin = cfg.get_enum("sim.pin", "auto",
                          {"auto", "none", "compact", "spread"});
    ro.adaptive.min_period = static_cast<std::uint32_t>(
        cfg.get_int("sim.adaptive_min_period", 1));
    ro.adaptive.max_period = static_cast<std::uint32_t>(
        cfg.get_int("sim.adaptive_max_period", 64));
    ro.adaptive.high_watermark =
        cfg.get_double("sim.adaptive_high_watermark", 1.0);
    ro.adaptive.low_watermark =
        cfg.get_double("sim.adaptive_low_watermark", 0.25);
    return ro;
}

std::unique_ptr<sim::System>
build_system(const Config &cfg)
{
    net::Topology topo = topology_from_config(cfg);
    net::NetworkConfig nc = network_from_config(cfg);
    const auto seed =
        static_cast<std::uint64_t>(cfg.get_int("sim.seed", 1));
    auto sys = std::make_unique<sim::System>(topo, nc, seed);

    // ------------------------------------------------------------------
    // Traffic sources (needed first: they define the flow set).
    // ------------------------------------------------------------------
    const std::string traffic_kind =
        cfg.get_string("traffic.kind", "synthetic");
    const std::string pattern_name =
        cfg.get_string("traffic.pattern", "uniform");

    // On switch-only topologies (fat_tree, dragonfly) traffic covers
    // the host nodes only: patterns run over host indices, flows pair
    // hosts, and frontends attach to hosts. Host-complete topologies
    // keep the historical node-id forms bit-for-bit.
    const std::vector<NodeId> host_nodes = topo.hosts();

    std::vector<net::FlowSpec> flows;
    std::vector<std::vector<TraceEvent>> per_node_events;
    Pattern pattern;
    if (traffic_kind == "synthetic") {
        pattern = topo.has_switches()
                      ? pattern_over_hosts(pattern_name, host_nodes)
                      : pattern_by_name(pattern_name, topo.num_nodes());
        const std::string flow_mode =
            cfg.get_string("routing.flows",
                           pattern_name == "uniform" ? "all_pairs"
                                                     : "pattern");
        flows = flow_mode == "all_pairs"
                    ? flows_all_pairs(host_nodes)
                    : flows_for_pattern(host_nodes, pattern);
    } else if (traffic_kind == "trace") {
        if (topo.has_switches())
            fatal("trace traffic requires a host-only topology, got " +
                  topo.name());
        auto events =
            load_trace_file(cfg.require_string("traffic.trace_file"));
        flows = flows_from_trace(events);
        per_node_events =
            split_trace_by_source(events, topo.num_nodes());
    } else if (traffic_kind == "none") {
        flows = flows_all_pairs(host_nodes);
    } else {
        fatal("unknown traffic kind: " + traffic_kind);
    }

    // ------------------------------------------------------------------
    // Routing + VCA tables.
    // ------------------------------------------------------------------
    const std::string scheme = cfg.get_string("routing.scheme", "xy");
    if (scheme == "xy") {
        net::routing::build_xy(sys->network(), flows);
    } else if (scheme == "o1turn") {
        net::routing::build_o1turn(sys->network(), flows);
        net::vca::build_phase_split(sys->network());
    } else if (scheme == "romm") {
        net::routing::build_romm(sys->network(), flows);
        net::vca::build_phase_split(sys->network());
    } else if (scheme == "valiant") {
        net::routing::build_valiant(sys->network(), flows);
        net::vca::build_phase_split(sys->network());
    } else if (scheme == "prom") {
        net::routing::build_prom(sys->network(), flows);
    } else if (scheme == "shortest") {
        net::routing::build_shortest(sys->network(), flows);
    } else if (scheme == "static") {
        net::routing::build_static_greedy(sys->network(), flows);
        net::vca::build_static_set(sys->network());
    } else if (scheme == "updown") {
        net::routing::build_updown(sys->network(), flows);
    } else if (scheme == "dragonfly") {
        net::routing::build_dragonfly_minimal(sys->network(), flows);
    } else if (scheme == "dragonfly-valiant") {
        net::routing::build_dragonfly_valiant(sys->network(), flows);
        net::vca::build_phase_split(sys->network());
    } else {
        fatal("unknown routing scheme: " + scheme);
    }

    // ------------------------------------------------------------------
    // Frontends.
    // ------------------------------------------------------------------
    if (traffic_kind == "synthetic") {
        SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = static_cast<std::uint32_t>(
            cfg.get_int("traffic.packet_size", 8));
        sc.rate = cfg.get_double("traffic.rate", 0.1);
        sc.burst_period = static_cast<Cycle>(
            cfg.get_int("traffic.burst_period", 0));
        sc.burst_size = static_cast<std::uint32_t>(
            cfg.get_int("traffic.burst_size", 1));
        for (NodeId n : host_nodes) {
            sys->add_frontend(n, std::make_unique<SyntheticInjector>(
                                     sys->tile(n), sc));
        }
    } else if (traffic_kind == "trace") {
        for (NodeId n = 0; n < topo.num_nodes(); ++n) {
            if (!per_node_events[n].empty())
                sys->add_frontend(n, std::make_unique<TraceInjector>(
                                         sys->tile(n),
                                         per_node_events[n]));
        }
    }
    return sys;
}

} // namespace hornet::traffic
