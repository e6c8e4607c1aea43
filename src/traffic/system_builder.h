/**
 * @file
 * Config-driven system construction: every hardware parameter the
 * paper lists as configurable (Table I) is settable from an INI-style
 * config file or string, so experiments can be described as data.
 *
 * Recognized keys (defaults in parentheses):
 *
 *   [topology]
 *   kind   = mesh | torus | ring | mesh3d | fat_tree | dragonfly (mesh)
 *   width  = <int> (8)    height = <int> (8)
 *   layers = <int> (2)    style  = x1 | x1y1 | xcube   (mesh3d only)
 *   nodes  = <int> (8)    (ring only)
 *   levels = <int> (2)    arity  = <int> (2)           (fat_tree only)
 *   groups = <int> (4)    routers = <int> (4)          (dragonfly
 *   hosts  = <int> (1)     hosts per router             only)
 *
 *   (fat_tree and dragonfly have switch-only nodes: traffic patterns,
 *   flows and frontends cover the host nodes only — see
 *   docs/TOPOLOGIES.md)
 *
 *   [network]
 *   vcs = <int> (4)                vc_capacity = <int> (4)
 *   cpu_vcs = <int> (4)            cpu_vc_capacity = <int> (8)
 *   link_bandwidth = <int> (1)     xbar_bandwidth = <int> (0 = off)
 *   link_latency = <int> (1)       bidirectional = <bool> (false)
 *   vca = dynamic | static | edvca | faa       (dynamic)
 *   adaptive = <bool> (false)
 *
 *   [routing]
 *   scheme = xy | o1turn | romm | valiant | prom | shortest | static
 *            | updown | dragonfly | dragonfly-valiant
 *            (xy; multi-phase schemes — o1turn/romm/valiant/
 *            dragonfly-valiant — get phase-split VCA sets, the
 *            "static" scheme additionally gets static-set VCA; updown
 *            requires kind = fat_tree, the dragonfly schemes kind =
 *            dragonfly)
 *   flows  = all_pairs | pattern               (pattern)
 *
 *   [traffic]
 *   kind = synthetic | trace | none            (synthetic)
 *   pattern = transpose | bitcomp | shuffle | uniform   (uniform)
 *   rate = <double> (0.1)          packet_size = <int> (8)
 *   burst_period = <int> (0)       burst_size = <int> (1)
 *   trace_file = <path>            (trace kind only)
 *
 *   [sim]
 *   seed = <int> (1)
 *   max_cycles = <int> (10000)     threads = <int> (1)
 *   sync = auto | cycle-accurate | periodic | adaptive    (auto:
 *          cycle-accurate when sync_period is 1, periodic otherwise)
 *   sync_period = <int> (1)        fast_forward = <bool> (false)
 *   schedule = auto | poll | event-fine (auto: defer to the
 *          HORNET_SCHEDULE environment variable, default poll;
 *          event-fine ticks only awake tiles, and inside them only
 *          awake components — bitwise identical to poll for
 *          lockstep/single-shard runs)
 *   stop_when_done = <bool> (false)
 *   batch_handoff = <bool> (true iff sync = adaptive)
 *   adaptive_min_period = <int> (1)
 *   adaptive_max_period = <int> (64)
 *   adaptive_high_watermark = <double> (1.0)   (cross-shard flits per
 *   adaptive_low_watermark  = <double> (0.25)   cycle; see ENGINE.md)
 *   pin = auto | none | compact | spread        (auto)
 *
 * Keys outside this list are not read by anything; Config::
 * reject_unread_keys() turns them into an error once
 * run_options_from_config() and build_system() have run (config_run
 * does). Keys for other kinds than the selected one (e.g. `nodes`
 * with kind = mesh) count as unread too.
 */
#ifndef HORNET_TRAFFIC_SYSTEM_BUILDER_H
#define HORNET_TRAFFIC_SYSTEM_BUILDER_H

#include <memory>

#include "common/config.h"
#include "sim/system.h"

namespace hornet::traffic {

/** Topology described by @p cfg ([topology] section). */
net::Topology topology_from_config(const Config &cfg);

/** Network configuration from [network]. */
net::NetworkConfig network_from_config(const Config &cfg);

/**
 * Engine run options from [sim]: thread count, horizon and the
 * synchronization backend (cycle-accurate, periodic, adaptive — with
 * the adaptive controller's bounds and watermarks), so a whole
 * speed/accuracy experiment is describable as data.
 */
sim::RunOptions run_options_from_config(const Config &cfg);

/**
 * Build the complete system: topology, routers, routing/VCA tables,
 * and traffic frontends. The returned system is ready to run().
 */
std::unique_ptr<sim::System> build_system(const Config &cfg);


} // namespace hornet::traffic

#endif // HORNET_TRAFFIC_SYSTEM_BUILDER_H
