/**
 * @file
 * Config-driven runner: describe an entire experiment in an INI file
 * (topology, router parameters, routing scheme, traffic) and run it —
 * no recompilation, exactly the "highly configurable" workflow the
 * paper advertises.
 *
 *   $ ./examples/config_run experiment.ini [cycles] [threads] [sync]
 *
 * With no arguments a built-in demo config is used. The [sim] section
 * of the config selects the engine parameters (threads, horizon, sync
 * backend — including "adaptive"); the optional positional arguments
 * override it for quick sweeps. A key nothing reads (a typo, or a key
 * of another topology kind) fails the run, listing every such key.
 */
#include <cstdio>
#include <cstdlib>

#include "demo_config.h"
#include "traffic/system_builder.h"

using namespace hornet;

int
main(int argc, char **argv)
{
    Config cfg = argc > 1 ? Config::from_file(argv[1])
                          : Config::from_string(examples::kDemoConfig);

    sim::RunOptions opts = traffic::run_options_from_config(cfg);
    if (argc > 2)
        opts.max_cycles = std::strtoull(argv[2], nullptr, 0);
    else if (!cfg.has("sim.max_cycles"))
        opts.max_cycles = 20000;
    if (argc > 3)
        opts.threads = static_cast<unsigned>(std::atoi(argv[3]));
    if (argc > 4) {
        // A positional sync period overrides the whole [sim] sync
        // selection, including adaptive's implied batched handoff —
        // the sweep must be comparable to a sync_period-only config.
        opts.sync_period =
            static_cast<std::uint32_t>(std::atoi(argv[4]));
        opts.sync.clear();
        opts.batch_handoff = false;
    }

    auto sys = traffic::build_system(cfg);
    cfg.reject_unread_keys();
    const std::string sync_desc =
        opts.sync.empty()
            ? "period " + std::to_string(opts.sync_period)
            : opts.sync;
    std::printf("config_run: %u nodes, %llu cycles, %u thread(s), "
                "sync %s\n",
                sys->num_tiles(),
                static_cast<unsigned long long>(opts.max_cycles),
                opts.threads, sync_desc.c_str());

    sys->run(opts);

    auto stats = sys->collect_stats();
    std::printf("%s\n", stats.summary().c_str());
    std::printf("offered load served: %llu packets, p90 latency %.1f "
                "cycles\n",
                static_cast<unsigned long long>(
                    stats.total.packets_delivered),
                stats.total.packet_latency_hist.percentile(0.9));
    return 0;
}
