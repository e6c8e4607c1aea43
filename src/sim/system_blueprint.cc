#include "sim/system_blueprint.h"

#include "common/log.h"

namespace hornet::sim {

SystemBlueprint::SystemBlueprint(const net::Topology &topo,
                                 const net::NetworkConfig &cfg,
                                 const SystemLayout &layout)
    : topo_(topo), cfg_(cfg), layout_(layout),
      // The prototype's tiles (and their PRNGs) are never exercised,
      // so its seed is arbitrary.
      proto_(std::make_unique<System>(topo, cfg, /*seed=*/0, layout))
{}

void
SystemBlueprint::freeze()
{
    if (frozen_)
        return;
    proto_->freeze_tables();
    frozen_ = true;
}

std::unique_ptr<System>
SystemBlueprint::instantiate(std::uint64_t seed) const
{
    if (!frozen_)
        panic("SystemBlueprint::instantiate before freeze()");
    auto sys = std::make_unique<System>(topo_, cfg_, seed, layout_);
    sys->adopt_frozen_tables(*proto_);
    attach_frontends(*sys, seed);
    return sys;
}

} // namespace hornet::sim
