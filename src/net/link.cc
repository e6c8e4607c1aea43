#include "net/link.h"

#include <algorithm>

#include "common/log.h"

namespace hornet::net {

std::uint32_t
link_pool(std::uint32_t link_bandwidth)
{
    if (link_bandwidth == 0)
        fatal("bidirectional link needs nonzero bandwidth");
    return 2 * link_bandwidth;
}

std::uint32_t
link_split(std::uint32_t d_low, std::uint32_t d_high, std::uint32_t pool)
{
    if (d_low == 0 && d_high == 0) {
        // Idle link: split evenly so a newly arriving packet is not
        // starved for a cycle.
        return pool / 2;
    }
    if (d_high == 0)
        return pool;
    if (d_low == 0)
        return 0;
    // Proportional split, at least one unit to each loaded side.
    double share = static_cast<double>(d_low) /
                   static_cast<double>(d_low + d_high);
    std::uint32_t bw = static_cast<std::uint32_t>(share * pool + 0.5);
    return std::clamp<std::uint32_t>(bw, pool > 1 ? 1 : 0,
                                     pool > 1 ? pool - 1 : pool);
}

} // namespace hornet::net
