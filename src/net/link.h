/**
 * @file
 * Bidirectional-link bandwidth split (paper II-A4).
 *
 * Inter-node connections may be bidirectional: a modeled hardware
 * arbiter collects information from the two ports facing each other
 * (flits ready to traverse in each direction and available destination
 * buffer space) and reassigns the per-direction bandwidth, potentially
 * every cycle, trading bandwidth in one direction for the other.
 *
 * The arbiter has no component of its own: both endpoint routers pool
 * the facing egress ports (net::Router::pool_egress), and at each
 * positive edge each endpoint computes its own direction's share with
 * link_split() from the effective demand both ports published in the
 * previous cycle. Both see the same inputs, so they agree on the
 * split, and neither writes the other's state.
 */
#ifndef HORNET_NET_LINK_H
#define HORNET_NET_LINK_H

#include <cstdint>

namespace hornet::net {

/**
 * Flits/cycle a bidirectional link pools: both directions' configured
 * @p link_bandwidth. Fatal when that is zero (nothing to split).
 */
std::uint32_t link_pool(std::uint32_t link_bandwidth);

/**
 * Next-cycle bandwidth of the direction leaving the lower-id endpoint
 * of a link pooling @p pool flits/cycle, given the effective demand of
 * that direction (@p d_low) and of the opposite one (@p d_high). The
 * opposite direction gets the rest of the pool. An idle link splits
 * evenly, a one-sided load takes the whole pool, and two loaded sides
 * share it in proportion, each keeping at least one flit/cycle.
 */
std::uint32_t link_split(std::uint32_t d_low, std::uint32_t d_high,
                         std::uint32_t pool);

} // namespace hornet::net

#endif // HORNET_NET_LINK_H
