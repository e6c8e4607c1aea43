/**
 * @file
 * VCA-table builders (paper II-A3).
 *
 * Dynamic VCA needs no table (a missing entry means "all next-hop VCs,
 * equal weight"). These builders install the restricted schemes:
 *
 *  - build_phase_split : flows in routing phase 1 may only use the
 *    lower half of each port's VCs, phase-2 flows the upper half.
 *    This is the deadlock-avoidance VC separation used by O1TURN
 *    (XY vs YX subroutes) and Valiant/ROMM (first vs second phase).
 *  - build_static_set  : static set VCA [12] — the VC is a function of
 *    the flow id (here: base flow id modulo the VC count).
 *
 * Builders scan the already-installed routing tables, so run them
 * after the routing builder. They freeze each routing table (into its
 * router's arena, on the calling thread) before reading it, so no
 * route can be added afterwards.
 */
#ifndef HORNET_NET_VCA_BUILDERS_H
#define HORNET_NET_VCA_BUILDERS_H

#include "net/network.h"

/**
 * @namespace hornet::net::vca
 * VCA-table builders for restricted allocation schemes (paper II-A3).
 */
namespace hornet::net::vca {

/** Split each port's VCs between routing phases 1 and 2. Unphased
 *  (phase 0) flows and destination entries (which never rename) keep
 *  dynamic access to all VCs. */
void build_phase_split(Network &net);

/** Pin every flow to VC (base flow id % VC count) on every hop.
 *  Needs flow-keyed routes: fatal() on a destination entry, which
 *  names no flow to pin. */
void build_static_set(Network &net);

} // namespace hornet::net::vca

#endif // HORNET_NET_VCA_BUILDERS_H
