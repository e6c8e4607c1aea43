/**
 * @file
 * Table-driven virtual-channel allocation (paper II-A3).
 *
 * The VCA table is addressed by the four-tuple
 * <prev_node_id, flow_id, next_node_id, next_flow_id> computed during
 * route computation; each lookup yields a set of weighted candidate
 * next-hop VCs. On top of the candidate set, a VcaMode selects the
 * allocation discipline:
 *  - Dynamic: weighted-random among free candidates (the default table
 *    lists all VCs with equal weight);
 *  - StaticSet: the table itself restricts candidates (e.g. one VC per
 *    flow or per phase); allocation is weighted-random within the set;
 *  - Edvca: exclusive dynamic VCA — a packet may only enter a VC that
 *    currently holds (or is owned by) its own flow, or an empty, free
 *    VC; guarantees per-flow in-order delivery;
 *  - Faa: flow-aware allocation — among allowed candidates pick the one
 *    with the most free downstream space (ties broken randomly).
 *
 * The occupancy queries EDVCA and FAA rely on — VcBuffer::
 * exclusively_holds, logically_empty and free_slots on the candidate
 * downstream buffers — are lock-free producer-side views (the
 * allocating router *is* the buffers' producer), exact with respect to
 * every push the router has performed and to credits committed at the
 * consumer's negedge (docs/ENGINE.md, "VcBuffer memory model").
 *
 * The table is a net::OptionTable: the VCA builders add() candidate
 * records, freeze() sorts and merges them into a frozen
 * common::FlatTable in the router's arena, and only the frozen form is
 * read.
 */
#ifndef HORNET_NET_VCA_H
#define HORNET_NET_VCA_H

#include <compare>
#include <cstdint>
#include <string>

#include "common/types.h"
#include "net/option_table.h"

namespace hornet::net {

/** Allocation discipline applied on top of the table candidates. */
enum class VcaMode
{
    Dynamic,   ///< weighted-random among free candidates
    StaticSet, ///< table-restricted candidates, weighted-random within
    Edvca,     ///< exclusive dynamic VCA (per-flow in-order delivery)
    Faa,       ///< flow-aware: most free downstream space wins
};

/** Parse "dynamic" / "static" / "edvca" / "faa"; fatal() otherwise. */
VcaMode vca_mode_from_string(const std::string &s);

/** Printable name of a mode. */
const char *to_string(VcaMode mode);

/** One weighted candidate VC. */
struct VcaResult
{
    /** Candidate next-hop virtual channel. */
    VcId vc = kInvalidVc;
    /** Selection propensity among the entry's candidates. */
    double weight = 1.0;

    /** Field-wise equality (OptionTable merges candidates that are
     *  equal once their weights are). */
    bool operator==(const VcaResult &) const = default;
};

/** Key of a VCA table entry. */
struct VcaKey
{
    /** Node the packet arrived from. */
    NodeId prev_node;
    /** Flow id carried by the packet. */
    FlowId flow;
    /** Next hop chosen during route computation. */
    NodeId next_node;
    /** Flow id after this hop's renaming. */
    FlowId next_flow;

    /** Field-wise ordering, in declaration order: freeze() sorts by
     *  it, and equal keys are one entry. */
    auto operator<=>(const VcaKey &) const = default;
};

/** Hash functor for VcaKey (flat-table slot placement). */
struct VcaKeyHash
{
    /** Mix the four key fields into a table hash. */
    std::size_t
    operator()(const VcaKey &k) const
    {
        std::uint64_t h = k.flow * 0x9e3779b97f4a7c15ull;
        h ^= k.next_flow * 0xbf58476d1ce4e5b9ull + (h >> 31);
        h ^= (static_cast<std::uint64_t>(k.prev_node) * 2654435761u) ^
             (static_cast<std::uint64_t>(k.next_node) << 17);
        h ^= h >> 29;
        return static_cast<std::size_t>(h);
    }
};

/**
 * One node's VCA table: an OptionTable keyed by the four-tuple (see
 * net/option_table.h for the build/freeze/read contract). A missing
 * entry means "all next-hop VCs with equal weight" (pure dynamic VCA),
 * so tables only need populating for restricted schemes. The frozen
 * form serves the per-packet stage-A lookup (Router::try_vc_allocate).
 */
using VcaTable = OptionTable<VcaKey, VcaResult, VcaKeyHash>;

} // namespace hornet::net

#endif // HORNET_NET_VCA_H
