/**
 * @file
 * Dense per-tile flow-statistics index (ROADMAP: "Close the remaining
 * per-flit cost").
 *
 * Per-flow delivery statistics used to live in a per-tile
 * `std::unordered_map<FlowId, FlowStats>` that grew — and rehashed —
 * while the simulation ran, on the delivered-flit hot path. But the
 * set of flows a tile can deliver is known once the routing tables are
 * built: it is the flows the routing builders registered with the
 * tile's node as destination (net::Network::deliverable_flows).
 * FlowStatsTable freezes that set into a FlowId -> slot index (a
 * single-probe common::FlatTable) plus a dense FlowStats array carved
 * from the tile's placement-group arena, so the hot path is one probe
 * and an array index, with no run-time growth. Flows first seen mid-run
 * fall back to an overflow map, preserving exact behaviour: trace or
 * bridge traffic routed outside the frozen tables, and flows whose
 * routes were installed by hand (install_single_phase_path,
 * RoutingTable::add) rather than by a builder.
 *
 * A flow lives in the dense array XOR the overflow map — never both —
 * and iteration visits only flows with at least one delivered flit, so
 * the merged SystemStats::per_flow view is byte-identical to the
 * map-era one (each flow appears at most once per tile, and the
 * ordered view is produced by the std::map merge in
 * sim::System::collect_stats).
 */
#ifndef HORNET_COMMON_FLOW_STATS_TABLE_H
#define HORNET_COMMON_FLOW_STATS_TABLE_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_table.h"
#include "common/stats.h"
#include "common/types.h"

namespace hornet::common {

/** Mixing hash for FlowId slot placement (identity hashing would fold
 *  phase bits out under the power-of-two mask). */
struct FlowIdHash
{
    /** splitmix64-style mix of the flow id. */
    std::size_t
    operator()(FlowId f) const
    {
        std::uint64_t z = static_cast<std::uint64_t>(f) +
                          0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(z ^ (z >> 31));
    }
};

/**
 * Frozen-index flow-statistics container (see the file comment).
 * Unfrozen it degrades to the overflow map alone, i.e. exactly the
 * historical unordered_map behaviour (standalone routers in tests and
 * micro benches never freeze).
 */
class FlowStatsTable
{
  public:
    /**
     * Freeze the dense index over @p flows (duplicates welcome; the
     * set is sorted and deduplicated here, so slot order — and hence
     * arena layout — is deterministic). Slots and the index come from
     * @p arena (the owning tile's placement-group arena; null falls
     * back to heap storage). Idempotent per table: refreezing replaces
     * nothing (first freeze wins).
     */
    void
    freeze(std::vector<FlowId> flows, Arena *arena = nullptr)
    {
        if (frozen_)
            return;
        std::sort(flows.begin(), flows.end());
        flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
        index_.begin_build(flows.size(), flows.size(), arena);
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(flows.size()); ++i)
            index_.add_entry(flows[i], &i, 1);
        if (arena != nullptr) {
            dense_ = arena->make_array<FlowStats>(
                std::max<std::size_t>(1, flows.size()));
        } else {
            heap_dense_.assign(flows.size(), FlowStats{});
            dense_ = heap_dense_.data();
        }
        dense_flows_ = std::move(flows);
        frozen_ = true;
    }

    /** True once freeze() has run. */
    bool frozen() const { return frozen_; }

    /** Number of dense (freeze-time known) flows. */
    std::size_t dense_size() const { return dense_flows_.size(); }

    /** Number of flows first seen mid-run (overflow map). */
    std::size_t overflow_size() const { return overflow_.size(); }

    /**
     * Statistics slot of @p flow (the delivered-flit hot path): a
     * single probe into the frozen index and an array access, or the
     * overflow map for flows outside the frozen set.
     */
    FlowStats &
    at(FlowId flow)
    {
        if (const auto *e = index_.lookup(flow))
            return dense_[e->front()];
        return overflow_[flow];
    }

    /**
     * Apply @p fn(flow, stats) to every flow with recorded deliveries:
     * dense slots in flow-id order first (untouched slots — zero flits
     * delivered — are skipped, matching the map-era behaviour where an
     * entry only existed after a delivery), then overflow flows in map
     * order. Each flow is visited at most once.
     */
    template <typename Fn>
    void
    for_each(Fn fn) const
    {
        for (std::size_t i = 0; i < dense_flows_.size(); ++i)
            if (dense_[i].flits_delivered != 0)
                fn(dense_flows_[i], dense_[i]);
        for (const auto &[flow, fs] : overflow_)
            fn(flow, fs);
    }

    /** Reset all recorded statistics; the frozen index is retained
     *  (warmup-then-measure runs keep their slot mapping). */
    void
    clear()
    {
        for (std::size_t i = 0; i < dense_flows_.size(); ++i)
            dense_[i] = FlowStats{};
        overflow_.clear();
    }

  private:
    bool frozen_ = false;
    /** FlowId -> dense slot, frozen single-probe index. */
    FlatTable<FlowId, std::uint32_t, FlowIdHash> index_;
    /** Dense statistics slots, indexed by the frozen mapping. */
    FlowStats *dense_ = nullptr;
    /** Slot -> flow id (sorted), the iteration view of the index. */
    std::vector<FlowId> dense_flows_;
    /** Backing storage when no arena was supplied at freeze(). */
    std::vector<FlowStats> heap_dense_;
    /** Flows first seen mid-run. */
    std::unordered_map<FlowId, FlowStats, FlowIdHash> overflow_;
};

} // namespace hornet::common

#endif // HORNET_COMMON_FLOW_STATS_TABLE_H
