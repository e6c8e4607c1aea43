/**
 * @file
 * FlatTable and OptionTable tests: a randomized differential check of
 * the record build (add, sort, merge, freeze) against a reference map
 * that accumulates on add, a differential check of the probe loop
 * over heavily clustered slots, the FlatTable build-contract panics,
 * the freeze contract of the routing/VCA tables (unfrozen reads
 * panic), and the dense flow-stats index.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/flat_table.h"
#include "common/flow_stats_table.h"
#include "common/rng.h"
#include "net/routing_table.h"
#include "net/vca.h"

namespace hornet {
namespace {

/** Weighted option type for the generic-table tests. */
struct Opt
{
    std::uint32_t tag = 0;
    double weight = 1.0;

    bool
    operator==(const Opt &o) const
    {
        return tag == o.tag && weight == o.weight;
    }
};

/** Split-mix PRNG: stable draw sequence across standard libraries. */
struct Draw
{
    std::uint64_t s;
    explicit Draw(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    operator()()
    {
        s += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t
    below(std::uint64_t n)
    {
        return (*this)() % n;
    }
};

TEST(FlatTable, RandomizedDifferentialVsUnorderedMap)
{
    // ~10k add() records over ~2k keys: most keys get several records,
    // many (key, option) pairs repeat (four next hops, two flow ids)
    // and must merge, and weights are sums whose last bits depend on
    // the order they are added in.
    Draw d(0xf1a7);
    std::vector<std::pair<net::RouteKey, net::RouteResult>> records;
    for (int i = 0; i < 10000; ++i) {
        const net::RouteKey key{static_cast<NodeId>(d.below(5)),
                                d.below(400) * 64};
        const net::RouteResult opt{
            static_cast<NodeId>(d.below(4)), key.flow + d.below(2),
            0.1 * static_cast<double>(1 + d.below(30))};
        records.push_back({key, opt});
    }
    for (std::size_t i = records.size() - 1; i > 0; --i) // shuffle
        std::swap(records[i], records[d.below(i + 1)]);

    // Reference: accumulate on add, the rule the table must reproduce.
    std::unordered_map<net::RouteKey, std::vector<net::RouteResult>,
                       net::RouteKeyHash>
        ref;
    net::RoutingTable t(0);
    for (const auto &[key, opt] : records) {
        t.add(key, opt);
        auto &opts = ref[key];
        bool merged = false;
        for (auto &o : opts) {
            if (o.next_node == opt.next_node &&
                o.next_flow == opt.next_flow) {
                o.weight += opt.weight;
                merged = true;
                break;
            }
        }
        if (!merged)
            opts.push_back(opt);
    }
    t.freeze();
    ASSERT_EQ(t.size(), ref.size());

    // Walk the keys in a fixed order so both sides consume one shared
    // random stream identically.
    const std::map<net::RouteKey, std::vector<net::RouteResult>> ordered(
        ref.begin(), ref.end());
    Rng frozen_rng(0x5eed), ref_rng(0x5eed);
    std::size_t multi = 0;
    for (const auto &[key, vals] : ordered) {
        const auto *e = t.lookup(key);
        ASSERT_NE(e, nullptr);
        ASSERT_EQ(e->size(), vals.size());
        double total = 0.0;
        for (std::size_t i = 0; i < vals.size(); ++i) {
            // Bitwise, not approximate: same order, same sums.
            EXPECT_EQ((*e)[i], vals[i]);
            total = total + vals[i].weight;
        }
        EXPECT_EQ(e->total_weight, total);
        multi += vals.size() > 1;

        const net::RoutingTable::Options ref_view{
            vals.data(), static_cast<std::uint32_t>(vals.size()), total};
        for (int draw = 0; draw < 4; ++draw)
            ASSERT_EQ(t.pick_from(*e, frozen_rng),
                      t.pick_from(ref_view, ref_rng));
    }
    EXPECT_GT(multi, ref.size() / 2); // weighted picks really ran
    EXPECT_LT(ref.size(), records.size() / 2); // keys really repeat

    // Absent keys (flows that are 1 mod 64, never generated) probe
    // through the occupied chains to nullptr.
    for (int i = 0; i < 10000; ++i) {
        const net::RouteKey absent{static_cast<NodeId>(d.below(5)),
                                   d.below(400) * 64 + 1};
        EXPECT_EQ(t.lookup(absent), nullptr);
    }
}

TEST(FlatTable, ClusteredProbeDifferential)
{
    Draw d(0xc1a5);
    // Keys are multiples of 64 from a narrow range: libstdc++ hashes
    // integers by identity, so the shared low bits force heavy slot
    // clustering under the power-of-two mask — the probe loop gets a
    // real workout, not just direct hits.
    std::unordered_map<std::uint64_t, std::vector<Opt>> ref;
    std::size_t values = 0;
    while (ref.size() < 10000) {
        const std::uint64_t key = d.below(1u << 20) * 64;
        auto &vals = ref[key];
        if (!vals.empty())
            continue; // duplicate draw: key already populated
        const std::size_t n = 1 + d.below(4);
        for (std::size_t i = 0; i < n; ++i)
            vals.push_back({static_cast<std::uint32_t>(d()),
                            0.25 * static_cast<double>(1 + d.below(8))});
        values += n;
    }

    common::FlatTable<std::uint64_t, Opt> t;
    t.begin_build(ref.size(), values);
    for (const auto &[key, vals] : ref)
        t.add_entry(key, vals.data(), vals.size());
    EXPECT_TRUE(t.built());
    EXPECT_EQ(t.size(), ref.size());
    EXPECT_GE(t.capacity(), 2 * ref.size()); // <= 50% load
    EXPECT_GE(t.max_probe(), 1u);

    for (const auto &[key, vals] : ref) {
        const auto *e = t.lookup(key);
        ASSERT_NE(e, nullptr) << "key " << key;
        ASSERT_EQ(e->size(), vals.size());
        EXPECT_FALSE(e->empty());
        EXPECT_EQ(e->front(), vals.front());
        double total = 0.0;
        for (std::size_t i = 0; i < vals.size(); ++i) {
            EXPECT_EQ((*e)[i], vals[i]);
            total = total + vals[i].weight;
        }
        // Bitwise, not approximate: the frozen total must come from
        // the same left-to-right accumulation (RNG-order contract).
        EXPECT_EQ(e->total_weight, total);
    }

    // Absent keys (odd, never generated) probe to nullptr.
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(t.lookup(d.below(1u << 20) * 64 + 1), nullptr);
}

TEST(FlatTable, EmptyTableAndEmptyBuild)
{
    common::FlatTable<std::uint64_t, Opt> t;
    EXPECT_FALSE(t.built());
    EXPECT_EQ(t.capacity(), 0u);
    EXPECT_EQ(t.lookup(0), nullptr); // never-built table: all absent

    t.begin_build(0, 0);
    EXPECT_TRUE(t.built());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_GE(t.capacity(), 8u);
    EXPECT_EQ(t.lookup(123), nullptr);
}

TEST(FlatTable, ZeroOptionEntry)
{
    common::FlatTable<std::uint64_t, Opt> t;
    t.begin_build(1, 0);
    t.add_entry(5, nullptr, 0);
    const auto *e = t.lookup(5);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->empty());
    EXPECT_EQ(e->size(), 0u);
    EXPECT_EQ(e->total_weight, 0.0);
}

TEST(FlatTable, BuildContractPanics)
{
    const Opt o{1, 1.0};

    common::FlatTable<std::uint64_t, Opt> t;
    EXPECT_THROW(t.add_entry(1, &o, 1), std::logic_error);
    t.begin_build(2, 2);
    EXPECT_THROW(t.begin_build(2, 2), std::logic_error); // rebuild
    t.add_entry(10, &o, 1);
    EXPECT_THROW(t.add_entry(10, &o, 1), std::logic_error); // dup key

    common::FlatTable<std::uint64_t, Opt> more_keys;
    more_keys.begin_build(1, 2);
    more_keys.add_entry(1, &o, 1);
    EXPECT_THROW(more_keys.add_entry(2, &o, 1), std::logic_error);

    common::FlatTable<std::uint64_t, Opt> more_values;
    more_values.begin_build(2, 1);
    more_values.add_entry(1, &o, 1);
    const Opt two[2] = {{1, 1.0}, {2, 1.0}};
    EXPECT_THROW(more_values.add_entry(2, two, 2), std::logic_error);
}

TEST(FlatTable, WeightlessValuesAndIteration)
{
    // uint32_t values (the flow-stats index shape): no weight field,
    // so totals are 0.0 and for_each_key/lookup still work.
    common::FlatTable<std::uint64_t, std::uint32_t> t;
    t.begin_build(3, 3);
    for (std::uint32_t i = 0; i < 3; ++i)
        t.add_entry(100 + i, &i, 1);

    std::size_t visited = 0;
    t.for_each_key([&](std::uint64_t key,
                       const common::FlatEntry<std::uint32_t> &e) {
        ++visited;
        ASSERT_EQ(e.size(), 1u);
        EXPECT_EQ(e.total_weight, 0.0);
        EXPECT_EQ(e.front(), key - 100);
    });
    EXPECT_EQ(visited, 3u);

    const auto *e = t.lookup(101);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->front(), 1u); // the value added under key 101
}

TEST(FlatTable, ArenaPlacement)
{
    common::Arena arena;
    std::vector<Opt> vals;
    Draw d(0xa4e);
    for (std::uint64_t k = 0; k < 64; ++k)
        vals.push_back({static_cast<std::uint32_t>(d()), 1.0});

    common::FlatTable<std::uint64_t, Opt> t;
    t.begin_build(vals.size(), vals.size(), &arena);
    for (std::uint64_t k = 0; k < 64; ++k)
        t.add_entry(k * 8, &vals[k], 1);
    EXPECT_GT(arena.bytes_used(), 0u); // slots + entries + slab carved
    for (std::uint64_t k = 0; k < 64; ++k) {
        const auto *e = t.lookup(k * 8);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->front(), vals[k]);
    }
}

TEST(FlatTable, RoutingTableFreezeContract)
{
    net::RoutingTable t(3);
    t.add({3, 7}, {1, 7, 1.0});
    t.add({3, 7}, {2, 7, 3.0});
    t.add({0, 9}, {3, 9, 1.0});

    // Unfrozen reads panic instead of answering "absent".
    EXPECT_FALSE(t.frozen());
    Rng rng(1);
    EXPECT_THROW(t.lookup({3, 7}), std::logic_error);
    EXPECT_THROW(t.lookup({5, 5}), std::logic_error);
    EXPECT_THROW(t.size(), std::logic_error);
    EXPECT_THROW(t.pick({3, 7}, rng), std::logic_error);
    EXPECT_THROW(t.for_each([](const net::RouteKey &,
                               const net::RoutingTable::Options &) {}),
                 std::logic_error);
    EXPECT_THROW(net::deliverable_flows(t, 3), std::logic_error);
    net::RoutingTable early(3);
    EXPECT_THROW(early.adopt(t), std::logic_error); // unfrozen donor

    t.freeze();
    EXPECT_TRUE(t.frozen());
    t.freeze(); // idempotent

    const auto *post = t.lookup({3, 7});
    ASSERT_NE(post, nullptr);
    ASSERT_EQ(post->size(), 2u);
    EXPECT_EQ(post->total_weight, 4.0);
    EXPECT_EQ((*post)[0].next_node, 1u);
    EXPECT_EQ((*post)[1].next_node, 2u);
    EXPECT_EQ(t.lookup({5, 5}), nullptr); // nullptr contract survives
    EXPECT_EQ(t.size(), 2u);

    // The freeze-order contract: mutation after freeze is a bug.
    EXPECT_THROW(t.add({3, 7}, {1, 7, 1.0}), std::logic_error);

    // An adopter reads the donor's storage; it cannot adopt twice.
    net::RoutingTable shared(3);
    shared.adopt(t);
    EXPECT_TRUE(shared.frozen());
    EXPECT_EQ(shared.lookup({3, 7}), post);
    EXPECT_THROW(shared.adopt(t), std::logic_error);
}

TEST(FlatTable, VcaTableFreezeContract)
{
    net::VcaTable t;
    net::VcaKey k;
    k.prev_node = 0;
    k.flow = 5;
    k.next_node = 1;
    k.next_flow = 5;
    t.add(k, {0, 1.0});
    t.add(k, {2, 2.0});

    net::VcaKey absent = k;
    absent.flow = 6;

    EXPECT_FALSE(t.frozen());
    EXPECT_THROW(t.lookup(k), std::logic_error);
    EXPECT_THROW(t.lookup(absent), std::logic_error);

    t.freeze();
    EXPECT_TRUE(t.frozen());
    t.freeze(); // idempotent

    const auto *post = t.lookup(k);
    ASSERT_NE(post, nullptr);
    ASSERT_EQ(post->size(), 2u);
    EXPECT_EQ(post->total_weight, 3.0);
    EXPECT_EQ((*post)[0].vc, 0u);
    EXPECT_EQ((*post)[1].vc, 2u);
    EXPECT_EQ(t.lookup(absent), nullptr);

    EXPECT_THROW(t.add(k, {1, 1.0}), std::logic_error);
}

TEST(FlatTable, FlowStatsTableDenseAndOverflow)
{
    common::FlowStatsTable t;

    // Unfrozen, the table degrades to the historical overflow map.
    EXPECT_FALSE(t.frozen());
    t.at(42).flits_delivered = 1;
    EXPECT_EQ(t.overflow_size(), 1u);
    t.clear();
    EXPECT_EQ(t.overflow_size(), 0u);

    t.freeze({7, 3, 3, 9}); // duplicates dedup
    EXPECT_TRUE(t.frozen());
    EXPECT_EQ(t.dense_size(), 3u);
    t.freeze({1}); // first freeze wins
    EXPECT_EQ(t.dense_size(), 3u);

    t.at(3).flits_delivered = 2;
    t.at(9).flits_delivered = 5;
    t.at(100).flits_delivered = 1; // outside the frozen set
    EXPECT_EQ(t.overflow_size(), 1u);

    // Iteration: dense flows in flow-id order, the untouched slot (7)
    // skipped — matching the map era, where an entry only existed
    // after a delivery — then overflow flows.
    std::vector<FlowId> seen;
    t.for_each([&](FlowId f, const FlowStats &) { seen.push_back(f); });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], 3u);
    EXPECT_EQ(seen[1], 9u);
    EXPECT_EQ(seen[2], 100u);

    // clear() resets the stats but keeps the frozen slot mapping.
    t.clear();
    std::size_t count = 0;
    t.for_each([&](FlowId, const FlowStats &) { ++count; });
    EXPECT_EQ(count, 0u);
    EXPECT_TRUE(t.frozen());
    EXPECT_EQ(t.dense_size(), 3u);
}

} // namespace
} // namespace hornet
