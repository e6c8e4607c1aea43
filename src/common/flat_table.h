/**
 * @file
 * Build-once open-addressing lookup table for the per-flit hot path.
 *
 * The routing flow entries and the VC-allocation tables
 * (net::OptionTable) are immutable at run time. FlatTable is the
 * frozen form they compile into after construction:
 *
 *  - linear-probe open addressing over a power-of-two slot array at
 *    <= 50% load, so a lookup is one hash, one masked index, and a
 *    short contiguous scan (no bucket chains, no per-node allocation);
 *  - all option lists live back-to-back in one packed value slab, and
 *    every entry is a {pointer, count, total weight} view into it;
 *  - storage is carved from the owning component's placement-group
 *    Arena (falling back to a private arena when none is supplied), so
 *    a router's table probes stay in its own cache/NUMA lines.
 *
 * The table is immutable once built: there is no insert, erase, or
 * tombstone. Mutation belongs to the owner's build phase (the records
 * an OptionTable collects until freeze()). Copies are views of the
 * same immutable storage (OptionTable::adopt); a private fallback
 * arena is shared among them.
 *
 * The precomputed per-entry total weight uses the same left-to-right
 * accumulation as Rng::pick_weighted's std::accumulate, so a weighted
 * pick over a frozen entry draws bit-for-bit what a pick over the
 * same options in a vector would.
 */
#ifndef HORNET_COMMON_FLAT_TABLE_H
#define HORNET_COMMON_FLAT_TABLE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/arena.h"
#include "common/log.h"

namespace hornet::common {

/**
 * One frozen table entry: a read-only view of a packed option list
 * with the container idioms call sites use (size/empty/front/
 * operator[]/range-for).
 */
template <typename V>
struct FlatEntry
{
    /** First option, inside the table's packed value slab. */
    const V *data = nullptr;
    /** Number of options in this entry. */
    std::uint32_t count = 0;
    /**
     * Sum of the options' `weight` fields, accumulated left to right
     * exactly like Rng::pick_weighted does (0.0 for option types
     * without a weight field). Precomputed so a weighted pick skips
     * the per-lookup accumulation without changing its arithmetic.
     */
    double total_weight = 0.0;

    /** Iterator to the first option (range-for support). */
    const V *begin() const { return data; }
    /** Iterator past the last option (range-for support). */
    const V *end() const { return data + count; }
    /** Number of options. */
    std::size_t size() const { return count; }
    /** True when the entry holds no options. */
    bool empty() const { return count == 0; }
    /** First option (entry must be non-empty). */
    const V &front() const { return data[0]; }
    /** Option @p i (unchecked). */
    const V &operator[](std::size_t i) const { return data[i]; }
};

/**
 * A FlatEntry's total weight: its options' weights summed left to
 * right. Option types without a `weight` member total 0.0.
 */
template <typename V>
inline double
flat_total_weight(const V *data, std::size_t n)
{
    double total = 0.0;
    if constexpr (requires(const V &v) { v.weight; }) {
        for (std::size_t i = 0; i < n; ++i)
            total = total + data[i].weight;
    } else {
        (void)data;
        (void)n;
    }
    return total;
}

/**
 * The frozen open-addressing table (see the file comment). K and V
 * must be trivially destructible and trivially copyable — they are
 * carved from an Arena and abandoned, never destroyed. H is the hash
 * functor used for slot placement.
 */
template <typename K, typename V, typename H = std::hash<K>>
class FlatTable
{
    static_assert(std::is_trivially_destructible_v<K> &&
                      std::is_trivially_copyable_v<K>,
                  "FlatTable keys live in an arena slab");
    static_assert(std::is_trivially_destructible_v<V> &&
                      std::is_trivially_copyable_v<V>,
                  "FlatTable values live in an arena slab");

  public:
    /** The entry view type lookups return. */
    using Entry = FlatEntry<V>;

    /** Slot marker: no entry hashed here. */
    static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

    /** True once begin_build() has run. */
    bool built() const { return slots_ != nullptr; }

    /** Number of keys in the table. */
    std::size_t size() const { return num_entries_; }

    /** Slot-array capacity (power of two; 0 before building). */
    std::size_t capacity() const { return slots_ == nullptr ? 0 : mask_ + 1; }

    /** Longest probe sequence any present key needs (1 = direct hit). */
    std::uint32_t max_probe() const { return max_probe_; }

    /**
     * Start building: size the slot array (power of two, <= 50% load),
     * the entry array for @p n_keys entries, and the value slab for
     * @p n_values options, carving all three from @p arena (a private
     * arena is created when @p arena is null). Must be followed by
     * exactly @p n_keys add_entry() calls. Rebuilding an already-built
     * table is a bug (panics).
     */
    void
    begin_build(std::size_t n_keys, std::size_t n_values,
                Arena *arena = nullptr)
    {
        if (built())
            panic("FlatTable: already built");
        if (n_keys > kEmptySlot)
            panic("FlatTable: too many keys");
        if (arena == nullptr) {
            const std::size_t need =
                sizeof(Slot) * 4 * (n_keys + 2) + sizeof(Entry) * (n_keys + 1) +
                sizeof(V) * (n_values + 1) + 256;
            own_arena_ = std::make_shared<Arena>(need);
            arena = own_arena_.get();
        }
        std::size_t cap = std::bit_ceil(std::max<std::size_t>(8, n_keys * 2));
        mask_ = cap - 1;
        slots_ = arena->template make_array<Slot>(cap);
        entries_ = arena->template make_array<Entry>(std::max<std::size_t>(
            1, n_keys));
        values_ = arena->template make_array<V>(std::max<std::size_t>(
            1, n_values));
        values_left_ = n_values;
        keys_left_ = n_keys;
    }

    /**
     * Add one entry during building: copy @p n options from @p vals
     * into the packed slab, precompute their total weight, and place
     * @p key in the slot array by linear probing. Duplicate keys and
     * overflowing the counts declared to begin_build() are bugs
     * (panics).
     */
    void
    add_entry(const K &key, const V *vals, std::size_t n)
    {
        if (slots_ == nullptr)
            panic("FlatTable: add_entry before begin_build");
        if (keys_left_ == 0 || n > values_left_)
            panic("FlatTable: add_entry overflows the declared build size");
        V *dst = values_ + values_cursor_;
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = vals[i];
        Entry &e = entries_[num_entries_];
        e.data = dst;
        e.count = static_cast<std::uint32_t>(n);
        e.total_weight = flat_total_weight(dst, n);
        values_cursor_ += n;
        values_left_ -= n;

        std::size_t i = H{}(key) & mask_;
        std::uint32_t probes = 1;
        while (slots_[i].entry != kEmptySlot) {
            if (slots_[i].key == key)
                panic("FlatTable: duplicate key");
            i = (i + 1) & mask_;
            ++probes;
        }
        slots_[i].key = key;
        slots_[i].entry = static_cast<std::uint32_t>(num_entries_);
        if (probes > max_probe_)
            max_probe_ = probes;
        ++num_entries_;
        --keys_left_;
    }

    /**
     * Single-probe lookup: the entry for @p key, or nullptr when the
     * key is absent. The returned view stays valid for the table's
     * lifetime (the table is immutable once built).
     */
    const Entry *
    lookup(const K &key) const
    {
        if (slots_ == nullptr)
            return nullptr;
        std::size_t i = H{}(key) & mask_;
        for (;;) {
            const Slot &s = slots_[i];
            if (s.entry == kEmptySlot)
                return nullptr;
            if (s.key == key)
                return &entries_[s.entry];
            i = (i + 1) & mask_;
        }
    }

    /** Apply @p fn(key, entry) to every present key, in slot order. */
    template <typename Fn>
    void
    for_each_key(Fn fn) const
    {
        if (slots_ == nullptr)
            return;
        for (std::size_t i = 0; i <= mask_; ++i)
            if (slots_[i].entry != kEmptySlot)
                fn(slots_[i].key, entries_[slots_[i].entry]);
    }

  private:
    /** One probe slot: a key and the index of its entry. */
    struct Slot
    {
        K key{};
        std::uint32_t entry = kEmptySlot;
    };

    Slot *slots_ = nullptr;    ///< power-of-two probe array
    Entry *entries_ = nullptr; ///< entry views, in insertion order
    V *values_ = nullptr;      ///< packed option slab
    std::size_t mask_ = 0;     ///< capacity - 1
    std::size_t num_entries_ = 0;
    std::size_t values_cursor_ = 0;
    std::size_t values_left_ = 0;
    std::size_t keys_left_ = 0;
    std::uint32_t max_probe_ = 0;
    /** Fallback storage when no placement arena was supplied (shared
     *  by copies of the table). */
    std::shared_ptr<Arena> own_arena_;
};

} // namespace hornet::common

#endif // HORNET_COMMON_FLAT_TABLE_H
