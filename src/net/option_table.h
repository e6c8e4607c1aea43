/**
 * @file
 * Weighted option tables: the one container behind table-driven
 * routing (paper II-A2, net::RoutingTable) and virtual-channel
 * allocation (paper II-A3, net::VcaTable).
 *
 * Both tables map a key — the flow and the incoming direction, plus
 * the route just computed for VCA — to a set of weighted options. A
 * table is built, frozen once, then only read:
 *
 *  - add() appends one (key, option) record to a flat vector. Builders
 *    may add the same choice several times; nothing is merged yet.
 *  - freeze() stable-sorts the records by key and merges options that
 *    differ only in weight: the first insertion keeps its place and
 *    later ones add their weight to it, in insertion order. That is the
 *    accumulate-on-add rule the tables have always had, so option
 *    order, weights and every weighted pick's draws do not depend on
 *    when merging happens. The merged sets are compiled into a
 *    common::FlatTable — single-probe open addressing, all options
 *    packed in one slab in the owner's arena — and the records are
 *    freed. add() after freeze() panics.
 *  - Reads (lookup(), for_each(), size()) need a frozen table and
 *    panic on an unfrozen one instead of answering "absent".
 *  - adopt() copies a frozen donor's views, so per-run systems of a
 *    sim::SystemBlueprint share the prototype's tables.
 */
#ifndef HORNET_NET_OPTION_TABLE_H
#define HORNET_NET_OPTION_TABLE_H

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/flat_table.h"
#include "common/log.h"

namespace hornet::net {

/**
 * A build-then-freeze table of weighted options (see the file
 * comment). Key must be totally ordered (freeze() sorts by it) and
 * hashable by Hash; Option must have a positive `double weight` and an
 * `operator==`, and two options are the same choice when they are
 * equal once their weights are.
 */
template <typename Key, typename Option, typename Hash>
class OptionTable
{
  public:
    /** The option-set view lookups return. */
    using Options = common::FlatEntry<Option>;

    /** Record a weighted option for @p key. Weights must be positive
     *  (fatal otherwise); panics once the table is frozen. */
    void
    add(const Key &key, const Option &option)
    {
        if (frozen())
            panic(strcat("option table: add() after freeze() (",
                         describe(), ")"));
        if (!(option.weight > 0.0))
            fatal("option table: weights must be positive");
        records_.push_back(Record{key, option});
    }

    /** All options for @p key, or nullptr when absent. The view stays
     *  valid for the table's lifetime. Panics when unfrozen. */
    const Options *
    lookup(const Key &key) const
    {
        if (!frozen()) [[unlikely]]
            panic_unfrozen("lookup()");
        return flat_.lookup(key);
    }

    /** Apply @p fn(key, options) to every entry, in slot order.
     *  Panics when unfrozen. */
    template <typename Fn>
    void
    for_each(Fn fn) const
    {
        if (!frozen())
            panic_unfrozen("for_each()");
        flat_.for_each_key(fn);
    }

    /** Number of keys. Panics when unfrozen. */
    std::size_t
    size() const
    {
        if (!frozen())
            panic_unfrozen("size()");
        return flat_.size();
    }

    /**
     * Sort and merge the records and compile them into the frozen flat
     * form, carving slots and the packed option slab from @p arena (the
     * owning router's arena; null falls back to a private arena), then
     * free the records. Idempotent.
     */
    void
    freeze(common::Arena *arena = nullptr)
    {
        if (frozen())
            return;
        std::stable_sort(records_.begin(), records_.end(),
                         [](const Record &a, const Record &b) {
                             return a.key < b.key;
                         });
        // Merge in place: records_[first, n) holds the current key's
        // options so far, in first-insertion order.
        std::size_t n = 0;
        std::size_t n_keys = 0;
        for (std::size_t i = 0, first = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            if (n == 0 || !(records_[first].key == r.key)) {
                first = n;
                ++n_keys;
            }
            std::size_t j = first;
            while (j < n && !same_choice(records_[j].option, r.option))
                ++j;
            if (j < n)
                records_[j].option.weight += r.option.weight;
            else
                records_[n++] = r;
        }

        flat_.begin_build(n_keys, n, arena);
        std::vector<Option> opts;
        for (std::size_t i = 0; i < n;) {
            opts.clear();
            std::size_t j = i;
            for (; j < n && records_[j].key == records_[i].key; ++j)
                opts.push_back(records_[j].option);
            flat_.add_entry(records_[i].key, opts.data(), opts.size());
            i = j;
        }
        std::vector<Record>().swap(records_);
    }

    /**
     * Read @p donor's frozen table instead of building one: the views
     * are copied and point into the donor's storage, so the donor (or
     * the blueprint owning it) must outlive this table. Panics unless
     * this table is empty and unfrozen and @p donor is frozen. After
     * it this table is frozen, exactly as after freeze().
     */
    void
    adopt(const OptionTable &donor)
    {
        if (frozen() || !records_.empty())
            panic(strcat("option table: adopt() on a non-empty table (",
                         describe(), ")"));
        if (!donor.frozen())
            panic(strcat("option table: adopt() of an unfrozen donor (",
                         donor.describe(), ")"));
        flat_ = donor.flat_;
    }

    /** True once freeze() (or adopt()) has run. */
    bool frozen() const { return flat_.built(); }

    /** Heap bytes the build records hold until freeze() frees them. */
    std::size_t
    record_bytes() const
    {
        return records_.capacity() * sizeof(Record);
    }

    /** One-line state/size/probe diagnostics for panic messages. */
    std::string
    describe() const
    {
        if (!frozen())
            return strcat("unfrozen: ", records_.size(), " records");
        return strcat("frozen flat table: ", flat_.size(),
                      " entries, capacity ", flat_.capacity(),
                      ", max probe ", flat_.max_probe());
    }

  protected:
    /** The panic behind every read of an unfrozen table. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    panic_unfrozen(const char *read) const
    {
        panic(strcat("option table: ", read, " before freeze() (",
                     describe(), ")"));
    }

  private:
    /** One add() call, kept until freeze(). */
    struct Record
    {
        Key key;
        Option option;
    };

    /** True when @p a and @p b differ at most in weight. */
    static bool
    same_choice(Option a, const Option &b)
    {
        a.weight = b.weight;
        return a == b;
    }

    std::vector<Record> records_;
    common::FlatTable<Key, Option, Hash> flat_;
};

} // namespace hornet::net

#endif // HORNET_NET_OPTION_TABLE_H
