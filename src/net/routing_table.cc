#include "net/routing_table.h"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "common/log.h"

namespace hornet::net {

namespace {

/** Content hash of the option list @p o[0, @p n). */
std::size_t
hash_options(const RouteResult *o, std::size_t n)
{
    std::uint64_t h = n;
    for (std::size_t i = 0; i < n; ++i) {
        h = (h ^ o[i].next_node) * 0x9e3779b97f4a7c15ull;
        h = (h ^ o[i].next_flow) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ std::bit_cast<std::uint64_t>(o[i].weight)) *
            0x94d049bb133111ebull;
    }
    return static_cast<std::size_t>(h ^ (h >> 31));
}

} // namespace

void
DestinationStore::add(std::uint32_t in, NodeId dst, const RouteResult *opts,
                      std::size_t n)
{
    if (n == 0)
        fatal("destination entry: no options");
    for (std::size_t i = 0; i < n; ++i)
        if (!(opts[i].weight > 0.0))
            fatal("option table: weights must be positive");
    if (build_ == nullptr)
        build_ = std::make_unique<Build>();
    build_->records.push_back(
        Record{dst, static_cast<std::uint16_t>(in), intern(opts, n)});
}

std::uint16_t
DestinationStore::intern(const RouteResult *opts, std::size_t n)
{
    Build &b = *build_;
    // List id's options are b.options[begin(id), b.ends[id]).
    const auto begin = [&b](std::size_t id) {
        return id == 0 ? 0 : b.ends[id - 1];
    };
    // The empty slot where probing for hash @p h ends.
    const auto free_slot = [&b](std::size_t h) {
        std::size_t s = h & (b.slots.size() - 1);
        while (b.slots[s] != 0)
            s = (s + 1) & (b.slots.size() - 1);
        return s;
    };
    if (2 * (b.ends.size() + 1) > b.slots.size()) {
        b.slots.assign(std::max<std::size_t>(16, 2 * b.slots.size()), 0);
        for (std::size_t id = 0; id < b.ends.size(); ++id)
            b.slots[free_slot(hash_options(b.options.data() + begin(id),
                                           b.ends[id] - begin(id)))] =
                static_cast<std::uint16_t>(id + 1);
    }
    const std::size_t mask = b.slots.size() - 1;
    std::size_t s = hash_options(opts, n) & mask;
    for (; b.slots[s] != 0; s = (s + 1) & mask) {
        const std::size_t id = b.slots[s] - 1u;
        if (b.ends[id] - begin(id) == n &&
            std::equal(opts, opts + n, b.options.data() + begin(id)))
            return static_cast<std::uint16_t>(id);
    }
    // Row cells hold list id + 1 in 16 bits.
    if (b.ends.size() == 0xffff)
        fatal(strcat("destination store: more than ", b.ends.size(),
                     " distinct option lists at one router"));
    b.options.insert(b.options.end(), opts, opts + n);
    b.ends.push_back(static_cast<std::uint32_t>(b.options.size()));
    b.slots[s] = static_cast<std::uint16_t>(b.ends.size());
    return static_cast<std::uint16_t>(b.ends.size() - 1);
}

void
DestinationStore::freeze(std::uint32_t inputs, NodeId node,
                         common::Arena *arena)
{
    inputs_ = inputs;
    if (build_ == nullptr)
        return; // no destination entries
    std::vector<Record> &records = build_->records;
    std::sort(records.begin(), records.end(),
              [](const Record &a, const Record &b) {
                  return a.dst != b.dst ? a.dst < b.dst : a.in < b.in;
              });
    dst_span_ = records.back().dst + 1;

    // Intern every destination's row; row 0 is the empty row.
    std::vector<std::pair<NodeId, std::uint32_t>> row_of;
    std::map<std::vector<std::uint16_t>, std::uint32_t> rows;
    std::vector<std::uint16_t> row(inputs);
    for (std::size_t i = 0; i < records.size();) {
        const NodeId dst = records[i].dst;
        std::fill(row.begin(), row.end(), 0);
        for (; i < records.size() && records[i].dst == dst; ++i) {
            std::uint16_t &cell = row[records[i].in];
            if (cell != 0)
                panic(strcat("routing table at node ", node,
                             ": destination ", dst, " added twice for ",
                             "input ", records[i].in));
            cell = static_cast<std::uint16_t>(records[i].list + 1);
        }
        row_of.emplace_back(
            dst, rows.try_emplace(row, rows.size() + 1).first->second);
    }
    num_rows_ = static_cast<std::uint32_t>(rows.size());
    num_lists_ = static_cast<std::uint32_t>(build_->ends.size());
    entries_ = static_cast<std::uint32_t>(records.size());
    if (num_rows_ > 0xffff)
        fatal(strcat("routing table at node ", node, ": more than 65535 ",
                     "distinct destination rows"));

    const std::vector<RouteResult> &options = build_->options;
    if (arena == nullptr) {
        own_arena_ = std::make_shared<common::Arena>(
            dst_span_ * 2 + (num_rows_ + 1) * inputs * 2 +
            num_lists_ * sizeof(Options) +
            options.size() * sizeof(RouteResult) + 256);
        arena = own_arena_.get();
    }
    if (num_rows_ < 256) {
        std::uint8_t *index = arena->make_array<std::uint8_t>(dst_span_);
        for (const auto &[dst, r] : row_of)
            index[dst] = static_cast<std::uint8_t>(r);
        index8_ = index;
    } else {
        std::uint16_t *index = arena->make_array<std::uint16_t>(dst_span_);
        for (const auto &[dst, r] : row_of)
            index[dst] = static_cast<std::uint16_t>(r);
        index16_ = index;
    }
    std::uint16_t *cells =
        arena->make_array<std::uint16_t>((num_rows_ + 1) * inputs);
    for (const auto &[r, id] : rows)
        std::copy(r.begin(), r.end(), cells + id * inputs);
    rows_ = cells;
    Options *lists = arena->make_array<Options>(num_lists_);
    RouteResult *values = arena->make_array<RouteResult>(options.size());
    std::copy(options.begin(), options.end(), values);
    for (std::uint32_t id = 0, begin = 0; id < num_lists_; ++id) {
        const std::uint32_t n = build_->ends[id] - begin;
        lists[id] = Options{values + begin, n,
                            common::flat_total_weight(values + begin, n)};
        begin = build_->ends[id];
    }
    lists_ = lists;
    build_.reset();
}

void
DestinationStore::adopt(const DestinationStore &donor)
{
    index8_ = donor.index8_;
    index16_ = donor.index16_;
    rows_ = donor.rows_;
    lists_ = donor.lists_;
    dst_span_ = donor.dst_span_;
    inputs_ = donor.inputs_;
    entries_ = donor.entries_;
    num_rows_ = donor.num_rows_;
    num_lists_ = donor.num_lists_;
    own_arena_ = donor.own_arena_;
}

std::size_t
DestinationStore::record_bytes() const
{
    if (build_ == nullptr)
        return 0;
    return sizeof(Build) + build_->records.capacity() * sizeof(Record) +
           build_->options.capacity() * sizeof(RouteResult) +
           build_->ends.capacity() * sizeof(std::uint32_t) +
           build_->slots.capacity() * sizeof(std::uint16_t);
}

std::string
DestinationStore::describe() const
{
    if (build_ != nullptr)
        return strcat(build_->records.size(), " destination records");
    return strcat(entries_, " destination entries (", dst_span_,
                  " destinations, ", num_rows_, " rows, ", num_lists_,
                  " option lists)");
}

RoutingTable::RoutingTable(NodeId node, std::vector<NodeId> neighbors)
    : node_(node), inputs_(std::move(neighbors))
{
    inputs_.push_back(node);
}

void
RoutingTable::add_destination(NodeId prev, NodeId dst,
                              const RouteResult *opts, std::size_t n)
{
    if (frozen())
        panic(strcat("routing table at node ", node_,
                     ": add_destination() after freeze() (", describe(),
                     ")"));
    const std::uint32_t in = input_of(prev);
    if (in == inputs_.size())
        panic(strcat("routing table at node ", node_, ": ", prev,
                     " is neither a neighbour nor the node itself"));
    for (std::size_t i = 0; i < n; ++i)
        if (opts[i].next_flow != kKeepFlow)
            panic(strcat("routing table at node ", node_,
                         ": destination entries keep the flow"));
    dsts_.add(in, dst, opts, n);
}

void
RoutingTable::freeze(common::Arena *arena)
{
    if (frozen())
        return;
    OptionTable::freeze(arena);
    dsts_.freeze(static_cast<std::uint32_t>(inputs_.size()), node_, arena);
    flow_keys_ = static_cast<std::uint32_t>(OptionTable::size());
}

void
RoutingTable::adopt(const RoutingTable &donor)
{
    if (donor.inputs_ != inputs_)
        panic(strcat("routing table at node ", node_,
                     ": adopt() of a table with other inputs (node ",
                     donor.node_, ")"));
    if (dsts_.size() != 0)
        panic(strcat("option table: adopt() on a non-empty table (",
                     describe(), ")"));
    OptionTable::adopt(donor);
    dsts_.adopt(donor.dsts_);
    flow_keys_ = donor.flow_keys_;
}

std::string
RoutingTable::describe() const
{
    return strcat(OptionTable::describe(), "; ", dsts_.describe());
}

void
RoutingTable::no_route(NodeId prev, FlowId flow, NodeId dst) const
{
    if (!frozen())
        panic_unfrozen("route()");
    panic(strcat("routing table at node ", node_, ": no route for prev=",
                 prev, " flow=", flow, " dst=", dst, " (", describe(),
                 ")"));
}

} // namespace hornet::net
