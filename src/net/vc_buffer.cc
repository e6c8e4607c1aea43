#include "net/vc_buffer.h"

#include <cstddef>
#include <new>
#include <type_traits>

#include "common/arena.h"
#include "common/log.h"

namespace hornet::net {

namespace {

/// Round @p off up to @p align (a power of two).
constexpr std::size_t
align_up(std::size_t off, std::size_t align)
{
    return (off + align - 1) & ~(align - 1);
}

} // namespace

// ----------------------------------------------------------------------
// Slab carve: [flit ring][flow table][pending pops], packed — sections
// are aligned only to their element type, never padded out to cache
// lines (ISSUE 5 measured per-slot padding as a 2x wall-time loss).
// Everything is bounded by capacity_ thanks to the credit discipline,
// so the carve is sized once and never grows.
// ----------------------------------------------------------------------

VcBuffer::VcBuffer(std::uint32_t capacity, common::Arena *arena)
    : capacity_(capacity ? capacity : 1)
{
    // Trivially destructible carves only: the slab is abandoned (arena)
    // or freed as raw bytes (owned), never destructed element-wise.
    static_assert(std::is_trivially_destructible_v<Flit>);
    static_assert(std::is_trivially_destructible_v<FlowSlot>);
    static_assert(std::is_trivially_destructible_v<FlowId>);

    const std::size_t ring_bytes =
        std::size_t{capacity_} * sizeof(Flit);
    const std::size_t flow_off = align_up(ring_bytes, alignof(FlowSlot));
    const std::size_t pend_off = align_up(
        flow_off + std::size_t{capacity_} * sizeof(FlowSlot),
        alignof(FlowId));
    const std::size_t total =
        pend_off + std::size_t{capacity_} * sizeof(FlowId);

    std::byte *base;
    if (arena != nullptr) {
        base = static_cast<std::byte *>(
            arena->allocate(total, alignof(Flit)));
    } else {
        owned_block_ = ::operator new(total);
        base = static_cast<std::byte *>(owned_block_);
    }
    ring_ = reinterpret_cast<Flit *>(base);
    flow_table_ = reinterpret_cast<FlowSlot *>(base + flow_off);
    pending_pop_flows_ = reinterpret_cast<FlowId *>(base + pend_off);
    for (std::uint32_t i = 0; i < capacity_; ++i) {
        ::new (static_cast<void *>(ring_ + i)) Flit();
        ::new (static_cast<void *>(flow_table_ + i)) FlowSlot();
        ::new (static_cast<void *>(pending_pop_flows_ + i)) FlowId();
    }
}

VcBuffer::~VcBuffer()
{
    if (owned_block_ != nullptr)
        ::operator delete(owned_block_);
}

namespace {

/// Compile-time memory orders per locality mode: relaxed on the
/// same-thread fast path, acquire/release across threads. Runtime
/// memory_order values must never reach the atomics — GCC lowers a
/// variable order to the strongest one, turning release stores into
/// serializing xchg instructions.
template <bool kLocal>
inline constexpr std::memory_order kAcquire =
    kLocal ? std::memory_order_relaxed : std::memory_order_acquire;

template <bool kLocal>
inline constexpr std::memory_order kRelease =
    kLocal ? std::memory_order_relaxed : std::memory_order_release;

} // namespace

// ----------------------------------------------------------------------
// Flow-occupancy table (inline, fixed capacity, lock-free).
//
// Invariants (docs/ENGINE.md, "VcBuffer memory model"):
//  - only the producer writes FlowSlot::flow or increments ::count;
//  - only the consumer decrements ::count (committed pops);
//  - a slot with count == 0 is free; its flow id is stale garbage;
//  - the sum of counts equals the logical occupancy, which the credit
//    discipline bounds by capacity_, so among capacity_ slots the
//    producer always finds either its flow or a free slot.
// ----------------------------------------------------------------------

namespace {

/// Add one flit of an already-claimed slot's flow. The consumer may
/// race the count (never below what it committed), so cross-thread
/// increments are RMW; if it drains the slot to zero just before
/// this, the fetch_add revives it with the flow id intact — exactly
/// one logical flit, which is correct. @p c is the count the caller
/// observed (used only on the single-thread path).
template <bool kLocal>
inline void
charge(std::atomic<std::uint32_t> &count, std::uint32_t c)
{
    if constexpr (kLocal)
        count.store(c + 1, std::memory_order_relaxed);
    else
        count.fetch_add(1, std::memory_order_acq_rel);
}

/// Remove one committed flit. The producer may concurrently increment
/// the same slot, so cross-thread decrements are RMW; the slot cannot
/// vanish — only the consumer decrements, and the count covers at
/// least the flits it committed-popped but has not discharged yet.
template <bool kLocal>
inline void
discharge(std::atomic<std::uint32_t> &count, std::uint32_t c)
{
    if constexpr (kLocal)
        count.store(c - 1, std::memory_order_relaxed);
    else
        count.fetch_sub(1, std::memory_order_acq_rel);
}

} // namespace

template <bool kLocal>
void
VcBuffer::flow_add(FlowId flow)
{
    // Hint first: wormhole traffic usually parks one flow per VC, so
    // the slot touched by the previous charge almost always matches
    // and the whole charge is O(1). A live slot matching the flow is
    // necessarily *the* slot (at most one live slot per flow), so
    // acting on the hint is exactly what the scan would do.
    {
        FlowSlot &h = flow_table_[add_hint_];
        const std::uint32_t c = h.count.load(kAcquire<kLocal>);
        if (c != 0 && h.flow.load(std::memory_order_relaxed) == flow) {
            charge<kLocal>(h.count, c);
            return;
        }
    }

    std::size_t free_idx = capacity_;
    for (std::size_t i = 0; i < capacity_; ++i) {
        FlowSlot &s = flow_table_[i];
        const std::uint32_t c = s.count.load(kAcquire<kLocal>);
        if (c == 0) {
            if (free_idx == capacity_)
                free_idx = i;
        } else if (s.flow.load(std::memory_order_relaxed) == flow) {
            charge<kLocal>(s.count, c);
            add_hint_ = i;
            return;
        }
    }
    // Not present: claim a free slot. Only the producer claims slots,
    // so the free slot cannot be contended; the release on count
    // pairs with readers' acquire, making the flow-id store visible
    // before the claim is.
    if (free_idx == capacity_)
        panic("VcBuffer flow table full: push without credit");
    flow_table_[free_idx].flow.store(flow, std::memory_order_relaxed);
    flow_table_[free_idx].count.store(1, kRelease<kLocal>);
    add_hint_ = free_idx;
}

template <bool kLocal>
void
VcBuffer::flow_remove(FlowId flow)
{
    // Hint first (see flow_add); the consumer keeps its own hint.
    {
        FlowSlot &h = flow_table_[remove_hint_];
        const std::uint32_t c = h.count.load(kAcquire<kLocal>);
        if (c != 0 && h.flow.load(std::memory_order_relaxed) == flow) {
            discharge<kLocal>(h.count, c);
            return;
        }
    }

    for (std::size_t i = 0; i < capacity_; ++i) {
        FlowSlot &s = flow_table_[i];
        const std::uint32_t c = s.count.load(kAcquire<kLocal>);
        if (c != 0 && s.flow.load(std::memory_order_relaxed) == flow) {
            discharge<kLocal>(s.count, c);
            remove_hint_ = i;
            return;
        }
    }
    panic("VcBuffer flow accounting underflow");
}

// ----------------------------------------------------------------------
// Ring protocol.
// ----------------------------------------------------------------------

template <bool kLocal>
void
VcBuffer::push_impl(const Flit &f)
{
    // Flow occupancy is accounted at push time even in batched mode,
    // so the producer-side EDVCA/credit views never depend on when the
    // engine flushes. The overflow checks come first: a rejected push
    // must leave every view untouched.
    if (batched_) {
        if (staged_size_ + (pushed_.load(std::memory_order_relaxed) -
                            popped_actual_.load(kAcquire<kLocal>)) >=
            capacity_)
            panic("VcBuffer overflow: staged push without credit");
        flow_add<kLocal>(f.flow);
        staged_[staged_size_++] = f;
        if (f.arrival_cycle < staged_min_arrival_)
            staged_min_arrival_ = f.arrival_cycle;
        staged_count_.store(staged_size_, kRelease<kLocal>);
        // No wake yet: a staged flit is invisible to the consumer
        // until flush_staged() publishes it.
        return;
    }
    // Only the producer writes pushed_, so the relaxed self-read is
    // exact; the acquire on popped_actual_ pairs with the consumer's
    // release in pop(), guaranteeing the consumer is done reading the
    // slot we are about to overwrite.
    const std::uint64_t seq = pushed_.load(std::memory_order_relaxed);
    // The credit discipline (free_slots() checked by the caller
    // before every push) bounds physical occupancy by capacity_,
    // so the target slot is free.
    if (seq - popped_actual_.load(kAcquire<kLocal>) >= capacity_)
        panic("VcBuffer overflow: producer pushed without credit");
    ring_[seq % capacity_] = f;
    flow_add<kLocal>(f.flow);
    // Release-publish: the consumer's acquire of pushed_ makes the
    // slot write (and the flow-table charge) visible with it.
    pushed_.store(seq + 1, kRelease<kLocal>);
    // A local buffer's consumer runs on this thread, so it is woken
    // through the plain-store path (Wakeable::notify_local).
    if (wake_ != nullptr) {
        if constexpr (kLocal)
            wake_->notify_local(f.arrival_cycle);
        else
            wake_->notify_activity(f.arrival_cycle);
    }
}

void
VcBuffer::push(const Flit &f)
{
    local_ ? push_impl<true>(f) : push_impl<false>(f);
}

void
VcBuffer::set_batched(bool on)
{
    if (batched_ && !on)
        flush_staged();
    // The window array is lazily allocated on the first enable so the
    // vast majority of buffers — same-shard ones never batch — don't
    // carry it. This is a cold path (called at run setup/teardown by
    // the engine, never per cycle), so a heap allocation is fine.
    if (on && staged_ == nullptr)
        staged_ = std::make_unique<Flit[]>(capacity_);
    batched_ = on;
}

template <bool kLocal>
std::uint32_t
VcBuffer::flush_impl()
{
    std::uint64_t seq = pushed_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < staged_size_; ++i) {
        if (seq - popped_actual_.load(kAcquire<kLocal>) >= capacity_)
            panic("VcBuffer overflow: batched flush exceeds capacity");
        ring_[seq % capacity_] = staged_[i];
        ++seq;
    }
    const std::uint32_t n = staged_size_;
    staged_size_ = 0;
    // Publish to the ring *before* zeroing the staged count: a
    // concurrent credit reader may double-count flits during the
    // overlap (conservative), but can never miss them (a credit
    // overestimate could overflow the buffer).
    pushed_.store(seq, kRelease<kLocal>);
    staged_count_.store(0, kRelease<kLocal>);
    return n;
}

std::uint32_t
VcBuffer::flush_staged()
{
    if (staged_size_ == 0)
        return 0;
    const std::uint32_t n = local_ ? flush_impl<true>() : flush_impl<false>();
    const Cycle earliest = staged_min_arrival_;
    staged_min_arrival_ = kNoEvent;
    if (wake_ != nullptr)
        wake_->notify_activity(earliest);
    return n;
}

template <bool kLocal>
Flit
VcBuffer::pop_impl()
{
    const std::uint64_t head =
        popped_actual_.load(std::memory_order_relaxed);
    if (head == pushed_.load(kAcquire<kLocal>))
        panic("VcBuffer underflow: pop from empty buffer");
    Flit f = ring_[head % capacity_];
    // The pending-pop carve has exactly capacity_ slots: enough for
    // any consumer that lets the producer's credit view govern pushes
    // (pending pops <= pushed - committed <= capacity). Overflow means
    // the credit discipline was violated upstream.
    if (pending_pop_count_ >= capacity_)
        panic("VcBuffer pending-pop overflow: pops outran credit");
    pending_pop_flows_[pending_pop_count_++] = f.flow;
    // Release-free the slot: the producer's acquire of popped_actual_
    // guarantees our read of the slot completed before it rewrites it.
    popped_actual_.store(head + 1, kRelease<kLocal>);
    return f;
}

Flit
VcBuffer::pop()
{
    return local_ ? pop_impl<true>() : pop_impl<false>();
}

template <bool kLocal>
void
VcBuffer::commit_impl()
{
    for (std::uint32_t i = 0; i < pending_pop_count_; ++i)
        flow_remove<kLocal>(pending_pop_flows_[i]);
    pending_pop_count_ = 0;
    // Credit release, after the flow discharges: a producer that
    // acquires the new committed count also sees the matching flow
    // table state (EDVCA view consistent with the credit view).
    popped_committed_.store(popped_actual_.load(std::memory_order_relaxed),
                            kRelease<kLocal>);
}

void
VcBuffer::commit_negedge()
{
    if (pending_pop_count_ == 0)
        return;
    local_ ? commit_impl<true>() : commit_impl<false>();
}

bool
VcBuffer::exclusively_holds(FlowId flow) const
{
    for (std::uint32_t i = 0; i < capacity_; ++i) {
        const FlowSlot &s = flow_table_[i];
        if (s.count.load(std::memory_order_acquire) != 0 &&
            s.flow.load(std::memory_order_relaxed) != flow)
            return false;
    }
    return true;
}

std::size_t
VcBuffer::distinct_flows() const
{
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < capacity_; ++i)
        if (flow_table_[i].count.load(std::memory_order_acquire) != 0)
            ++n;
    return n;
}

} // namespace hornet::net
