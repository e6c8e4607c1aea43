#include "common/arena.h"

#include <algorithm>

#include "common/log.h"
#include "common/ring.h" // kCacheLineSize

#if defined(__SANITIZE_ADDRESS__)
#define HORNET_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HORNET_ARENA_ASAN 1
#endif
#endif

#if defined(HORNET_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
// Red zone appended after every allocation so neighbouring carves
// cannot silently run into each other. One chunk alignment long, so
// within a chunk it never changes the padding of a next carve aligned
// to at most that (every type the simulator places). Red zones fill
// chunks sooner, though: after a chunk switch that a build without
// ASan makes at another point, later carves may pad differently (by
// less than their alignment each), so bytes_used() is close to, not
// equal to, the plain build's.
static constexpr std::size_t kRedzoneBytes = 64;
#define HORNET_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define HORNET_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
static constexpr std::size_t kRedzoneBytes = 0;
#define HORNET_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define HORNET_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace hornet::common {

namespace {

constexpr std::size_t kChunkAlign = 64; // >= kCacheLineSize
static_assert(kRedzoneBytes % kChunkAlign == 0,
              "a red zone must not shift the next carve's alignment");

constexpr bool
is_pow2(std::size_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

Arena::Arena(std::size_t chunk_bytes)
    : chunk_bytes_(chunk_bytes ? chunk_bytes : 1)
{
    static_assert(kChunkAlign >= kCacheLineSize,
                  "chunks must be cache-line aligned");
}

Arena::~Arena()
{
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it)
        it->fn(it->obj);
    for (const Chunk &c : chunks_) {
        HORNET_ARENA_UNPOISON(c.base, c.size);
        ::operator delete(c.base, std::align_val_t{kChunkAlign});
    }
}

void
Arena::activate_chunk(std::size_t idx)
{
    active_ = idx;
    cur_ = reinterpret_cast<std::uintptr_t>(chunks_[idx].base);
    end_ = cur_ + chunks_[idx].size;
}

void
Arena::grow(std::size_t min_payload)
{
    // Reuse chunks retained by reset() before reserving new memory.
    // Chunks after the active one are guaranteed unused this
    // generation (the cursor only ever moves forward through the
    // list), so scanning forward is enough.
    const std::size_t from = chunks_.empty() ? 0 : active_ + 1;
    for (std::size_t i = from; i < chunks_.size(); ++i) {
        if (chunks_[i].size >= min_payload) {
            activate_chunk(i);
            return;
        }
    }
    const std::size_t size = std::max(chunk_bytes_, min_payload);
    auto *base = static_cast<std::byte *>(
        ::operator new(size, std::align_val_t{kChunkAlign}));
    HORNET_ARENA_POISON(base, size);
    chunks_.push_back({base, size});
    reserved_ += size;
    activate_chunk(chunks_.size() - 1);
}

void *
Arena::allocate(std::size_t bytes, std::size_t align)
{
    if (!is_pow2(align))
        fatal("Arena::allocate: alignment must be a power of two");
    if (bytes == 0)
        bytes = 1;
    std::uintptr_t aligned = (cur_ + (align - 1)) & ~(align - 1);
    if (cur_ == 0 || aligned + bytes + kRedzoneBytes > end_) {
        // Worst case the fresh chunk's base needs (align - 1) bytes of
        // padding (chunk bases are only 64-byte aligned).
        grow(bytes + align - 1 + kRedzoneBytes);
        aligned = (cur_ + (align - 1)) & ~(align - 1);
    }
    void *p = reinterpret_cast<void *>(aligned);
    HORNET_ARENA_UNPOISON(p, bytes);
    used_ += (aligned - cur_) + bytes;
    redzone_ += kRedzoneBytes;
    cur_ = aligned + bytes + kRedzoneBytes;
    return p;
}

void
Arena::reset()
{
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it)
        it->fn(it->obj);
    dtors_.clear();
    for (const Chunk &c : chunks_)
        HORNET_ARENA_POISON(c.base, c.size);
    used_ = 0;
    redzone_ = 0;
    cur_ = 0;
    end_ = 0;
    if (!chunks_.empty())
        activate_chunk(0);
}

} // namespace hornet::common
