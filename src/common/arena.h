/**
 * @file
 * Bump/slab arena allocator for the simulator's construction-time
 * object graph (ROADMAP: "Memory layout for giant meshes").
 *
 * A 64x64 mesh builds hundreds of thousands of small objects — tiles,
 * routers, VC buffers and their rings — and the default allocator
 * scatters them across the heap with per-allocation headers and
 * alignment slack. The arena instead carves objects back-to-back out
 * of large cache-line-aligned chunks: one arena per placement group
 * (== engine shard when thread and group counts match), so a shard's
 * whole working set is contiguous and lands on the NUMA node of the
 * thread that constructed it (first touch).
 *
 * Contract:
 *  - NOT thread-safe. One arena is filled by exactly one construction
 *    thread; afterwards the *objects* are used under their own rules
 *    (the arena itself is only read for statistics).
 *  - Objects never outlive the arena. allocate()/make() hand out raw
 *    pointers that stay valid until reset() or destruction; there is
 *    no per-object free (bump allocation).
 *  - make() registers the destructor of non-trivially-destructible
 *    objects and runs the registered list in reverse construction
 *    order at reset() and destruction, so owners placed before their
 *    parts are destroyed after them.
 *  - reset() retains the chunks for reuse, which is what makes
 *    build/run/rebuild sweeps allocation-free after the first lap.
 *
 * Under AddressSanitizer every allocation is followed by a poisoned
 * red zone and reset() re-poisons the retained chunks, so buffer
 * overruns between neighbouring carves and use-after-reset are caught
 * even though the memory all comes from one big block.
 */
#ifndef HORNET_COMMON_ARENA_H
#define HORNET_COMMON_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hornet::common {

/**
 * Chunked bump allocator with cache-line-aligned chunks, destructor
 * registration, and reuse across reset() (see the file comment for
 * the ownership contract).
 */
class Arena
{
  public:
    /** Default payload size of one chunk (1 MiB). */
    static constexpr std::size_t kDefaultChunkBytes = std::size_t{1} << 20;

    /** @param chunk_bytes payload size of each slab chunk (>= 1);
     *  oversized single allocations get a dedicated chunk. */
    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);

    /** Runs the registered destructors (reverse order), then frees
     *  every chunk. */
    ~Arena();

    // Objects hold raw pointers into the chunks, so the arena must
    // never move or duplicate them.
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Carve @p bytes with alignment @p align (a power of two) from the
     * current chunk, growing by a new chunk when it does not fit. The
     * memory is uninitialized; it stays valid until reset() or
     * destruction. Zero-byte requests return a unique valid pointer.
     */
    void *allocate(std::size_t bytes, std::size_t align);

    /**
     * Construct a T in place in the arena. Non-trivially-destructible
     * objects are registered and destroyed — in reverse construction
     * order — at reset() or arena destruction; trivial ones are simply
     * abandoned.
     */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        void *p = allocate(sizeof(T), alignof(T));
        T *obj = ::new (p) T(std::forward<Args>(args)...);
        if constexpr (!std::is_trivially_destructible_v<T>)
            dtors_.push_back({obj, [](void *o) {
                                  static_cast<T *>(o)->~T();
                              }});
        return obj;
    }

    /**
     * Carve a value-initialized array of @p n objects of type T.
     * Restricted to trivially destructible element types so the arena
     * never has to track per-element lifetimes (the hot-path carves —
     * flit rings, flow tables — are exactly such types).
     */
    template <typename T>
    T *
    make_array(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "make_array is for trivially destructible types");
        T *p = static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
        for (std::size_t i = 0; i < n; ++i)
            ::new (static_cast<void *>(p + i)) T();
        return p;
    }

    /**
     * Destroy every registered object (reverse construction order) and
     * rewind the allocator, *retaining* the chunks: subsequent
     * allocations reuse them before any new chunk is requested. Under
     * ASan the retained memory is re-poisoned, so stale pointers into
     * the previous generation fault.
     */
    void reset();

    /** Bytes handed out since the last reset, including alignment
     *  padding. ASan red zones are counted apart (bytes_redzone()); the
     *  padding matches a plain build's only up to the first chunk
     *  switch (see kRedzoneBytes in arena.cc). */
    std::size_t bytes_used() const { return used_; }

    /** Bytes of ASan red zones carved since the last reset (0 in
     *  builds without ASan). */
    std::size_t bytes_redzone() const { return redzone_; }

    /** Total payload bytes of all chunks ever allocated. */
    std::size_t bytes_reserved() const { return reserved_; }

    /** Number of chunks backing the arena (tests). */
    std::size_t num_chunks() const { return chunks_.size(); }

  private:
    /** One slab: a cache-line-aligned payload of @p size bytes. */
    struct Chunk
    {
        std::byte *base = nullptr;
        std::size_t size = 0;
    };

    /** A registered destructor for one make()-constructed object. */
    struct Dtor
    {
        void *obj;
        void (*fn)(void *);
    };

    /** Make chunk @p idx the active one and rewind its cursor. */
    void activate_chunk(std::size_t idx);

    /** Append (and activate) a fresh chunk of >= @p min_payload. */
    void grow(std::size_t min_payload);

    std::size_t chunk_bytes_;
    std::vector<Chunk> chunks_;
    std::size_t active_ = 0;  ///< chunk currently bumped (when any)
    std::uintptr_t cur_ = 0;  ///< bump cursor into the active chunk
    std::uintptr_t end_ = 0;  ///< end of the active chunk's payload
    std::size_t used_ = 0;
    std::size_t redzone_ = 0;
    std::size_t reserved_ = 0;
    std::vector<Dtor> dtors_;
};

} // namespace hornet::common

#endif // HORNET_COMMON_ARENA_H
