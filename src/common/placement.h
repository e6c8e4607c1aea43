/**
 * @file
 * Placement of the simulated mesh onto the host machine: the block
 * partition shared by engine shards and construction arenas, thread
 * pinning modes, and the NodePlacement map that tells `net::Network`
 * which arena each node's objects go into.
 *
 * The scheme is first-touch NUMA awareness: each placement group's
 * objects are constructed (and therefore first written) by a dedicated
 * thread, so the pages backing that group's arena land on the NUMA
 * node of the core that thread ran on. When the engine later runs with
 * the same partition and pinned threads, shard i's working set stays
 * local to shard i's core.
 */
#ifndef HORNET_COMMON_PLACEMENT_H
#define HORNET_COMMON_PLACEMENT_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace hornet::common {

class Arena;

/**
 * Contiguous block partition: the group of item @p i when @p n items
 * are dealt into @p g groups. This is the same formula the engine uses
 * to assign tiles to shards, so when group and thread counts match,
 * placement groups and shards coincide exactly.
 */
constexpr std::size_t
block_of(std::size_t i, std::size_t n, std::size_t g)
{
    return n == 0 ? 0 : (i * g) / n;
}

/** Thread-affinity policy for engine workers and construction
 *  threads (`[sim] pin = auto|none|compact|spread`). */
enum class PinMode
{
    None,    ///< never set affinity (the OS scheduler decides)
    Compact, ///< thread t on CPU t: pack threads onto adjacent cores
    Spread,  ///< space threads evenly across all CPUs
    Auto,    ///< Compact on multi-NUMA hosts, None otherwise
};

/** Parse a `[sim] pin` value; fatal() on unknown names. */
PinMode pin_mode_from_string(const std::string &name);

/** Inverse of pin_mode_from_string (logs, stats). */
const char *pin_mode_name(PinMode m);

/** NUMA nodes the host exposes (1 when undetectable / non-Linux). */
unsigned numa_node_count();

/** Resolve Auto against the host: Compact when numa_node_count() > 1,
 *  None otherwise. Non-Auto modes pass through unchanged. */
PinMode resolve_pin_mode(PinMode m);

/**
 * Pin the calling thread — worker @p tid of @p nthreads — according to
 * @p mode (resolve Auto first). No-op for PinMode::None and on
 * platforms without affinity support; failures are silently ignored
 * (affinity is an optimization, never a correctness requirement).
 */
void apply_thread_pin(PinMode mode, unsigned tid, unsigned nthreads);

/**
 * RAII pin: applies apply_thread_pin() on construction and restores
 * the thread's previous affinity mask on destruction. Used for worker
 * 0, which runs on the caller's thread — pinning must not leak into
 * the rest of the process after Engine::run() returns.
 */
class ScopedThreadPin
{
  public:
    /** Save the current affinity mask, then pin like
     *  apply_thread_pin(@p mode, @p tid, @p nthreads). */
    ScopedThreadPin(PinMode mode, unsigned tid, unsigned nthreads);
    /** Restore the affinity mask saved at construction. */
    ~ScopedThreadPin();
    ScopedThreadPin(const ScopedThreadPin &) = delete;
    ScopedThreadPin &operator=(const ScopedThreadPin &) = delete;

  private:
    std::vector<unsigned char> saved_mask_; ///< opaque; empty = nothing to restore
};

/**
 * Which arena each node's objects are placed into, plus how the
 * construction itself should be laid onto threads. A null/empty map
 * means "no placement": callers fall back to a private arena.
 */
struct NodePlacement
{
    /** Arena for node i's tile/router/buffers (size == node count). */
    std::vector<Arena *> arena_of_node;
    /** Number of placement groups (== distinct arenas). */
    unsigned groups = 1;
    /** Construct groups on parallel per-group threads (first touch). */
    bool parallel = false;
    /** Affinity applied to the per-group construction threads. */
    PinMode pin = PinMode::None;

    /** Arena for @p node (bounds-checked). */
    Arena *of(std::size_t node) const { return arena_of_node.at(node); }
};

/**
 * Run @p fn(group) for every group in @p p. When @p p asks for
 * parallel construction (and has more than one group), each group runs
 * on its own thread with @p p.pin applied — this is what makes
 * first-touch placement happen. Otherwise the groups run serially on
 * the calling thread. @p fn must only write state owned by its group.
 * An exception thrown by @p fn on a group thread (e.g. a fatal() on a
 * bad configuration) is rethrown on the calling thread after every
 * group finished, lowest group first.
 */
void for_each_group(const NodePlacement &p,
                    const std::function<void(unsigned)> &fn);

} // namespace hornet::common

#endif // HORNET_COMMON_PLACEMENT_H
