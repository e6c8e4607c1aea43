#include "common/placement.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <thread>

#include "common/log.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace hornet::common {

PinMode
pin_mode_from_string(const std::string &name)
{
    if (name == "auto")
        return PinMode::Auto;
    if (name == "none")
        return PinMode::None;
    if (name == "compact")
        return PinMode::Compact;
    if (name == "spread")
        return PinMode::Spread;
    fatal("unknown pin mode: " + name +
          " (expected auto|none|compact|spread)");
}

const char *
pin_mode_name(PinMode m)
{
    switch (m) {
    case PinMode::None:
        return "none";
    case PinMode::Compact:
        return "compact";
    case PinMode::Spread:
        return "spread";
    case PinMode::Auto:
        return "auto";
    }
    return "?";
}

unsigned
numa_node_count()
{
#if defined(__linux__)
    // Count /sys/devices/system/node/node<N> entries; the kernel
    // numbers online nodes densely from 0 on the machines we care
    // about, so probing sequentially is enough.
    unsigned n = 0;
    for (;; ++n) {
        const std::string path =
            "/sys/devices/system/node/node" + std::to_string(n);
        if (access(path.c_str(), F_OK) != 0)
            break;
        if (n >= 1024) // defensive bound; no host has this many
            break;
    }
    return n > 0 ? n : 1;
#else
    return 1;
#endif
}

PinMode
resolve_pin_mode(PinMode m)
{
    if (m != PinMode::Auto)
        return m;
    // Affinity only buys anything when memory locality is at stake;
    // on single-node hosts the OS scheduler does fine on its own.
    return numa_node_count() > 1 ? PinMode::Compact : PinMode::None;
}

#if defined(__linux__)
namespace {

int
cpu_for(PinMode mode, unsigned tid, unsigned nthreads)
{
    const unsigned ncpu =
        std::max(1u, std::thread::hardware_concurrency());
    switch (mode) {
    case PinMode::Compact:
        return static_cast<int>(tid % ncpu);
    case PinMode::Spread:
        return static_cast<int>(
            (static_cast<std::uint64_t>(tid) * ncpu) /
            std::max(1u, nthreads) % ncpu);
    default:
        return -1;
    }
}

} // namespace
#endif

void
apply_thread_pin(PinMode mode, unsigned tid, unsigned nthreads)
{
#if defined(__linux__)
    const int cpu = cpu_for(resolve_pin_mode(mode), tid, nthreads);
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    // Best effort: a failure (e.g. restricted cpuset) must not abort
    // the simulation, it just loses the locality hint.
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)mode;
    (void)tid;
    (void)nthreads;
#endif
}

ScopedThreadPin::ScopedThreadPin(PinMode mode, unsigned tid,
                                 unsigned nthreads)
{
#if defined(__linux__)
    if (resolve_pin_mode(mode) == PinMode::None)
        return;
    cpu_set_t old;
    CPU_ZERO(&old);
    if (pthread_getaffinity_np(pthread_self(), sizeof(old), &old) == 0) {
        saved_mask_.assign(
            reinterpret_cast<const unsigned char *>(&old),
            reinterpret_cast<const unsigned char *>(&old) + sizeof(old));
    }
#endif
    apply_thread_pin(mode, tid, nthreads);
}

ScopedThreadPin::~ScopedThreadPin()
{
#if defined(__linux__)
    if (saved_mask_.size() != sizeof(cpu_set_t))
        return;
    cpu_set_t old;
    std::memcpy(&old, saved_mask_.data(), sizeof(old));
    (void)pthread_setaffinity_np(pthread_self(), sizeof(old), &old);
#endif
}

void
for_each_group(const NodePlacement &p,
               const std::function<void(unsigned)> &fn)
{
    if (!p.parallel || p.groups <= 1) {
        for (unsigned g = 0; g < std::max(1u, p.groups); ++g)
            fn(g);
        return;
    }
    std::vector<std::thread> workers;
    std::vector<std::exception_ptr> errors(p.groups);
    workers.reserve(p.groups);
    for (unsigned g = 0; g < p.groups; ++g) {
        workers.emplace_back([&p, &fn, &errors, g] {
            // Pin before the first write so the pages the arena touches
            // are faulted in on the group's own core (first touch).
            apply_thread_pin(p.pin, g, p.groups);
            try {
                fn(g);
            } catch (...) {
                errors[g] = std::current_exception();
            }
        });
    }
    for (auto &w : workers)
        w.join();
    for (const auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace hornet::common
