/**
 * @file
 * Reusable thread barrier with an optional leader action.
 */
#ifndef HORNET_SIM_BARRIER_H
#define HORNET_SIM_BARRIER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/ring.h"

namespace hornet::sim {

/**
 * Sense-reversing barrier (Mellor-Crummey & Scott, ACM TOCS 1991) with
 * spin-then-park waiting. The last thread to arrive runs the leader
 * action (if any) before releasing the others; this is how the engine
 * makes global decisions (fast-forward, termination) without a
 * separate coordinator thread.
 *
 * Arrival is one acq_rel fetch_add on a counter; release is a store to
 * a generation word that waiters watch. The two live on separate cache
 * lines, so spinning waiters only ever read a line the leader writes
 * once per round. The pair is the happens-before edge the engine
 * leans on (docs/ENGINE.md, "Wake mailbox memory model"): every write
 * a party makes before it arrives is visible to the leader inside its
 * action (the arrivals form one release sequence that the last
 * arrival acquires), and every such write and the leader's own are
 * visible to every party after the wait (the leader's generation
 * store releases, the waiters' loads acquire).
 *
 * Waiting follows the competitive-spinning rule (Karlin et al., SOSP
 * 1991): spin for about what blocking would cost, then block.
 * Cycle-accurate runs meet here twice per simulated cycle, a few
 * microseconds apart, so a waiter that parks at once pays a futex
 * sleep and wake-up every time — a mutex+condvar barrier measured
 * 10.4–10.8 µs per round at 4 threads on a 4-vCPU Xeon, against
 * 0.37–0.54 µs spinning, which made 4-thread cycle-accurate runs
 * slower than one thread. When every party can have a CPU of its own
 * (parties <= CPUs in the constructing thread's affinity mask, decided
 * once per barrier), a waiter spins for kSpinFor, then yields until
 * kYieldUntil, then parks on the generation word (std::atomic::wait).
 * The yield phase is what keeps the spin harmless on a host shared
 * with other busy processes (parallel test runs, JobEngine workers,
 * other tenants): a yielding waiter hands its CPU to whoever is
 * runnable. An oversubscribed barrier (more parties than CPUs) skips
 * both phases and parks at once, since there any spin burns a quantum
 * a party still on its way here needs. A one-party barrier runs the
 * leader inline and never waits. docs/BENCHMARKS.md keeps the spin
 * shapes that were measured and rejected.
 */
class Barrier
{
  public:
    /** Leader action of a plain rendezvous: nothing. */
    struct NoLeader
    {
        /** Does nothing. */
        void operator()() const {}
    };

    /** @param parties number of threads that must arrive to release. */
    explicit Barrier(unsigned parties)
        : parties_(parties), spin_(parties > 1 && parties <= usable_cpus())
    {
    }

    /** Block until all parties arrive; the last one runs @p leader
     *  (a callable taking no arguments) before any party returns. */
    template <typename Leader = NoLeader>
    void
    arrive_and_wait(const Leader &leader = Leader{})
    {
        if (parties_ == 1) {
            leader();
            return;
        }
        // Exact, though relaxed: this thread observed the current
        // generation when it left the previous round (or wrote it, as
        // that round's leader), and the generation cannot move again
        // until this thread arrives. The release half of the fetch_add
        // keeps the load ahead of the arrival.
        const std::uint32_t gen = gen_.value.load(std::memory_order_relaxed);
        if (count_.value.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            leader();
            count_.value.store(0, std::memory_order_relaxed);
            // seq_cst, not just release: notify_all skips the futex
            // wake when libstdc++'s waiter count reads zero, and that
            // load must not be reordered ahead of this store (a
            // store->load reordering would let a waiter that has just
            // registered read the old generation and sleep unwoken).
            gen_.value.store(gen + 1, std::memory_order_seq_cst);
            gen_.value.notify_all();
            return;
        }
        wait_past(gen);
    }

    /** Number of threads this barrier synchronizes. */
    unsigned parties() const { return parties_; }

  private:
    using Clock = std::chrono::steady_clock;

    /// Pure spin before yielding: about 128 `pause` instructions on
    /// the 4-vCPU Xeon this was tuned on (about 14 ns each), enough to
    /// catch a cycle-accurate rendezvous whose parties arrive close
    /// together. Bounded by time because `pause` latency differs by up
    /// to 10x across CPUs.
    static constexpr auto kSpinFor = std::chrono::microseconds(2);
    /// End of the yield phase, counted from the start of the wait:
    /// about twice the 10.4–10.8 µs a park/wake round trip costs on
    /// that host. Longer spins (225 µs) made four concurrent
    /// multi-threaded test processes 7x slower; this one left them as
    /// fast as parking at once (docs/BENCHMARKS.md).
    static constexpr auto kYieldUntil = std::chrono::microseconds(20);
    /// Spin iterations between clock reads: a steady_clock read costs
    /// about two pauses there (27.5 ns against 13.8 ns), so reading it
    /// every 16 keeps the clock near a tenth of the spin.
    static constexpr int kPausesPerClockRead = 16;

    /** CPUs the calling thread may run on. */
    static unsigned
    usable_cpus()
    {
#if defined(__linux__)
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            return static_cast<unsigned>(CPU_COUNT(&set));
#endif
        return std::thread::hardware_concurrency();
    }

    static void
    cpu_relax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    bool
    released(std::uint32_t gen) const
    {
        return gen_.value.load(std::memory_order_acquire) != gen;
    }

    /** Wait until the generation moves past @p gen. */
    void
    wait_past(std::uint32_t gen) const
    {
        if (spin_) {
            const Clock::time_point start = Clock::now();
            do {
                for (int i = 0; i < kPausesPerClockRead; ++i) {
                    if (released(gen))
                        return;
                    cpu_relax();
                }
            } while (Clock::now() - start < kSpinFor);
            do {
                if (released(gen))
                    return;
                std::this_thread::yield();
            } while (Clock::now() - start < kYieldUntil);
        }
        // Returns only once the value differs from gen (it re-checks
        // after every wake-up, spurious ones included).
        gen_.value.wait(gen, std::memory_order_acquire);
    }

    const unsigned parties_;
    /// Whether waiters spin and yield before parking (parties fit the
    /// CPUs); fixed at construction.
    const bool spin_;
    /// Arrivals in the current round (every arrival writes it).
    common::CacheAligned<std::atomic<std::uint32_t>> count_;
    /// Round number; the leader's store releases the waiters.
    common::CacheAligned<std::atomic<std::uint32_t>> gen_;
};

} // namespace hornet::sim

#endif // HORNET_SIM_BARRIER_H
