/**
 * @file
 * sim::Barrier: publication across the rendezvous, one leader per
 * round on the last arriver, the one-party inline path, and bounded
 * CPU use while waiting. Every case runs at 2 and 4 parties, and at 8,
 * which oversubscribes hosts with fewer than 8 CPUs and so exercises
 * the park-at-once path.
 */
#include <gtest/gtest.h>

#include <time.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sim/barrier.h"

namespace hornet {
namespace {

using sim::Barrier;

constexpr unsigned kParties[] = {2, 4, 8};

/** Run @p body(tid) on @p n threads (tid 0 on the calling thread). */
void
run_parties(unsigned n, const std::function<void(unsigned)> &body)
{
    std::vector<std::thread> threads;
    for (unsigned tid = 1; tid < n; ++tid)
        threads.emplace_back(body, tid);
    body(0);
    for (auto &t : threads)
        t.join();
}

/** CPU time consumed by the calling thread, in seconds. */
double
thread_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(Barrier, PublishesPlainWritesBothWays)
{
    // Each party writes its own plain slot before arriving; the leader
    // sums the slots into a plain variable; after the wait every party
    // reads the sum and every slot. Slots and sum alternate between two
    // banks by round parity, so a party writing round r+1 never races
    // one still reading round r (it cannot reach round r+2 before that
    // reader arrives). Plain data on purpose: ThreadSanitizer flags any
    // missing happens-before edge, e.g. a relaxed generation store.
    constexpr std::uint64_t kRounds = 10000;
    for (unsigned n : kParties) {
        SCOPED_TRACE("parties=" + std::to_string(n));
        Barrier b(n);
        std::vector<std::uint64_t> slots[2] = {
            std::vector<std::uint64_t>(n), std::vector<std::uint64_t>(n)};
        std::uint64_t sum[2] = {0, 0};
        std::vector<std::uint64_t> bad(n, 0);
        const auto value = [](std::uint64_t round, unsigned tid) {
            return round * 1000 + tid + 1;
        };
        run_parties(n, [&](unsigned tid) {
            for (std::uint64_t r = 0; r < kRounds; ++r) {
                const unsigned bank = r & 1;
                slots[bank][tid] = value(r, tid);
                b.arrive_and_wait([&] {
                    std::uint64_t s = 0;
                    for (unsigned t = 0; t < n; ++t)
                        s += slots[bank][t];
                    sum[bank] = s;
                });
                std::uint64_t want = 0;
                for (unsigned t = 0; t < n; ++t) {
                    want += value(r, t);
                    if (slots[bank][t] != value(r, t))
                        ++bad[tid];
                }
                if (sum[bank] != want)
                    ++bad[tid];
            }
        });
        for (unsigned t = 0; t < n; ++t)
            EXPECT_EQ(bad[t], 0u) << "party " << t;
    }
}

TEST(Barrier, LeaderRunsOncePerRoundOnTheLastArriver)
{
    // Every party stamps its arrival round before arriving; when the
    // leader runs, every stamp must already read this round (so the
    // leader's thread arrived last), and each round gets exactly one
    // leader call, made on one of the parties' threads.
    constexpr std::uint64_t kRounds = 2000;
    for (unsigned n : kParties) {
        SCOPED_TRACE("parties=" + std::to_string(n));
        Barrier b(n);
        std::vector<std::uint64_t> stamp(n, ~std::uint64_t{0});
        std::vector<unsigned> calls(kRounds, 0);
        std::vector<unsigned> leader(kRounds, n);
        std::uint64_t early = 0;
        run_parties(n, [&](unsigned tid) {
            for (std::uint64_t r = 0; r < kRounds; ++r) {
                stamp[tid] = r;
                b.arrive_and_wait([&] {
                    for (unsigned t = 0; t < n; ++t)
                        if (stamp[t] != r)
                            ++early;
                    ++calls[r];
                    leader[r] = tid;
                });
            }
        });
        EXPECT_EQ(early, 0u);
        for (std::uint64_t r = 0; r < kRounds; ++r) {
            ASSERT_EQ(calls[r], 1u) << "round " << r;
            ASSERT_LT(leader[r], n) << "round " << r;
        }
    }
}

TEST(Barrier, OnePartyRunsTheLeaderInline)
{
    Barrier b(1);
    EXPECT_EQ(b.parties(), 1u);
    const std::thread::id self = std::this_thread::get_id();
    unsigned calls = 0;
    for (unsigned r = 0; r < 100; ++r) {
        b.arrive_and_wait([&] {
            EXPECT_EQ(std::this_thread::get_id(), self);
            ++calls;
        });
        EXPECT_EQ(calls, r + 1);
        b.arrive_and_wait(); // no leader: returns at once
    }
}

TEST(Barrier, WaitersParkRatherThanSpinThroughALateArrival)
{
    // One party arrives 5 ms late in each of 20 rounds: about 100 ms
    // of waiting per waiter. A waiter that spins or yields for the
    // whole wait burns on the order of that in CPU time; one that
    // parks after its short spin stays far below 10 ms.
    constexpr int kRounds = 20;
    constexpr auto kLate = std::chrono::milliseconds(5);
    for (unsigned n : kParties) {
        SCOPED_TRACE("parties=" + std::to_string(n));
        Barrier b(n);
        std::vector<double> cpu_s(n, 0.0);
        run_parties(n, [&](unsigned tid) {
            const double t0 = thread_cpu_s();
            for (int r = 0; r < kRounds; ++r) {
                if (tid == 0)
                    std::this_thread::sleep_for(kLate);
                b.arrive_and_wait();
            }
            cpu_s[tid] = thread_cpu_s() - t0;
        });
        for (unsigned t = 1; t < n; ++t)
            EXPECT_LT(cpu_s[t], 0.010) << "waiter " << t;
    }
}

} // namespace
} // namespace hornet
