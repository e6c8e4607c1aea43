/**
 * @file
 * End-to-end simulator benchmark (bench/e2e/README.md).
 *
 *   hornet_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
 *              [--out=PATH] [--trace-out=PATH] [--git-rev=REV]
 *   hornet_e2e --list
 *   hornet_e2e --workload=NAME --repin
 *
 * One process runs one workload: an open-loop synthetic load on a 2D
 * mesh, simulated as a batch job — one simulation at a time, each rep
 * on a freshly built System, reps repeated after one warm-up rep until
 * --seconds of wall time have passed. Only System::run is timed for the
 * host-speed metrics; set-up is timed separately. Both are reported in
 * reference-host units: divided by the host-speed factor a probe
 * measures after every rep (HostProbe). Every rep is checked (conservation,
 * determinism, pinned digests) and so is the run (loose-sync accuracy);
 * a failed check makes the process exit 1 after printing its name.
 *
 * The program calls only the simulator's public API. With --trace=1 one
 * extra rep runs with tracing decorators around the sync policy and the
 * frontends, and the per-layer metrics are derived from the spans and
 * counters recorded from outside the simulator; nothing inside src/ is
 * instrumented.
 *
 * stdout: one "<workload> <metric> <value> <unit>" line per metric, any
 * "FAIL <workload> <check>: ..." lines, and as the last line one JSON
 * object {"correct", "attempted", "failed", "metrics"} holding the
 * end-to-end metrics (--trace=0) or the per-layer metrics (--trace=1).
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/stats.h"
#include "net/routing/builders.h"
#include "net/topology.h"
#include "sim/system.h"
#include "traffic/flows.h"
#include "traffic/synthetic.h"

using namespace hornet;

namespace {

using Clock = std::chrono::steady_clock;

/// Seed at which the digests and the loose reference latency are pinned.
constexpr std::uint64_t kDefaultSeed = 1;
/// Drain allowance after the injection window (horizon = window + this).
constexpr Cycle kDrainCycles = 20000;
constexpr std::uint32_t kPacketFlits = 8;
/// Fewest timed reps per run, whatever --seconds says.
constexpr std::size_t kMinReps = 5;
/// Fewest set-up samples per run: set-up takes milliseconds on the
/// 32x32 workloads, so extra set-up-only builds steady its median.
constexpr std::size_t kMinSetups = 15;
/// Loose-sync accuracy: mean packet latency within this share of the
/// cycle-accurate reference (paper Fig 6b yardstick).
constexpr double kLooseTolerance = 0.02;

struct Workload
{
    const char *name;
    std::uint32_t side; ///< side x side mesh
    const char *pattern;
    double rate;   ///< offered flits/node/cycle
    Cycle window;  ///< injection window, cycles
    unsigned threads;
    std::uint32_t sync_period; ///< 1 = cycle-accurate (two barriers/cycle)
    /// stats_fingerprint at kDefaultSeed (0: timing-nondeterministic).
    std::uint64_t digest;
    /// Loose only: the cycle-accurate workload with the same traffic,
    /// and its mean packet latency at kDefaultSeed.
    const char *reference;
    double ref_latency;
};

// Sizes are chosen so one rep takes 0.3-1.5 s on a 4-core x86 host, so
// a run's median is over tens of reps. Re-pin the digests with --repin
// when a change deliberately alters simulated results (README.md).
constexpr Workload kWorkloads[] = {
    // Most of the tile x cycle grid sleeps: engine scheduling dominates.
    {"mesh32-sparse", 32, "shuffle", 0.01, 5000, 1, 1,
     0x804cc6aa523d8200ull, nullptr, 0.0},
    // Every router busy every cycle: router stages, VC buffers and
    // route lookup in all-pairs tables dominate; set-up is material.
    {"mesh16-saturated", 16, "uniform", 0.20, 2000, 1, 1,
     0x3ee539bc13552a5aull, nullptr, 0.0},
    // The paper's exact parallel mode: barrier, wake mailbox and
    // cross-shard buffers carry the cost; bitwise equal to 1 thread.
    {"mesh32-lockstep-4t", 32, "transpose", 0.02, 5000, 4, 1,
     0xd98bffa6db70eb77ull, nullptr, 0.0},
    // Same traffic, 5-cycle loose sync: one rendezvous per 5 cycles.
    {"mesh32-loose-4t", 32, "transpose", 0.02, 5000, 4, 5,
     0, "mesh32-lockstep-4t", 56.237464376492333},
};

const Workload *
find_workload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
ns_between(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ----------------------------------------------------------------------
// Host-speed probe.
// ----------------------------------------------------------------------

/**
 * Fixed work, timed after every rep, that measures how fast the host
 * runs at that moment. The benchmark's host is a VM on a shared
 * machine, where other tenants' load changes the speed of all code by
 * up to 1.8x over minutes. The probe is a dependent pointer chase
 * through 1 MiB per thread, on as many threads as the workload runs: it
 * fits in a core's private cache only while no other tenant shares that
 * core, which is what slows the simulator most. Of the kernels tried,
 * it was the one whose time the run's time tracked one to one; chases
 * through 32 MiB and a multiply chain slowed 1.5-4x less than the runs
 * (README.md). The host-speed factor is the probe's time over a
 * reference time; a host time divided by it is in reference-host
 * seconds. The probe is benchmark code, so no change to the simulator
 * moves it.
 */
class HostProbe
{
  public:
    explicit HostProbe(unsigned threads)
    {
        for (unsigned t = 0; t < threads; ++t)
            next_.push_back(cycle(kWords, t));
    }

    /** Run the probe once; returns the host-speed factor (>1: slow). */
    double
    measure()
    {
        // Stored results keep the compiler from dropping the work.
        std::vector<std::uint32_t> out(next_.size());
        const auto chase = [this, &out](std::size_t t) {
            std::uint32_t p = 0;
            for (std::uint32_t i = 0; i < kSteps; ++i)
                p = next_[t][p];
            out[t] = p;
        };
        // Threads as System::run starts them: chase 0 on the calling
        // thread, so a 1-thread probe runs on the simulation's own CPU.
        std::vector<std::thread> ts;
        const auto t0 = Clock::now();
        for (std::size_t t = 1; t < next_.size(); ++t)
            ts.emplace_back(chase, t);
        chase(0);
        for (std::thread &th : ts)
            th.join();
        return seconds_between(t0, Clock::now()) / kRefSeconds;
    }

  private:
    static constexpr std::size_t kWords = (std::size_t{1} << 20) / 4;
    static constexpr std::uint32_t kSteps = 3000000;
    /// The probe's median time on the host of README.md; it only fixes
    /// the unit.
    static constexpr double kRefSeconds = 0.024;

    /** A random cyclic permutation of 0..n-1 (Sattolo's algorithm). */
    static std::vector<std::uint32_t>
    cycle(std::size_t n, std::uint64_t seed)
    {
        std::vector<std::uint32_t> next(n);
        std::iota(next.begin(), next.end(), 0u);
        std::mt19937_64 rng(seed);
        for (std::size_t i = n - 1; i > 0; --i)
            std::swap(next[i],
                      next[std::uniform_int_distribution<std::size_t>(
                          0, i - 1)(rng)]);
        return next;
    }

    std::vector<std::vector<std::uint32_t>> next_; ///< one cycle per thread
};

// ----------------------------------------------------------------------
// Tracing: spans and histograms recorded from outside the simulator.
// ----------------------------------------------------------------------

/**
 * Log-linear histogram of nanosecond durations: 16 linear sub-buckets
 * per power of two (at most 6.25% relative bucket width). Per-cycle
 * spans go here instead of being stored one by one.
 */
class LogHist
{
  public:
    void
    add(std::uint64_t ns)
    {
        ++counts_[index(ns)];
        ++n_;
    }

    /** Midpoint of the bucket holding the q-quantile sample. */
    double
    quantile(double q) const
    {
        if (n_ == 0)
            return 0.0;
        const auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(n_)));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= std::max<std::uint64_t>(rank, 1))
                return lower(i) + 0.5 * width(i);
        }
        return lower(counts_.size() - 1);
    }

    /** JSON: [[bucket lower bound ns, count], ...] for non-empty buckets. */
    std::string
    json() const
    {
        std::string s = "[";
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            if (counts_[i] == 0)
                continue;
            char buf[64];
            std::snprintf(buf, sizeof buf, "%s[%.0f, %" PRIu64 "]",
                          s.size() > 1 ? ", " : "", lower(i), counts_[i]);
            s += buf;
        }
        return s + "]";
    }

  private:
    static constexpr std::size_t kSub = 16;

    static std::size_t
    index(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<std::size_t>(v);
        const int e = std::bit_width(v) - 1; // >= 4
        return static_cast<std::size_t>(e - 3) * kSub +
               static_cast<std::size_t>((v >> (e - 4)) & (kSub - 1));
    }

    static double
    lower(std::size_t i)
    {
        if (i < kSub)
            return static_cast<double>(i);
        const int e = static_cast<int>(i / kSub) + 3;
        return std::ldexp(static_cast<double>(kSub + i % kSub), e - 4);
    }

    static double
    width(std::size_t i)
    {
        return i < kSub ? 1.0
                        : std::ldexp(1.0, static_cast<int>(i / kSub) - 1);
    }

    std::array<std::uint64_t, 61 * kSub> counts_{};
    std::uint64_t n_ = 0;
};

/** Frontend call counters of one thread, one set per clock edge. */
struct CallStats
{
    std::uint64_t calls[2] = {0, 0}; ///< [0] posedge, [1] negedge
    std::uint64_t ns[2] = {0, 0};
    LogHist hist; ///< per-call durations, both edges
};

/**
 * Thread-local frontend accumulators. Each thread that ticks a traced
 * frontend gets its own CallStats, registered here on first use and
 * owned here for the life of the process, so the totals survive the
 * engine's worker threads. Read and reset only while no run is active
 * (System::run joins its workers before returning).
 */
class FrontendCalls
{
  public:
    static CallStats &
    mine()
    {
        thread_local CallStats *s = nullptr;
        if (s == nullptr) {
            std::lock_guard<std::mutex> lk(mx_);
            all_.push_back(std::make_unique<CallStats>());
            s = all_.back().get();
        }
        return *s;
    }

    static void
    reset()
    {
        std::lock_guard<std::mutex> lk(mx_);
        for (auto &s : all_)
            *s = CallStats{};
    }

    /** Per-thread stats of the threads that made calls. */
    static std::vector<CallStats>
    snapshot()
    {
        std::lock_guard<std::mutex> lk(mx_);
        std::vector<CallStats> out;
        for (const auto &s : all_)
            if (s->calls[0] + s->calls[1] != 0)
                out.push_back(*s);
        return out;
    }

  private:
    static inline std::mutex mx_;
    static inline std::vector<std::unique_ptr<CallStats>> all_;
};

/**
 * Frontend decorator: owns the real frontend and forwards all five
 * Clocked methods unchanged, timing the two clock edges into the
 * calling thread's accumulators. The queries are forwarded untimed:
 * the scheduler's view of the component is exactly the inner one, so
 * simulated results are unchanged (checked by digest).
 */
class TracingFrontend final : public sim::Frontend
{
  public:
    explicit TracingFrontend(std::unique_ptr<sim::Frontend> inner)
        : inner_(std::move(inner))
    {}

    void
    posedge(Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_->posedge(now);
        record(0, t0);
    }

    void
    negedge(Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_->negedge(now);
        record(1, t0);
    }

    bool idle(Cycle now) const override { return inner_->idle(now); }
    Cycle next_event(Cycle now) const override
    {
        return inner_->next_event(now);
    }
    bool done(Cycle now) const override { return inner_->done(now); }

  private:
    static void
    record(int edge, Clock::time_point t0)
    {
        const std::uint64_t ns = ns_between(t0, Clock::now());
        CallStats &s = FrontendCalls::mine();
        ++s.calls[edge];
        s.ns[edge] += ns;
        s.hist.add(ns);
    }

    std::unique_ptr<sim::Frontend> inner_;
};

/**
 * SyncPolicy decorator: delegates every decision to the real policy and
 * records the rendezvous cost. A window is the interval from the return
 * of one next_window() call to the entry of the next — the window's
 * execution plus the wait for the last shard to arrive. The inner
 * call's duration is the policy's self time. needs() adds cross_traffic
 * so the engine reports cross-shard flits; that changes what the engine
 * sums at a rendezvous, not what it simulates. next_window() runs on
 * one thread at a time (the rendezvous leader, ordered by the barrier),
 * so plain members suffice.
 */
class TracingSync final : public sim::SyncPolicy
{
  public:
    explicit TracingSync(sim::SyncPolicy &inner) : inner_(inner) {}

    const char *name() const override { return inner_.name(); }

    sim::ViewNeeds
    needs() const override
    {
        sim::ViewNeeds n = inner_.needs();
        n.cross_traffic = true;
        return n;
    }

    sim::SyncWindow
    next_window(const sim::EngineView &view) override
    {
        const auto t0 = Clock::now();
        if (calls_ != 0)
            windows_.add(ns_between(window_start_, t0));
        const sim::SyncWindow w = inner_.next_window(view);
        window_start_ = Clock::now();
        self_ns_ += ns_between(t0, window_start_);
        ++calls_;
        cross_flits_ = view.cross_flits;
        return w;
    }

    std::uint64_t calls() const { return calls_; }
    const LogHist &windows() const { return windows_; }
    double self_s() const { return static_cast<double>(self_ns_) * 1e-9; }
    std::uint64_t cross_flits() const { return cross_flits_; }

  private:
    sim::SyncPolicy &inner_;
    Clock::time_point window_start_{};
    LogHist windows_;
    std::uint64_t calls_ = 0;
    std::uint64_t self_ns_ = 0;
    std::uint64_t cross_flits_ = 0;
};

/** One coarse span: name, parent index (-1 = root), start/end (s). */
struct Span
{
    const char *name;
    int parent;
    double t0;
    double t1;
};

const Clock::time_point g_process_start = Clock::now();

/** Coarse spans of one rep, kept in memory. */
class Spans
{
  public:
    int
    open(const char *name, int parent)
    {
        const double t = seconds_between(g_process_start, Clock::now());
        all_.push_back({name, parent, t, t});
        return static_cast<int>(all_.size()) - 1;
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    close(int id)
    {
        Span &s = all_[static_cast<std::size_t>(id)];
        s.t1 = seconds_between(g_process_start, Clock::now());
        return s.t1 - s.t0;
    }

    const std::vector<Span> &all() const { return all_; }

    /** Duration minus the part covered by direct children. */
    double
    self_s(std::size_t id) const
    {
        double d = all_[id].t1 - all_[id].t0;
        for (const Span &c : all_)
            if (c.parent == static_cast<int>(id))
                d -= c.t1 - c.t0;
        return d;
    }

  private:
    std::vector<Span> all_;
};

// ----------------------------------------------------------------------
// One rep: build, run, collect.
// ----------------------------------------------------------------------

struct SetupTimes
{
    double total = 0, ctor = 0, routing = 0, attach = 0, freeze = 0;
};

struct RepResult
{
    SetupTimes setup;
    double run_s = 0;
    double collect_s = 0;
    Cycle cycles = 0;
    std::uint64_t fingerprint = 0;
    TileStats total;
    double latency_p99 = 0;
    std::uint64_t tile_run = 0, tile_skipped = 0;
    std::uint64_t comp_run = 0, comp_skipped = 0;
    double arena_bytes_per_tile = 0;
    std::uint64_t route_entries = 0;
    Spans spans;
};

/// Peak RSS right after the process's first set-up: before any run,
/// so it is the footprint of one freshly built System.
double g_setup_rss_mb = 0.0;

struct Built
{
    std::unique_ptr<sim::System> sys;
    int root_span = -1;
};

/** Set up one System for @p w (the set-up the setup_s metric times). */
Built
build(const Workload &w, std::uint64_t seed, bool traced, RepResult &r)
{
    Built b;
    Spans &sp = r.spans;
    b.root_span = sp.open("rep", -1);
    const int setup = sp.open("setup", b.root_span);

    int s = sp.open("net.topology", setup);
    const net::Topology topo = net::Topology::mesh2d(w.side, w.side);
    sp.close(s);
    const std::uint32_t n = topo.num_nodes();

    s = sp.open("sim.system_ctor", setup);
    sim::SystemLayout layout;
    layout.placement_groups = 4;
    layout.pin = common::PinMode::None;
    b.sys = std::make_unique<sim::System>(topo, net::NetworkConfig{}, seed,
                                          layout);
    r.setup.ctor = sp.close(s);

    s = sp.open("net.routing_build", setup);
    const traffic::Pattern pattern = traffic::pattern_by_name(w.pattern, n);
    const bool all_pairs = std::strcmp(w.pattern, "uniform") == 0;
    net::routing::build_xy(b.sys->network(),
                           all_pairs
                               ? traffic::flows_all_pairs(n)
                               : traffic::flows_for_pattern(n, pattern));
    r.setup.routing = sp.close(s);

    s = sp.open("traffic.frontend_attach", setup);
    for (NodeId i = 0; i < n; ++i) {
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = kPacketFlits;
        sc.rate = w.rate;
        sc.stop_at = w.window;
        std::unique_ptr<sim::Frontend> fe =
            std::make_unique<traffic::SyntheticInjector>(b.sys->tile(i), sc);
        if (traced)
            fe = std::make_unique<TracingFrontend>(std::move(fe));
        b.sys->add_frontend(i, std::move(fe));
    }
    r.setup.attach = sp.close(s);

    s = sp.open("net.freeze_tables", setup);
    b.sys->freeze_tables();
    r.setup.freeze = sp.close(s);
    r.setup.total = sp.close(setup);

    for (NodeId i = 0; i < n; ++i)
        r.route_entries += b.sys->network().router(i).routing_table().size();
    if (g_setup_rss_mb == 0.0)
        g_setup_rss_mb = peak_rss_mb();
    return b;
}

/** Run a built System to drain under @p policy and collect stats. */
void
run(const Workload &w, unsigned threads, Built &b, sim::SyncPolicy &policy,
    RepResult &r)
{
    sim::EngineOptions eo;
    eo.max_cycles = w.window + kDrainCycles;
    eo.stop_when_done = true;
    // Pinned so HORNET_SCHEDULE cannot change what is measured.
    eo.schedule = sim::Schedule::EventFine;
    eo.pin_threads = common::PinMode::None;

    Spans &sp = r.spans;
    int s = sp.open("sim.run", b.root_span);
    r.cycles = b.sys->run(policy, eo, threads);
    r.run_s = sp.close(s);

    s = sp.open("sim.collect_stats", b.root_span);
    const SystemStats st = b.sys->collect_stats();
    r.collect_s = sp.close(s);
    sp.close(b.root_span);

    r.fingerprint = stats_fingerprint(st);
    r.total = st.total;
    r.latency_p99 = st.total.packet_latency_hist.percentile(0.99);
    r.tile_run = st.tile_cycles_run;
    r.tile_skipped = st.tile_cycles_skipped;
    r.comp_run = st.comp_cycles_run;
    r.comp_skipped = st.comp_cycles_skipped;
    r.arena_bytes_per_tile = st.arena_bytes_per_tile;
}

std::unique_ptr<sim::SyncPolicy>
make_policy(const Workload &w)
{
    if (w.sync_period == 1)
        return std::make_unique<sim::CycleAccurateSync>();
    return std::make_unique<sim::PeriodicSync>(w.sync_period);
}

RepResult
run_rep(const Workload &w, std::uint64_t seed, unsigned threads)
{
    RepResult r;
    Built b = build(w, seed, /*traced=*/false, r);
    auto policy = make_policy(w);
    run(w, threads, b, *policy, r);
    return r;
}

/** Everything the traced rep records beyond a plain RepResult. */
struct TracedRep
{
    RepResult rep;
    std::uint64_t windows = 0;
    double window_us_p50 = 0, window_us_p99 = 0;
    double plan_self_s = 0;
    std::uint64_t cross_flits = 0;
    std::vector<CallStats> frontend;
    std::string windows_json;
};

TracedRep
run_traced_rep(const Workload &w, std::uint64_t seed)
{
    TracedRep t;
    FrontendCalls::reset();
    Built b = build(w, seed, /*traced=*/true, t.rep);
    auto policy = make_policy(w);
    TracingSync tsync(*policy);
    run(w, w.threads, b, tsync, t.rep);
    t.windows = tsync.calls();
    t.window_us_p50 = tsync.windows().quantile(0.50) * 1e-3;
    t.window_us_p99 = tsync.windows().quantile(0.99) * 1e-3;
    t.plan_self_s = tsync.self_s();
    t.cross_flits = tsync.cross_flits();
    t.windows_json = tsync.windows().json();
    t.frontend = FrontendCalls::snapshot();
    return t;
}

// ----------------------------------------------------------------------
// Correctness gate.
// ----------------------------------------------------------------------

struct Gate
{
    Gate(const Workload &wl, std::uint64_t s) : w(wl), seed(s) {}

    const Workload &w;
    std::uint64_t seed;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool run_failed = false;
    std::vector<std::string> failures;

    bool deterministic() const { return w.sync_period == 1; }

    void
    fail(const char *check, const std::string &detail)
    {
        failures.push_back(std::string(check) + ": " + detail);
        std::printf("FAIL %s %s: %s\n", w.name, check, detail.c_str());
    }

    /** Check one rep; @p first is the run's first rep (determinism). */
    void
    check(const RepResult &r, const RepResult *first, const char *label)
    {
        const TileStats &t = r.total;
        const std::size_t before = failures.size();
        char buf[256];
        if (t.flits_delivered != t.flits_injected ||
            t.packets_delivered != t.packets_injected) {
            std::snprintf(buf, sizeof buf,
                          "%s delivered %" PRIu64 "/%" PRIu64
                          " flits, %" PRIu64 "/%" PRIu64
                          " packets by cycle %" PRIu64,
                          label, t.flits_delivered, t.flits_injected,
                          t.packets_delivered, t.packets_injected, r.cycles);
            fail("conservation", buf);
        }
        if (deterministic() && first != nullptr &&
            r.fingerprint != first->fingerprint) {
            std::snprintf(buf, sizeof buf,
                          "%s fingerprint 0x%016" PRIx64
                          " != first rep 0x%016" PRIx64,
                          label, r.fingerprint, first->fingerprint);
            fail("determinism", buf);
        }
        if (deterministic() && seed == kDefaultSeed &&
            r.fingerprint != w.digest) {
            std::snprintf(buf, sizeof buf,
                          "%s fingerprint 0x%016" PRIx64
                          " != pinned 0x%016" PRIx64,
                          label, r.fingerprint, w.digest);
            fail("pinned-digest", buf);
        }
        attempted += t.flits_injected;
        if (failures.size() != before)
            failed += t.flits_injected;
    }

    /**
     * Loose accuracy: the packet-weighted mean latency of @p reps within
     * kLooseTolerance of the cycle-accurate reference @p ref. Pooled
     * over the run, not per rep: the means of two short reps differ by
     * about 1% (each is one timing realization of the free-running
     * shards), which is sampling noise, not loose-sync error. A failure
     * fails every flit of the run. Returns the deviation in percent.
     */
    double
    check_accuracy(const std::vector<RepResult> &reps, double ref)
    {
        double sum = 0;
        std::uint64_t n = 0;
        for (const RepResult &r : reps) {
            sum += r.total.packet_latency.sum();
            n += r.total.packet_latency.count();
        }
        const double lat = ratio(sum, static_cast<double>(n));
        const double dev = lat / ref - 1.0;
        if (!(std::fabs(dev) <= kLooseTolerance)) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "mean latency %.4f over %zu reps vs "
                          "cycle-accurate %.4f (tolerance %.0f%%)",
                          lat, reps.size(), ref, 100.0 * kLooseTolerance);
            fail("loose-accuracy", buf);
            run_failed = true;
        }
        return 100.0 * dev;
    }

    /** Failed flits: those of failed reps, or all after a run failure. */
    std::uint64_t
    failed_flits() const
    {
        return run_failed ? attempted : failed;
    }
};

// ----------------------------------------------------------------------
// Reporting.
// ----------------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value;
    std::vector<double> samples; ///< empty for single-valued metrics
};

std::string
json_escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
print_metrics(const Workload &w, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms) {
        std::printf("%s %s %s %s", w.name, m.name.c_str(),
                    num(m.value).c_str(), m.unit.c_str());
        if (!m.samples.empty())
            std::printf("  min=%s max=%s n=%zu",
                        num(*std::min_element(m.samples.begin(),
                                              m.samples.end()))
                            .c_str(),
                        num(*std::max_element(m.samples.begin(),
                                              m.samples.end()))
                            .c_str(),
                        m.samples.size());
        std::printf("\n");
    }
}

std::string
metrics_json(const std::vector<Metric> &ms, bool with_samples)
{
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const Metric &m = ms[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             num(m.value) + ", \"unit\": \"" + m.unit + "\"";
        if (with_samples && !m.samples.empty()) {
            s += ", \"min\": " +
                 num(*std::min_element(m.samples.begin(), m.samples.end())) +
                 ", \"max\": " +
                 num(*std::max_element(m.samples.begin(), m.samples.end())) +
                 ", \"n\": " + std::to_string(m.samples.size()) +
                 ", \"samples\": [";
            for (std::size_t k = 0; k < m.samples.size(); ++k)
                s += (k ? ", " : "") + num(m.samples[k]);
            s += "]";
        }
        s += "}";
    }
    return s + "}";
}

std::string
cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned regs[12];
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

std::string
host_json(std::uint64_t seed, const std::string &git_rev)
{
    char ts[32];
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    std::strftime(ts, sizeof ts, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return "{\"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu_model\": \"" + json_escape(cpu_model()) +
           "\", \"compiler\": \"" + json_escape(HORNET_E2E_COMPILER) +
           "\", \"build_type\": \"" HORNET_E2E_BUILD_TYPE
           "\", \"git_rev\": \"" +
           json_escape(git_rev) + "\", \"seed\": " + std::to_string(seed) +
           ", \"timestamp\": \"" + ts + "\"}";
}

void
write_file(const std::string &path, const std::string &text)
{
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "hornet_e2e: cannot write %s\n", path.c_str());
        std::exit(2);
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

std::string
trace_json(const Workload &w, const TracedRep &t)
{
    const Spans &sp = t.rep.spans;
    std::string s = std::string("{\"workload\": \"") + w.name +
                    "\", \"spans\": [";
    for (std::size_t i = 0; i < sp.all().size(); ++i) {
        const Span &x = sp.all()[i];
        s += std::string(i ? ",\n  " : "\n  ") + "{\"id\": " +
             std::to_string(i) + ", \"name\": \"" + x.name +
             "\", \"parent\": " + std::to_string(x.parent) +
             ", \"start_s\": " + num(x.t0) + ", \"end_s\": " + num(x.t1) +
             ", \"self_s\": " + num(sp.self_s(i)) + "}";
    }
    s += "],\n \"sim.sync\": {\"windows\": " + std::to_string(t.windows) +
         ", \"plan_self_s\": " + num(t.plan_self_s) +
         ", \"window_ns_hist\": " + t.windows_json + "},\n" +
         " \"traffic.frontend_per_thread\": [";
    for (std::size_t i = 0; i < t.frontend.size(); ++i) {
        const CallStats &c = t.frontend[i];
        s += std::string(i ? ",\n  " : "\n  ") +
             "{\"posedge_calls\": " + std::to_string(c.calls[0]) +
             ", \"posedge_ns\": " + std::to_string(c.ns[0]) +
             ", \"negedge_calls\": " + std::to_string(c.calls[1]) +
             ", \"negedge_ns\": " + std::to_string(c.ns[1]) +
             ", \"call_ns_hist\": " + c.hist.json() + "}";
    }
    return s + "]}\n";
}

// ----------------------------------------------------------------------
// Command line.
// ----------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 28;
    bool trace = false;
    bool list = false;
    bool repin = false;
    std::string out, trace_out, git_rev = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hornet_e2e: %s\nusage: hornet_e2e --workload=NAME "
                 "[--seed=N] [--seconds=S] [--trace=0|1] [--out=PATH] "
                 "[--trace-out=PATH] [--git-rev=REV] | --list | "
                 "--workload=NAME --repin\n",
                 why);
    std::exit(2);
}

std::uint64_t
parse_uint(const char *s, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0)
        usage((std::string("bad ") + what + ": " + s).c_str());
    return v;
}

Args
parse_args(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = parse_uint(val.c_str(), "seed");
        else if (key == "--seconds") {
            a.seconds = static_cast<double>(parse_uint(val.c_str(), "seconds"));
            if (a.seconds < 1 || a.seconds > 120)
                usage("--seconds must be 1..120");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            a.trace = val == "1";
        } else if (key == "--out")
            a.out = val;
        else if (key == "--trace-out")
            a.trace_out = val;
        else if (key == "--git-rev")
            a.git_rev = val;
        else if (arg == "--list")
            a.list = true;
        else if (arg == "--repin")
            a.repin = true;
        else
            usage(("unknown argument: " + arg).c_str());
    }
    return a;
}

/** Print the values to pin for @p w at kDefaultSeed (README.md). */
int
repin(const Workload &w)
{
    if (w.sync_period != 1) {
        std::printf("%s is timing-nondeterministic; re-pin %s instead "
                    "(its latency is this workload's reference)\n",
                    w.name, w.reference);
        return 0;
    }
    // The 4-thread lockstep digest is produced by a 1-thread run, so
    // every later 4-thread run re-checks bitwise identity with 1 thread.
    const RepResult r = run_rep(w, kDefaultSeed, /*threads=*/1);
    std::printf("%s digest 0x%016" PRIx64 " mean_latency %.17g "
                "(1 thread, seed %" PRIu64 ", %" PRIu64 " flits)\n",
                w.name, r.fingerprint, r.total.packet_latency.mean(),
                kDefaultSeed, r.total.flits_delivered);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse_args(argc, argv);
    if (args.list) {
        for (const Workload &w : kWorkloads)
            std::printf("%s\n", w.name);
        return 0;
    }
    const Workload *wp = find_workload(args.workload);
    if (wp == nullptr)
        usage(("unknown workload: \"" + args.workload + "\"").c_str());
    const Workload &w = *wp;
    if (args.repin)
        return repin(w);

    // One untimed warm-up rep: the allocator's heap grows and its pages
    // are first touched here, not in the timed reps.
    run_rep(w, args.seed, w.threads);
    // Read before the probe allocates its buffers.
    const double rss_mb = peak_rss_mb();

    // Timed reps: one simulation at a time, each on a fresh System and
    // followed by one probe of the host's speed, until --seconds pass.
    HostProbe probe(w.threads);
    std::vector<RepResult> reps;
    std::vector<double> speed;
    const auto t_start = Clock::now();
    while (reps.size() < kMinReps ||
           seconds_between(t_start, Clock::now()) < args.seconds) {
        reps.push_back(run_rep(w, args.seed, w.threads));
        speed.push_back(probe.measure());
    }
    // Host times are reported in reference-host units (HostProbe): each
    // rep's divided by the factor the probe measured right after it.
    // Extra set-ups take the run's median factor.
    std::vector<SetupTimes> setups;
    std::vector<double> setup_speed = speed;
    for (const RepResult &r : reps)
        setups.push_back(r.setup);
    while (setups.size() < kMinSetups) {
        RepResult r;
        build(w, args.seed, /*traced=*/false, r);
        setups.push_back(r.setup);
        setup_speed.push_back(median(speed));
    }
    const auto setup_samples = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &x : setups)
            v.push_back(x.*field);
        return v;
    };
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < setups.size(); ++i)
        setup_s.push_back(setups[i].total / setup_speed[i]);

    Gate gate{w, args.seed};
    for (std::size_t i = 0; i < reps.size(); ++i)
        gate.check(reps[i], &reps.front(),
                   ("rep " + std::to_string(i + 1)).c_str());

    // Loose accuracy reference: pinned at the default seed, otherwise
    // one untimed cycle-accurate run of the same traffic.
    double latency_dev_pct = 0;
    if (w.reference != nullptr) {
        double ref = w.ref_latency;
        if (args.seed != kDefaultSeed) {
            const Workload &rw = *find_workload(w.reference);
            ref = run_rep(rw, args.seed, rw.threads)
                      .total.packet_latency.mean();
        }
        latency_dev_pct = std::fabs(gate.check_accuracy(reps, ref));
    }

    std::vector<double> wall, ref_wall, ref_kcps, ref_ns_flit, collect;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const RepResult &r = reps[i];
        const double ref_s = r.run_s / speed[i];
        wall.push_back(r.run_s);
        ref_wall.push_back(ref_s);
        ref_kcps.push_back(static_cast<double>(r.cycles) / ref_s * 1e-3);
        ref_ns_flit.push_back(
            ref_s * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(
                r.total.flits_delivered, 1)));
        collect.push_back(r.collect_s);
    }

    const auto metric = [](const char *name, const char *unit,
                           std::vector<double> v) {
        const double m = median(v);
        return Metric{name, unit, m, std::move(v)};
    };
    std::vector<Metric> e2e = {
        metric("wall_s", "s", ref_wall),
        metric("sim_kcycles_per_s", "kcycles/s", ref_kcps),
        metric("host_ns_per_flit", "ns", ref_ns_flit),
        metric("setup_s", "s", setup_s),
        {"peak_rss_mb", "MB", rss_mb, {}},
    };

    std::vector<Metric> layer;
    std::string trace_text;
    if (args.trace) {
        TracedRep t = run_traced_rep(w, args.seed);
        const RepResult &r = t.rep;
        gate.check(r, &reps.front(), "traced rep");
        const TileStats &s = r.total;
        std::uint64_t fe_calls = 0, fe_ns = 0;
        for (const CallStats &c : t.frontend) {
            fe_calls += c.calls[0] + c.calls[1];
            fe_ns += c.ns[0] + c.ns[1];
        }
        const double thread_s = r.run_s * w.threads;
        const double fe_s = static_cast<double>(fe_ns) * 1e-9;
        const double residual = thread_s - fe_s - t.plan_self_s;
        const auto med = [&](double SetupTimes::*field) {
            return median(setup_samples(field));
        };
        const double kcycles = static_cast<double>(r.cycles) * 1e-3;
        const double lat = s.packet_latency.mean();
        const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        layer = {
            {"sim.system_ctor_s", "s", med(&SetupTimes::ctor), {}},
            {"net.routing_build_s", "s", med(&SetupTimes::routing), {}},
            {"traffic.frontend_attach_s", "s", med(&SetupTimes::attach), {}},
            {"net.freeze_tables_s", "s", med(&SetupTimes::freeze), {}},
            {"net.route_entries", "count", d(r.route_entries), {}},
            {"sim.arena_bytes_per_tile", "bytes", r.arena_bytes_per_tile, {}},
            {"setup_rss_mb", "MB", g_setup_rss_mb, {}},
            {"sim.tile_cycles_skipped_frac", "fraction",
             ratio(d(r.tile_skipped), d(r.tile_run + r.tile_skipped)), {}},
            {"sim.comp_cycles_skipped_frac", "fraction",
             ratio(d(r.comp_skipped), d(r.comp_run + r.comp_skipped)), {}},
            {"sim.comp_cycles_run", "count", d(r.comp_run), {}},
            {"sim.sync.windows", "count", d(t.windows), {}},
            {"sim.sync.window_us_p50", "us", t.window_us_p50, {}},
            {"sim.sync.window_us_p99", "us", t.window_us_p99, {}},
            {"sim.sync.plan_self_s", "s", t.plan_self_s, {}},
            {"sim.sync.cross_flits_per_kcycle", "flits/kcycle",
             ratio(d(t.cross_flits), kcycles), {}},
            {"sim.sync.latency_dev_pct", "%", latency_dev_pct, {}},
            {"traffic.frontend_calls", "count", d(fe_calls), {}},
            {"traffic.frontend_ns_per_call", "ns",
             ratio(d(fe_ns), d(fe_calls)), {}},
            {"traffic.frontend_cpu_share", "fraction", ratio(fe_s, thread_s),
             {}},
            {"sim.engine_residual_cpu_s", "s", residual, {}},
            {"net.router.buffer_writes", "count", d(s.buffer_writes), {}},
            {"net.router.buffer_reads", "count", d(s.buffer_reads), {}},
            {"net.router.xbar_transits", "count", d(s.xbar_transits), {}},
            {"net.router.link_transits", "count", d(s.link_transits), {}},
            {"net.router.va_stalls", "count", d(s.va_stalls), {}},
            {"net.router.sa_stalls", "count", d(s.sa_stalls), {}},
            {"net.router.credit_stalls", "count", d(s.credit_stalls), {}},
            {"net.router.va_grant_ratio", "fraction",
             ratio(d(s.va_grants), d(s.va_grants + s.va_stalls)), {}},
            {"net.router.sa_grant_ratio", "fraction",
             ratio(d(s.sa_grants), d(s.sa_grants + s.sa_stalls)), {}},
            {"net.router.residual_ns_per_buffer_write", "ns",
             ratio(residual * 1e9, d(s.buffer_writes)), {}},
            {"net.packet_latency_mean_cycles", "cycles", lat, {}},
            {"net.packet_latency_p99_cycles", "cycles", r.latency_p99, {}},
            {"sim.collect_stats_s", "s", median(collect), {}},
            {"trace.run_s", "s", r.run_s, {}},
            {"trace.overhead_pct", "%",
             100.0 * (r.run_s / median(wall) - 1.0), {}},
        };
        trace_text = trace_json(w, t);
    }

    const std::vector<Metric> host_speed = {
        metric("host_speed_factor", "x", speed)};
    print_metrics(w, e2e);
    print_metrics(w, host_speed);
    const std::uint64_t failed = gate.failed_flits();
    const double fail_frac = ratio(static_cast<double>(failed),
                                   static_cast<double>(gate.attempted));
    std::printf("%s fail_frac %s fraction\n", w.name, num(fail_frac).c_str());
    if (args.trace)
        print_metrics(w, layer);

    const bool correct = gate.failures.empty();
    std::string failures = "[";
    for (std::size_t i = 0; i < gate.failures.size(); ++i)
        failures += (i ? ", \"" : "\"") + json_escape(gate.failures[i]) +
                    "\"";
    failures += "]";
    char fp[24];
    std::snprintf(fp, sizeof fp, "0x%016" PRIx64, reps.front().fingerprint);
    write_file(args.out,
               std::string("{\"workload\": \"") + w.name +
                   "\", \"seed\": " + std::to_string(args.seed) +
                   ", \"seconds\": " + num(args.seconds) +
                   ", \"trace\": " + (args.trace ? "true" : "false") +
                   ",\n \"host\": " + host_json(args.seed, args.git_rev) +
                   ",\n \"correct\": " + (correct ? "true" : "false") +
                   ", \"attempted\": " + std::to_string(gate.attempted) +
                   ", \"failed\": " + std::to_string(failed) +
                   ", \"fail_frac\": " + num(fail_frac) +
                   ", \"failures\": " + failures +
                   ", \"fingerprint\": \"" + fp + "\", \"reps\": " +
                   std::to_string(reps.size()) +
                   ",\n \"host_speed\": " + metrics_json(host_speed, true) +
                   ",\n \"end_to_end\": " + metrics_json(e2e, true) +
                   ",\n \"per_layer\": " + metrics_json(layer, false) +
                   "}\n");
    if (args.trace)
        write_file(args.trace_out, trace_text);

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", gate.attempted, failed,
                metrics_json(args.trace ? layer : e2e, false).c_str());
    return correct ? 0 : 1;
}
