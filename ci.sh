#!/usr/bin/env bash
# Tier-1 verify wrapper: configure, build, test, and (when available)
# check formatting. Mirrors .github/workflows/ci.yml for local use.
#
#   ./ci.sh            # regular build, both shard schedulers (poll,
#                      # event-fine), plus the full differential
#                      # sweep (`long`)
#   ./ci.sh --tsan     # ThreadSanitizer build of the test suite,
#                      # plus the full differential sweep
#   ./ci.sh --asan     # AddressSanitizer+UBSan build of the suite
#   ./ci.sh --bench    # perf-regression smoke: bench --quick --json vs
#                      # bench/baselines/, hard-gated (>15% fails)
#   ./ci.sh --e2e      # end-to-end benchmark checks: digests,
#                      # conservation and determinism on short runs
#   ./ci.sh --coverage # gcov line-coverage run with a summary artifact
#   ./ci.sh --profile  # frame-pointer builds + gprofng experiments
#                      # over the low-rate event-fine workload and
#                      # the saturated e2e workload; summaries at
#                      # build-prof/profile-summary.txt and
#                      # build-prof/profile-e2e-summary.txt
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

if [[ "${1:-}" == "--tsan" ]]; then
    # ThreadSanitizer leg: the lock-free VC-buffer fabric, the MPSC
    # wake mailbox and the engine's cross-shard seams must be
    # race-clean. Run under the event-fine scheduler — it exercises
    # the cross-thread wake path on top of the ring protocols — with
    # second-deadlock detection on. The differential harness inside
    # the run covers poll and event-fine explicitly. The full
    # differential sweep (about 80 s on 4 cores) runs too, so
    # concurrent System construction stays race-checked.
    cmake -B build-tsan -S . -DHORNET_TSAN=ON
    cmake --build build-tsan -j "$JOBS"
    echo "== ctest (ThreadSanitizer, HORNET_SCHEDULE=event-fine) =="
    (cd build-tsan &&
         HORNET_SCHEDULE=event-fine \
             TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
             ctest --output-on-failure --no-tests=error -LE long \
             -j "$JOBS")
    echo "== full differential sweep (ThreadSanitizer, event-fine) =="
    (cd build-tsan &&
         HORNET_DIFF_FULL=1 HORNET_SCHEDULE=event-fine \
             TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
             ./test_differential)
    echo "TSAN OK"
    exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
    # AddressSanitizer + UBSan leg: heap/stack misuse and undefined
    # behaviour (notably misuse of the over-aligned fabric/mailbox
    # types) across the same full suite, under event-fine.
    cmake -B build-asan -S . -DHORNET_ASAN=ON
    cmake --build build-asan -j "$JOBS"
    echo "== ctest (ASan+UBSan, HORNET_SCHEDULE=event-fine) =="
    (cd build-asan &&
         HORNET_SCHEDULE=event-fine \
             ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
             UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
             ctest --output-on-failure --no-tests=error -LE long \
             -j "$JOBS")
    echo "ASAN OK"
    exit 0
fi

if [[ "${1:-}" == "--e2e" ]]; then
    # End-to-end benchmark checks (bench/e2e/README.md): short runs of
    # the workloads whose checks are exact — pinned digests,
    # conservation, run-to-run determinism — so a break shows before
    # a full benchmark run. mesh32-loose-4t stays out: its accuracy
    # check depends on host load. run.sh exits non-zero naming any
    # failed check.
    bench/e2e/run.sh --seconds=1 --workload=mesh32-sparse \
        --workload=mesh16-saturated --workload=mesh32-lockstep-4t
    echo "E2E OK"
    exit 0
fi

if [[ "${1:-}" == "--coverage" ]]; then
    # Coverage leg (ISSUE 7): instrumented build, the suite minus the
    # `long` sweep, and a line-coverage summary artifact at
    # build-cov/coverage-summary.txt. Uses gcovr or lcov when
    # installed; falls back to aggregating raw gcov output.
    cmake -B build-cov -S . -DHORNET_COVERAGE=ON
    cmake --build build-cov -j "$JOBS"
    echo "== ctest (coverage build) =="
    (cd build-cov &&
         ctest --output-on-failure --no-tests=error -LE long -j "$JOBS")
    SUMMARY="build-cov/coverage-summary.txt"
    if command -v gcovr > /dev/null 2>&1; then
        gcovr --root . --filter src/ build-cov --txt "$SUMMARY"
        tail -5 "$SUMMARY"
    elif command -v lcov > /dev/null 2>&1; then
        lcov --capture --directory build-cov \
             -o build-cov/coverage.info > /dev/null
        lcov --extract build-cov/coverage.info "*/src/*" \
             -o build-cov/coverage-src.info > /dev/null
        lcov --list build-cov/coverage-src.info | tee "$SUMMARY"
    else
        # Raw gcov fallback: per-file "Lines executed" for src/ plus a
        # library-wide total.
        (cd build-cov &&
             find CMakeFiles/hornet.dir -name '*.gcda' -print0 |
                 xargs -0 gcov 2> /dev/null |
                 awk "/^File/ { f=\$2; gsub(/'/, \"\", f) }
                      /^Lines executed/ && f ~ /src\\// {
                          split(\$0, a, /[:% ]+/)
                          pct=a[3]; n=a[5]
                          hit += int(pct * n / 100 + 0.5); total += n
                          printf \"%7.2f%% %6d  %s\n\", pct, n, f
                          f=\"\"
                      }
                      END {
                          if (total)
                              printf \"TOTAL  %.2f%% of %d lines\n\",
                                     100 * hit / total, total
                      }") | tee "$SUMMARY"
        rm -f build-cov/*.gcov
    fi
    test -s "$SUMMARY" || { echo "no coverage data produced"; exit 1; }
    echo "COVERAGE OK (summary: $SUMMARY)"
    exit 0
fi

if [[ "${1:-}" == "--bench" ]]; then
    # Perf-regression smoke: run the CI-sized bench subset and compare
    # against the checked-in baselines. Hard gate locally (quiet
    # dedicated machine); the CI job passes --warn-only instead
    # because shared-runner timing jitter would make a 15% gate flaky.
    # A failed comparison is re-measured once before failing: shared
    # hosts have multi-second throttling phases that even the benches'
    # internal best-of-3 cannot ride out, and a real regression fails
    # both attempts anyway.
    cmake -B build -S .
    cmake --build build -j "$JOBS" \
        --target bench_vc_buffer bench_event_driven bench_job_engine \
        bench_topology_gallery
    mkdir -p build/bench-reports
    check_bench() { # <name>: run <name> --quick and compare
        local name="$1" attempt
        for attempt in 1 2; do
            "./build/$name" --quick \
                --json="build/bench-reports/$name.json" > /dev/null
            if python3 scripts/check_bench_regression.py \
                   "bench/baselines/$name.json" \
                   "build/bench-reports/$name.json"; then
                return 0
            fi
            [[ "$attempt" == 1 ]] &&
                echo "== $name: regression reported; re-measuring once =="
        done
        return 1
    }
    echo "== bench smoke (--quick) =="
    check_bench bench_vc_buffer
    check_bench bench_event_driven
    check_bench bench_job_engine
    check_bench bench_topology_gallery
    echo "BENCH OK"
    exit 0
fi

if [[ "${1:-}" == "--profile" ]]; then
    # Profiling leg (ISSUE 8): frame-pointer build plus a gprofng
    # experiment over the low-rate scheduling workload whose per-flit
    # lookup path the frozen flat tables target. The function summary
    # lands in build-prof/profile-summary.txt — this is the evidence
    # trail behind the before/after numbers in docs/BENCHMARKS.md.
    command -v gprofng > /dev/null 2>&1 || {
        echo "gprofng (binutils) not installed; cannot profile"
        exit 1
    }
    cmake -B build-prof -S . \
        -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer"
    cmake --build build-prof -j "$JOBS" --target bench_event_driven
    rm -rf build-prof/profile.er
    echo "== gprofng collect (bench_event_driven --quick) =="
    gprofng collect app -o build-prof/profile.er \
        ./build-prof/bench_event_driven --quick > /dev/null
    gprofng display text -functions build-prof/profile.er |
        head -40 | tee build-prof/profile-summary.txt
    # Router-tick layer: bench/e2e's mesh16-saturated keeps every
    # router busy every cycle, so router stages, VC-buffer push/pop
    # and the push-side wake chain dominate. Its own frame-pointer
    # build of the e2e package (Release, like the benchmark itself),
    # sampled every millisecond.
    cmake -S bench/e2e -B build-prof/e2e \
        -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer"
    cmake --build build-prof/e2e -j "$JOBS" --target hornet_e2e
    rm -rf build-prof/profile-e2e.er
    echo "== gprofng collect (hornet_e2e --workload=mesh16-saturated) =="
    gprofng collect app -p 1 -o build-prof/profile-e2e.er \
        ./build-prof/e2e/hornet_e2e --workload=mesh16-saturated \
        --seconds=6 > /dev/null
    gprofng display text -functions build-prof/profile-e2e.er |
        head -40 | tee build-prof/profile-e2e-summary.txt
    echo "PROFILE OK (experiments: build-prof/profile.er," \
         "build-prof/profile-e2e.er)"
    exit 0
fi

cmake -B build -S .
cmake --build build -j "$JOBS"
# Both shard schedulers must stay green (and bitwise identical —
# docs/ENGINE.md, "Event-driven shards" / "Component-granularity
# wakes"). The `long` differential sweep ignores the env (it sets
# schedules explicitly), so it runs once, outside the loop.
for schedule in poll event-fine; do
    echo "== ctest (HORNET_SCHEDULE=$schedule) =="
    (cd build &&
         HORNET_SCHEDULE="$schedule" \
             ctest --output-on-failure --no-tests=error -LE long \
             -j "$JOBS")
done
echo "== ctest (full differential sweep, label 'long') =="
(cd build &&
     ctest --output-on-failure --no-tests=error -L long -j "$JOBS")

# Giant-mesh smoke: a 64x64 (4096-tile) system must construct into the
# per-group arenas and run under both shard schedulers with matching
# results (docs/ENGINE.md, "Memory layout"), a 32x32 one must stay
# bitwise identical across them, bidirectional links included, while
# event-fine sleeps tiles, and 32x32 all-pairs XY must build, freeze
# and run on destination-keyed tables (2,095,104 entries, under
# 512 KiB of arena per tile). Named so a failure at this scale is
# unmistakable in the log.
echo "== giant-mesh smoke (64x64 arena layout, 32x32 bitwise + bidirectional, both schedulers, 32x32 all-pairs XY tables) =="
./build/test_big_mesh \
    --gtest_filter='BigMesh.Mesh64*:BigMesh.Mesh32SchedulersBitwiseIdentical:BigMesh.Mesh32AllPairsXyTables'

# Sweep-engine smoke: the backend-comparison example submits its
# backend x seed grid through sim::JobEngine (blueprint-shared frozen
# tables, concurrent jobs, adaptive-policy timeline at the end).
echo "== sweep-engine smoke (example_sync_study) =="
./build/example_sync_study > /dev/null

if command -v doxygen > /dev/null 2>&1; then
    echo "== doxygen (API docs; every src/ subsystem must be fully documented) =="
    mkdir -p build
    doxygen docs/Doxyfile 2> build/doxygen-warnings.log || {
        cat build/doxygen-warnings.log
        echo "doxygen failed"
        exit 1
    }
    if grep -E "src/(common|sim|net|mem|traffic|power|thermal|workloads)/" build/doxygen-warnings.log; then
        echo "undocumented public symbols (or doc errors) in src/common/, src/sim/, src/net/, src/mem/, src/traffic/, src/power/, src/thermal/ or src/workloads/"
        exit 1
    fi
else
    echo "doxygen not installed; skipping API-docs check"
fi

if command -v clang-format > /dev/null 2>&1; then
    echo "== clang-format check =="
    # New code must be clean; pre-existing drift is reported but not
    # fatal locally (the GitHub job gates changed files only).
    find src tests bench examples \
         \( -name '*.cc' -o -name '*.h' \) -print0 |
        xargs -0 clang-format --dry-run 2>&1 | head -50 || true
else
    echo "clang-format not installed; skipping format check"
fi

echo "CI OK"
