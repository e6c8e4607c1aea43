#!/usr/bin/env bash
# End-to-end simulator benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed=N] [--workload=NAME]... [--seconds=S] [--trace]
#
# Builds hornet_e2e into build-e2e/ (an optimized build of its own),
# runs each selected workload (default: all) in its own process, prints
# every metric as "<workload> <metric> <value> <unit>", and writes
# build-e2e/results.json. Exits non-zero, naming the check, when the
# build or any correctness check fails. The forms "--seed N",
# "--workload NAME", "--seconds S" and "--trace 0|1" are accepted too.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-e2e"

seed=1
seconds=28
trace=0
selected=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed=*) seed=${1#*=} ;;
        --seed) seed=${2:?--seed needs a value}; shift ;;
        --workload=*) selected+=("${1#*=}") ;;
        --workload) selected+=("${2:?--workload needs a value}"); shift ;;
        --seconds=*) seconds=${1#*=} ;;
        --seconds) seconds=${2:?--seconds needs a value}; shift ;;
        --trace=*) trace=${1#*=} ;;
        --trace)
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
                trace=$2
                shift
            else
                trace=1
            fi
            ;;
        *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

# Build output goes to stderr so the last stdout line stays the result.
if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target hornet_e2e -j "$(nproc)" >&2
bin="$build/hornet_e2e"

if [ ${#selected[@]} -eq 0 ]; then
    mapfile -t selected < <("$bin" --list)
fi

rev=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null; then
    rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

status=0
outs=()
for w in "${selected[@]}"; do
    out="$build/result-$w.json"
    rm -f "$out"
    "$bin" --workload="$w" --seed="$seed" --seconds="$seconds" \
        --trace="$trace" --git-rev="$rev" --out="$out" \
        --trace-out="$build/trace-$w.json" || status=$?
    if [ -f "$out" ]; then
        outs+=("$out")
    fi
done

{
    printf '{"runs": ['
    sep=
    for f in "${outs[@]}"; do
        printf '%s\n' "$sep"
        cat "$f"
        sep=,
    done
    printf ']}\n'
} >"$build/results.json"
exit "$status"
