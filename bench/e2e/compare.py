#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 bench/e2e/compare.py A.json B.json [--benchmark PATH]

A is the baseline and B the candidate, each a results.json written by
bench/e2e/run.sh. For every workload present in both and every
end-to-end metric listed in BENCHMARK.json, prints both values with
their min/max over the run's reps, the change from A to B, and whether
B stays within the metric's bound of A. fail_frac may not increase at
all. Exits 1 when any verdict fails or a metric is missing.
"""
import argparse
import json
import os
import sys


def load_runs(path):
    with open(path) as f:
        return {run["workload"]: run for run in json.load(f)["runs"]}


def spread(entry):
    if "min" not in entry:
        return ""
    return f"[{entry['min']:.4g}, {entry['max']:.4g}] n={entry['n']}"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline results.json")
    ap.add_argument("b", help="candidate results.json")
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"),
                    help="BENCHMARK.json holding the metrics and bounds")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    a, b = load_runs(args.a), load_runs(args.b)

    ok = True
    for w in sorted(set(a) ^ set(b)):
        print(f"{w}: only in {'A' if w in a else 'B'}")
    print(f"{'workload':19} {'metric':18} {'A':>11} {'B':>11} {'delta':>8} "
          f"{'bound':>6}  verdict  A [min, max]  B [min, max]")
    for w in [w for w in a if w in b]:
        for m in metrics:
            ea = a[w]["end_to_end"].get(m["name"])
            eb = b[w]["end_to_end"].get(m["name"])
            if ea is None or eb is None:
                print(f"{w:19} {m['name']:18} missing")
                ok = False
                continue
            va, vb = ea["value"], eb["value"]
            delta = (vb - va) / va
            worse = delta if m["better"] == "lower" else -delta
            good = worse <= m["bound"]
            ok &= good
            line = (f"{w:19} {m['name']:18} {va:11.5g} {vb:11.5g} "
                    f"{100 * delta:+7.2f}% {100 * m['bound']:5.0f}%  "
                    f"{'ok' if good else 'WORSE':7}  {spread(ea)}  {spread(eb)}")
            print(line.rstrip())
        fa, fb = a[w]["fail_frac"], b[w]["fail_frac"]
        good = fb <= fa
        ok &= good
        print(f"{w:19} {'fail_frac':18} {fa:11.5g} {fb:11.5g} {'':>8} "
              f"{'0%':>6}  {'ok' if good else 'WORSE'}")
        for side, run in (("A", a[w]), ("B", b[w])):
            if not run["correct"]:
                print(f"{w:19} {side} failed checks: {run['failures']}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
