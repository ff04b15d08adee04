"""Compare a parent and a change result set, workload by workload.

  python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSON-lines file that `run.py --results FILE` appends
to.  The two sets are meant to come from alternating runs of the parent
and the change, one seed per pair; each workload's row reports in how many
pairs the parent ran first.

For every end-to-end metric of BENCHMARK.json on every workload, runs are
paired in start order and the verdict follows these rules:
  FAILURES UP   the change's error rate (failed / attempted operations)
                on the workload is above the parent's; no gain counts then
  improved      the change wins at least 9 of 10 pairs (ties count for
                neither side) and the medians differ by more than the
                parent's quartile spread
  REGRESSION    the change's median is worse than the parent's by more
                than the metric's bound
  unresolved    the quartile spread of either side, as a share of its
                median, exceeds the bound, unless every change run reads
                better than every parent run
  within bound  none of the above
Artifact digests of runs with the same workload and seed are compared
too; any difference is listed, since the emitted identity and preimage
JSON are meant to stay byte-identical.  The exit status is 1 when any
verdict is REGRESSION or FAILURES UP.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def gain(parent: float, change: float, better: str) -> float:
    """Positive when the change reads better than the parent."""
    return parent - change if better == "lower" else change - parent


def wins(parent: list[float], change: list[float], better: str) -> int:
    return sum(1 for p, c in zip(parent, change) if gain(p, c, better) > 0)


def error_rate(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failures_up: bool) -> str:
    if failures_up:
        return "FAILURES UP"
    n = min(len(parent), len(change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0, (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(gain(p, c, better) > 0 for p in parent for c in change)
    if n >= 10 and wins(parent, change, better) >= 0.9 * n and gain(pmed, cmed, better) > pq3 - pq1:
        return "improved"
    if -gain(pmed, cmed, better) > bound * abs(pmed):
        return "REGRESSION"
    if spread > bound and not all_better:
        return "unresolved"
    return "within bound"


def compare(parent: list[dict], change: list[dict], spec: dict) -> int:
    parent = sorted((r for r in parent if not r["trace"]), key=lambda r: r["started"])
    change = sorted((r for r in change if not r["trace"]), key=lambda r: r["started"])
    regressions = 0
    print(f"{'workload':9s} {'metric':12s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>6s}  verdict")
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        ps = [r for r in parent if r["workload"] == workload]
        cs = [r for r in change if r["workload"] == workload]
        n = min(len(ps), len(cs))
        ps, cs = ps[:n], cs[:n]
        first = sum(1 for p, c in zip(ps, cs) if p["started"] < c["started"])
        errors = [error_rate(ps), error_rate(cs)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            v = verdict(pv, cv, metric["better"], metric["bound"], errors[1] > errors[0])
            regressions += v in ("REGRESSION", "FAILURES UP")
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            print(f"{workload:9s} {name:12s} {pmed:12.5g} [{pq1:.5g}, {pq3:.5g}]".ljust(56)
                  + f" {cmed:12.5g} [{cq1:.5g}, {cq3:.5g}]".ljust(33)
                  + f" {wins(pv, cv, metric['better']):>2d}/{n:<3d} {v}")
        print(f"{workload:9s} {n} pairs, parent first in {first}; error_rate parent {errors[0]:.3g}, change {errors[1]:.3g}")
    for p in parent:
        for c in change:
            if (p["workload"], p["seed"]) != (c["workload"], c["seed"]):
                continue
            for key in sorted(set(p["digests"]) & set(c["digests"])):
                if p["digests"][key] != c["digests"][key]:
                    print(f"DIGEST {p['workload']} seed {p['seed']} {key}: parent and change differ")
    return 1 if regressions else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return compare(load(args.parent), load(args.change), spec)


if __name__ == "__main__":
    sys.exit(main())
