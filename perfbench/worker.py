"""Runs one workload in this process and prints its raw measurements.

run.py starts this script; it is not meant to be run by hand.

  worker.py --workload W --setup-probe
      import numpy and mplkit, warm up, exit (run.py times the process)
  worker.py --workload W --seed S --seconds T --trace 0|1
            [--setup-probes N] [--spans FILE]
      run passes until the next one would end past T seconds, check every
      operation, print one JSON line of raw measurements

The N setup probes run between the passes, spread in proportion to the
time the passes have used, so set-up is timed in the same phase of the
machine as the passes; their own time is not charged to the T seconds.

With --trace 1 every pass runs twice on the same inputs, untraced and then
with tracing.Tracer installed, so the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import mplkit  # noqa: E402

if not os.path.abspath(mplkit.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"mplkit imported from {mplkit.__file__}, not from {SRC}")

import reference  # noqa: E402
import workloads  # noqa: E402


def _record_failures(failures: list[str], out: dict) -> None:
    out["failed"] += len(failures)
    out["failures"].extend(failures[: max(0, 10 - len(out["failures"]))])


def _record(wl, result, pass_index: int, out: dict, digests: dict) -> None:
    """Count the pass's operations and digest its artifacts.  Artifacts of a
    workload with fixed_artifacts are keyed by name alone, the same for
    every pass and seed; the others by "pass/name"."""
    out["attempted"] += len(result.op_seconds)
    _record_failures(result.failures, out)
    for name, text in result.artifacts.items():
        key = name if wl.fixed_artifacts else f"{pass_index}/{name}"
        sha = workloads.digest(text)
        if digests.setdefault(key, sha) != sha:
            out["flags"].append(f"pass {pass_index}: {name} differs from an earlier pass")


def tail_latency(op_seconds) -> float:
    """The pass's 99th-percentile operation latency (nearest rank): the 24th
    slowest of 2400 eval calls, the slowest preimage tuple, the one reduce44
    command."""
    ordered = sorted(op_seconds)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def setup_probe(name: str) -> float:
    """Wall time of a fresh process that imports numpy and mplkit and warms
    the workload up."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__, "--workload", name, "--setup-probe"],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return elapsed


def run(name: str, seed: int, seconds: float, trace: bool, probes: int,
        spans_path: str | None) -> dict:
    wl = workloads.WORKLOADS[name](seed)
    wl.warm_up()
    out = {"run_s": [], "traced_run_s": [], "pass_p50_s": [], "pass_tail_s": [], "setup_s": [],
           "ops": 0, "attempted": 0,
           "failed": 0, "failures": [], "digests": {}, "flags": [], "layers": []}
    worst = 0.0  # largest eval error as a share of its allowance
    mp_sample = []  # eval requests for the mpmath cross-check at the end
    spans = []
    if trace:
        import tracing
    start = time.perf_counter()
    probe_s = 0.0  # wall time of the setup probes, not charged to the passes
    index = 0
    while True:
        inputs = wl.inputs(index)
        t0 = time.perf_counter()
        result = wl.run_pass(inputs)
        out["run_s"].append(time.perf_counter() - t0)
        out["ops"] += len(result.op_seconds)
        # the median is taken pass by pass, like the tail, so a change of host
        # speed between passes moves it by the mean of the passes instead of
        # deciding on which side of the change the median of all operations falls
        out["pass_p50_s"].append(statistics.median(result.op_seconds))
        out["pass_tail_s"].append(tail_latency(result.op_seconds))
        _record(wl, result, index, out, out["digests"])
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced = wl.run_pass(inputs)
                out["traced_run_s"].append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            result.evals.extend(traced.evals)
            traced_digests: dict[str, str] = {}
            _record(wl, traced, index, out, traced_digests)
            if any(out["digests"].get(k) != v for k, v in traced_digests.items()):
                out["flags"].append(f"pass {index}: traced artifacts differ from untraced")
            metrics = tracer.layer_metrics()
            metrics["trace.spans"] = float(len(tracer.spans))
            out["layers"].append(metrics)
            spans.append(tracer.dump())
        if result.evals:
            # checked pass by pass, so no pass's results stay in memory
            failures, pass_worst = reference.check_long_double(result.evals)
            _record_failures(failures, out)
            worst = max(worst, pass_worst)
            if index == 0:
                mp_sample = reference.mpmath_sample(result.evals, random.Random(f"mpmath:{seed}"))
        index += 1
        elapsed = time.perf_counter() - start - probe_s
        while len(out["setup_s"]) < probes * min(1.0, elapsed / seconds):
            out["setup_s"].append(setup_probe(name))
            probe_s += out["setup_s"][-1]
        if elapsed + elapsed / index > seconds:
            break
    while len(out["setup_s"]) < probes:
        out["setup_s"].append(setup_probe(name))
    # Linux reports ru_maxrss in KiB; read it before the checks allocate
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mp_sample:
        reference.check_mpmath(mp_sample)
        out["check"] = {"worst_error_over_allowed": worst, "mpmath_checked": len(mp_sample)}
    if spans_path and spans:
        os.makedirs(os.path.dirname(spans_path) or ".", exist_ok=True)
        with open(spans_path, "w") as handle:
            json.dump({"workload": name, "seed": seed, "passes": spans}, handle)
    out["passes"] = index
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--setup-probe", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probes", type=int, default=0)
    p.add_argument("--spans")
    args = p.parse_args(argv)
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](0).warm_up()
        return 0
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_probes,
              args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
