"""mplkit benchmark: one workload, one seed, one line of JSON results.

  python3 perfbench/run.py --workload {reduce44,preimage,eval} --seed N
                           --seconds T --trace {0,1} [--results FILE]

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy, and the script exits with status 2
when ./src/mplkit is missing.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  setup_s      lower quartile of the wall times of SETUP_PROBES fresh
               processes that import numpy and mplkit and warm the workload
               up; the probes run between the passes (worker.py), so they
               see the same load as run_s
  run_s        median wall time of one pass (workloads.py defines a pass)
  peak_rss_mb  peak resident memory of the process that ran the passes
  op_p50_ms    median over the passes of each pass's median latency of one
               operation: one eval_li call (eval), one weight tuple
               (preimage), one whole command (reduce44)
  op_tail_ms   median over the passes of each pass's 99th-percentile
               operation latency: the 24th slowest of 2400 calls on eval,
               the slowest of the ten tuples on preimage.  A reduce44 pass
               is one command, so there op_p50_ms and op_tail_ms both read
               the median command latency, which is close to run_s.
--trace 1 prints the per-layer metrics of tracing.py: every pass runs
untraced and then traced on the same inputs, each metric is the median
over the traced passes, trace.overhead_s is the median traced pass minus
the median untraced pass, and the spans go to perfbench/out/.

Every operation is checked: an exception, a verification report that does
not pass, an unmatched preimage or an eval value outside its certified
bound against reference.py counts as failed; error_rate = failed /
attempted.  SHA-256 digests of the emitted identity and preimage JSON are
compared with baseline.json: reduce44's identity on every run, since it
does not depend on the seed, and the preimages where baseline.json has the
same seed.  A difference is flagged on stderr, and so is a run whose
artifacts had nothing to be compared with.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; --results FILE also appends
the full record, the input of compare.py and record.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
BASELINE = os.path.join(HERE, "baseline.json")
WORKLOADS = ("reduce44", "preimage", "eval")  # not imported: run.py must work without ./src
SETUP_PROBES = 12
TIME_LIMIT_S = 170.0  # whole run, setup probes included

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_tail_ms": "ms",
}


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "B" if name.endswith("bytes") else "count"


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def check_digests(workload: str, seed: int, digests: dict) -> tuple[int, list[str]]:
    """(artifacts compared with baseline.json, flags for those that differ).
    baseline.json keeps seed-independent digests under "*"."""
    if not os.path.exists(BASELINE):
        return 0, []
    with open(BASELINE) as handle:
        by_seed = json.load(handle).get("digests", {}).get(workload, {})
    recorded = {**by_seed.get("*", {}), **by_seed.get(str(seed), {})}
    common = sorted(set(digests) & set(recorded))
    return len(common), [
        f"sha256 of {key} differs from baseline.json" for key in common if recorded[key] != digests[key]
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", help="append the full record to this JSON-lines file")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mplkit", "__init__.py")):
        return fail(f"no mplkit sources under {os.path.join(ROOT, 'src')}", 2)
    if not args.seconds > 0:
        return fail("--seconds must be positive", 2)

    started = time.time()
    budget = min(args.seconds, TIME_LIMIT_S - 60.0)
    probes = 0 if args.trace else SETUP_PROBES
    spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.json")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(budget), "--trace", str(args.trace),
             "--setup-probes", str(probes), "--spans", spans],
            capture_output=True, text=True, timeout=TIME_LIMIT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return fail(str(exc))
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        layers = raw["layers"]
        metrics = {
            name: {"value": statistics.median(m[name] for m in layers), "unit": layer_unit(name)}
            for name in layers[0]
        }
        traced, untraced = statistics.median(raw["traced_run_s"]), statistics.median(raw["run_s"])
        metrics["trace.run_s"] = {"value": traced, "unit": "s"}
        metrics["trace.untraced_run_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    else:
        values = {
            "setup_s": statistics.quantiles(raw["setup_s"], n=4)[0],
            "run_s": statistics.median(raw["run_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "op_p50_ms": 1e3 * statistics.median(raw["pass_p50_s"]),
            "op_tail_ms": 1e3 * statistics.median(raw["pass_tail_s"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    compared, mismatches = check_digests(args.workload, args.seed, raw["digests"])
    flags = raw["flags"] + mismatches
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {raw['passes']}  operations {raw['ops']} timed, {attempted} checked")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"  {'artifacts':40s} {len(raw['digests'])} digested, {compared} in baseline.json, "
          f"{len(mismatches)} differ")
    for line in raw["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in flags:
        print(f"FLAG {line}", file=sys.stderr)
    if raw["digests"] and not compared:
        print(f"NOTE baseline.json has no digests for {args.workload} seed {args.seed}: "
              f"the {len(raw['digests'])} artifacts of this run were not compared", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.results:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, started=started, passes=raw["passes"],
                      run_s=raw["run_s"], pass_p50_s=raw["pass_p50_s"],
                      pass_tail_s=raw["pass_tail_s"], setup_s=raw["setup_s"], digests=raw["digests"],
                      flags=flags, check=raw.get("check", {}))
        with open(args.results, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
