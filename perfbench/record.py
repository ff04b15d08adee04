"""Write perfbench/baseline.json from result sets of run.py --results.

  python3 perfbench/record.py RESULTS.jsonl [MORE.jsonl ...]

baseline.json holds what BENCHMARK.json has no key for: the machine facts
(nproc, Python, numpy and mpmath versions, git SHA), the map from each
per-layer metric to the end-to-end metrics it should move, the median and
quartiles of every metric per workload, the measured error rate, and the
SHA-256 digests of the emitted identity and preimage JSON per workload and
seed, which run.py checks later runs against.  A digest keyed by artifact
name alone (reduce44's li44.json) does not depend on the seed and is kept
under "*"; one keyed "pass/name" is kept under its seed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per-layer metric -> the end-to-end metrics and workloads it should move
LAYER_MAP = {
    "numeval.kernel_s, numeval.kernel_calls, numeval.kernel_steps":
        "run_s on reduce44 (~60%); op_p50_ms and op_tail_ms on eval; nothing on preimage",
    "numeval.cutoff_s, numeval.cutoff_calls, numeval.tail_bound_calls, numeval.max_cutoff, "
    "numeval.cutoff_calls_per_kernel_call":
        "run_s on reduce44 (~20%); little on eval",
    "numeval.eval_self_s": "op_p50_ms on eval (per-call overhead); nothing elsewhere",
    "reduction.generate_s, reduction.weighted_sum_s, reduction.rhs_terms":
        "run_s on reduce44 (~1/3); nothing elsewhere",
    "symalg.eval_s, symalg.assembly_s, symalg.instantiate_s, symalg.instantiate_calls, "
    "symalg.factor_evals": "run_s on reduce44 (small)",
    "coalgebra.construct_s, coalgebra.image_s, coalgebra.contract_s, "
    "coalgebra.preimage_terms, coalgebra.image_words":
        "run_s and peak_rss_mb on preimage (image ~90%)",
    "linalg.solve_s, linalg.solve_calls": "predicted flat on every workload",
    "verify.identity_s, verify.sample_s, verify.convergence_s": "run_s on reduce44",
    "serialize.dumps_s, serialize.bytes": "small on reduce44 and preimage",
    "trace.overhead_s, trace.run_s, trace.untraced_run_s, trace.spans":
        "cost of the traced pass itself; moves no end-to-end metric",
}

WORKLOAD_NOTES = {
    "reduce44": "the heaviest user command, `mplkit reduce --k 4 --l 4 --verify --out FILE`: "
                "Expr accumulation in reduction/symalg, then the batched numeval kernel and "
                "per-point cutoff selection; coalgebra does no work",
    "preimage": "construct_preimage + verify_preimage + generator_combination_dumps at weight "
                "9-10, depth 2-3, 45-225 terms: coalgebra image and contraction do nearly all "
                "the work and numeval none, so a numeval change predicts no move here",
    "eval": "thousands of single-point eval_li calls, depth 1-3, weight <= 12, target 1e-12, "
            "suffix moduli up to 0.98: the same numeval kernel one point at a time, where "
            "per-call overhead and large cutoffs near the boundary set the latency",
}


def _git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(paths: list[str]) -> int:
    import numpy
    import mpmath

    records = [json.loads(line) for path in paths for line in open(path) if line.strip()]
    baseline: dict = {}
    error_rate: dict = {}
    digests: dict = {}
    for rec in records:
        mode = "per_layer" if rec["trace"] else "end_to_end"
        for name, metric in rec["metrics"].items():
            baseline.setdefault(rec["workload"], {}).setdefault(mode, {}).setdefault(name, []).append(metric["value"])
        failed, attempted = error_rate.get(rec["workload"], (0, 0))
        error_rate[rec["workload"]] = (failed + rec["failed"], attempted + rec["attempted"])
        for key, sha in rec["digests"].items():
            scope = str(rec["seed"]) if "/" in key else "*"
            recorded = digests.setdefault(rec["workload"], {}).setdefault(scope, {})
            if recorded.setdefault(key, sha) != sha:
                sys.exit(f"{rec['workload']} seed {rec['seed']}: {key} differs between runs")
    out = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "platform": platform.platform(),
            "git_sha": _git_sha(),
        },
        "workload_notes": WORKLOAD_NOTES,
        "layer_map": LAYER_MAP,
        "baseline": {
            w: {mode: {name: summarize(v) for name, v in metrics.items()} for mode, metrics in modes.items()}
            for w, modes in sorted(baseline.items())
        },
        "error_rate": {w: {"failed": f, "attempted": a, "rate": f / a} for w, (f, a) in sorted(error_rate.items())},
        "digests": digests,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
