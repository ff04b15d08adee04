"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a closed loop with one caller: the next operation starts
only when the previous one has returned.  A pass is a fixed amount of work
at a stated input size; its inputs come from (seed, pass index) only.

  reduce44  one pass = the work of `mplkit reduce --k 4 --l 4 --verify
            --out FILE`: reduce_li(4, 4), identity_dumps, verify_identity
            at 20 seeded complex points (radius 0.7, tol 1e-9),
            report_dumps.  One operation per pass.
  preimage  one pass = construct_preimage, verify_preimage and
            generator_combination_dumps for each weight tuple in
            PREIMAGE_WEIGHTS (weight 9-10, depth 2-3, 45-225 terms), slot
            arguments drawn from the seed.  One operation per tuple.
  eval      one pass = EVAL_CALLS single-point eval_li calls, depth 1-3,
            weight <= 12, target 1e-12, largest suffix modulus stratified
            over [0.05, 0.98].  One operation per call; the values are
            checked after timing against reference.py.

The library is always reached through module attributes looked up at call
time (`numeval.eval_li`, not a name bound at import), so the wrappers that
tracing.py installs see every call.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from mplkit import coalgebra, numeval, reduction, serialize, verify

REDUCE_K, REDUCE_L = 4, 4
REDUCE_PLAN = dict(point_count=20, radius=0.7, tolerance=1e-9)

# weight 9-10, depth 2-3: preimages of 63 and 45 terms, every weight-10
# depth-2 tuple (127 terms each) and one of 225 terms.  The 127-term tuples
# take about half of a pass, so the median operation latency is read from
# that much of the run, not from a few short tuples, and lands in the middle
# of them whatever the number of passes; the 225-term tuple is the slowest.
PREIMAGE_WEIGHTS = (
    (5, 4), (2, 3, 4), (2, 8), (3, 7), (4, 6), (5, 5), (6, 4), (7, 3), (8, 2), (4, 3, 2),
)
# exponents with 2-power denominators, so every 2-power root stays legal
PREIMAGE_EXPONENTS = tuple(
    Fraction(s * p, q) for s in (1, -1) for p, q in ((1, 1), (1, 2), (3, 2), (2, 1), (3, 4))
)

EVAL_CALLS = 2400
EVAL_TARGET = 1e-12
EVAL_MAX_WEIGHT = 12
EVAL_RHO_MIN, EVAL_RHO_MAX = 0.05, 0.98


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(seed: int, pass_index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{pass_index}")


@dataclass
class PassResult:
    """What one pass returns to the runner (outside the timed region)."""

    op_seconds: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)  # name -> JSON text
    evals: list = field(default_factory=list)  # eval only: (request, result)


class Reduce44:
    name = "reduce44"
    fixed_artifacts = True  # li44.json does not depend on the seed

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        ident = reduction.reduce_li(2, 1)
        verify.verify_identity(ident, verify.VerificationPlan(seed=0, point_count=2))

    def inputs(self, index: int) -> int:
        """The verification plan seed of pass `index`."""
        return _rng(self.seed, index, self.name).randrange(2**31)

    def run_pass(self, plan_seed: int) -> PassResult:
        out = PassResult()
        t0 = time.perf_counter()
        try:
            ident = reduction.reduce_li(REDUCE_K, REDUCE_L)
            text = serialize.identity_dumps(ident)
            plan = verify.VerificationPlan(seed=plan_seed, **REDUCE_PLAN)
            report = verify.verify_identity(ident, plan)
            serialize.report_dumps(report)
        except Exception as exc:  # any exception is a failed operation
            out.op_seconds.append(time.perf_counter() - t0)
            out.failures.append(f"reduce_li({REDUCE_K},{REDUCE_L}): {exc!r}")
            return out
        out.op_seconds.append(time.perf_counter() - t0)
        if not report.passed:
            out.failures.append(
                f"report for plan seed {plan_seed} did not pass: max relative "
                f"residual {report.max_relative_residual:.3e}"
            )
        out.artifacts[f"li{REDUCE_K}{REDUCE_L}.json"] = text
        return out


def _group_element(rng: random.Random, slot: int) -> coalgebra.GroupElement:
    """zeta_8^j * a_slot^e1 * b^e2: same shape for every seed, new values."""
    return coalgebra.GroupElement(
        Fraction(rng.randrange(8), 8),
        (
            (f"a{slot}", rng.choice(PREIMAGE_EXPONENTS)),
            ("b", rng.choice(PREIMAGE_EXPONENTS)),
        ),
    )


class Preimage:
    name = "preimage"
    fixed_artifacts = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        gens = (coalgebra.GroupElement.generator("a1"), coalgebra.GroupElement.generator("a2"))
        combo = coalgebra.construct_preimage((2, 2), gens)
        coalgebra.verify_preimage(combo, (2, 2), gens)

    def inputs(self, index: int):
        rng = _rng(self.seed, index, self.name)
        return [
            (w, tuple(_group_element(rng, k + 1) for k in range(len(w))))
            for w in PREIMAGE_WEIGHTS
        ]

    def run_pass(self, inputs) -> PassResult:
        out = PassResult()
        for weights, args in inputs:
            label = ",".join(map(str, weights))
            t0 = time.perf_counter()
            try:
                combo = coalgebra.construct_preimage(weights, args)
                report = coalgebra.verify_preimage(combo, weights, args)
                text = serialize.generator_combination_dumps(combo)
            except Exception as exc:  # any exception is a failed operation
                out.op_seconds.append(time.perf_counter() - t0)
                out.failures.append(f"preimage ({label}): {exc!r}")
                continue
            out.op_seconds.append(time.perf_counter() - t0)
            if not report.matched:
                out.failures.append(
                    f"preimage ({label}) not matched: residual has "
                    f"{len(report.residual.terms)} words"
                )
            out.artifacts[f"preimage_{label.replace(',', '_')}.json"] = text
        return out


def _compositions(depth: int, max_weight: int) -> list[tuple[int, ...]]:
    if depth == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(1, max_weight - depth + 2)
        for rest in _compositions(depth - 1, max_weight - first)
    ]


EVAL_COMPOSITIONS = {d: _compositions(d, EVAL_MAX_WEIGHT) for d in (1, 2, 3)}


def _eval_args(rng: random.Random, depth: int, rho: float) -> tuple[complex, ...]:
    """Arguments whose largest suffix modulus |a_k ... a_d| is exactly rho.

    The slot attaining rho is drawn at random, the other suffix moduli
    uniformly in [EVAL_RHO_MIN * rho, rho]; single arguments may therefore
    exceed modulus 1 while every suffix product stays inside the domain.
    """
    top = rng.randrange(depth)
    suffix = [rho if k == top else rng.uniform(EVAL_RHO_MIN * rho, rho) for k in range(depth)]
    moduli = [suffix[k] / suffix[k + 1] for k in range(depth - 1)] + [suffix[-1]]
    return tuple(m * cmath.exp(2j * math.pi * rng.random()) for m in moduli)


class Eval:
    name = "eval"
    fixed_artifacts = False  # emits no artifacts

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        numeval.eval_li(numeval.EvalRequest(numeval.Composition((2, 1)), (0.5, 0.5), EVAL_TARGET))

    def inputs(self, index: int) -> list:
        """EVAL_CALLS / 3 requests of each depth 1, 2, 3, in seeded order.

        Within each depth the largest suffix modulus is stratified over
        [EVAL_RHO_MIN, EVAL_RHO_MAX] (one draw per stratum) and the
        composition is drawn uniformly from those of weight <= 12, so every
        seed has the same cost profile.
        """
        rng = _rng(self.seed, index, self.name)
        per_depth = EVAL_CALLS // 3
        reqs = []
        for depth in (1, 2, 3):
            span = EVAL_RHO_MAX - EVAL_RHO_MIN
            for i in range(per_depth):
                rho = EVAL_RHO_MIN + span * (i + rng.random()) / per_depth
                parts = rng.choice(EVAL_COMPOSITIONS[depth])
                reqs.append(
                    numeval.EvalRequest(
                        numeval.Composition(parts), _eval_args(rng, depth, rho), EVAL_TARGET
                    )
                )
        rng.shuffle(reqs)
        return reqs

    def run_pass(self, reqs) -> PassResult:
        out = PassResult()
        clock = time.perf_counter
        for req in reqs:
            t0 = clock()
            try:
                res = numeval.eval_li(req)
            except Exception as exc:  # any exception is a failed operation
                out.op_seconds.append(clock() - t0)
                out.failures.append(f"eval_li{req.indices}{req.args}: {exc!r}")
                continue
            out.op_seconds.append(clock() - t0)
            out.evals.append((req, res))
        return out


WORKLOADS = {w.name: w for w in (Reduce44, Preimage, Eval)}
