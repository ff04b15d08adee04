"""Seeded randomized numerical verification of identities.

Residuals are measured relative to the evaluated mass of the identity, the
scale of the rounding in its two sides.  eval_expr_batch sums each full
root-of-unity orbit as one series first, so the mass of an orbit is
|coefficient x orbit value|, not the sum of its terms' moduli: a generated
reduction's orbits cancel inside their series, and its mass stays below
1e5 up to weight 12, where the term-by-term mass reached 1e17.
Sampling is deterministic from the plan seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .symalg import DEFAULT_RHO_MAX, BudgetUnderflow, Identity, _exact_float, _require_ints

__all__ = [
    "ConvergenceViolation",
    "PointRecord",
    "VerificationPlan",
    "VerificationReport",
    "check_convergence",
    "sample_points",
    "verify_identity",
]

MIN_MODULUS = 0.05  # sampled values stay away from degenerate smallness


class ConvergenceViolation(ValueError):
    """A factor's suffix product cannot be bounded below 1 on the sample
    domain, so series evaluation would not be certified."""


@dataclass(frozen=True)
class VerificationPlan:
    seed: int = 42
    point_count: int = 20
    radius: float = 0.7
    tolerance: float = 1e-9
    allow_complex: bool = True

    def __post_init__(self) -> None:
        _require_ints(seed=self.seed, point_count=self.point_count)
        for name in ("radius", "tolerance"):
            if type(v := getattr(self, name)) is bool or not isinstance(v, (int, float)):
                raise ValueError(f"{name} must be a real number, got {v!r}")
        # sample_points rejects moduli below MIN_MODULUS, so it needs room above it
        if not 2 * MIN_MODULUS <= self.radius < 1.0:
            raise ValueError(f"radius must lie in [{2 * MIN_MODULUS}, 1)")
        if self.point_count < 1:
            raise ValueError("point_count must be positive")
        if not 0.0 < self.tolerance < float("inf"):  # an infinite one would pass any identity
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class PointRecord:
    """One sample point.  l1_mass is the orbit mass of both sides: the sum of
    |coefficient x orbit value| over their full root-of-unity orbits plus,
    over their other terms, |coefficient| times the product of the factor
    moduli; relative_residual = residual / max(1, l1_mass)."""

    assignment: dict[str, complex]
    lhs: complex
    rhs: complex
    residual: float
    l1_mass: float
    relative_residual: float


@dataclass(frozen=True)
class VerificationReport:
    plan: VerificationPlan
    points: tuple[PointRecord, ...]
    max_relative_residual: float
    passed: bool


def sample_points(
    plan: VerificationPlan, variables: Sequence[str] | frozenset[str]
) -> list[dict[str, complex]]:
    """Deterministic sample: each variable uniform in the disc (or interval)
    of the plan radius, rejecting moduli below MIN_MODULUS."""
    rng = random.Random(plan.seed)
    names = sorted(variables)
    points = []
    for _ in range(plan.point_count):
        assignment: dict[str, complex] = {}
        for name in names:
            while True:
                re = rng.uniform(-plan.radius, plan.radius)
                im = rng.uniform(-plan.radius, plan.radius) if plan.allow_complex else 0.0
                v = complex(re, im)
                if MIN_MODULUS <= abs(v) <= plan.radius:
                    break
            assignment[name] = v
        points.append(assignment)
    return points


def check_convergence(identity: Identity, radius: float) -> None:
    """Structural pre-check of the suffix-product condition over the sample
    polydisc |v| <= radius.

    Every suffix product of every factor must be a monomial with nonnegative
    exponents and positive total degree; its supremum over the polydisc is
    then radius**degree, which must stay below DEFAULT_RHO_MAX.  Only the
    exponents of the arguments enter, so each exponent signature is checked
    once, at the first factor that has it.
    """
    checked = set()
    for side_name, side in (("lhs", identity.lhs), ("rhs", identity.rhs)):
        for term in side.terms:
            for factor in term.factors:
                signature = tuple(a._k[2] for a in factor.args)  # the exponents' key
                if signature in checked:
                    continue
                checked.add(signature)
                suffix: dict[str, Fraction] = {}
                for k in range(factor.depth, 0, -1):
                    for v, e in factor.args[k - 1].exponents:
                        suffix[v] = suffix.get(v, Fraction(0)) + e
                    negative = [v for v, e in suffix.items() if e < 0]
                    total = sum(suffix.values(), Fraction(0))
                    if negative:
                        raise ConvergenceViolation(
                            f"{side_name} factor {factor}: suffix product from "
                            f"slot {k} has negative exponent in {negative}"
                        )
                    if total == 0:
                        raise ConvergenceViolation(
                            f"{side_name} factor {factor}: suffix product from "
                            f"slot {k} has modulus 1"
                        )
                    largest = max(suffix, key=lambda v: abs(suffix[v]))
                    what = "exponent of {} in the {} suffix product from slot {}"
                    sup = radius ** _exact_float(total, what, largest, side_name, k)
                    if sup > DEFAULT_RHO_MAX:
                        raise ConvergenceViolation(
                            f"{side_name} factor {factor}: suffix product from "
                            f"slot {k} reaches {sup:.4g} "
                            f"> rho_max = {DEFAULT_RHO_MAX} on the radius-{radius} disc"
                        )


def verify_identity(identity: Identity, plan: VerificationPlan) -> VerificationReport:
    """Evaluate lhs - rhs at the plan's sample points.

    relative residual = |lhs - rhs| / max(1, orbit mass of both sides); the
    evaluation truncation budget is tolerance / 1000 per side, so certified
    truncation error shows neither in the check nor in a residual compared
    with |lhs| down to 1e-3 of the mass scale.
    """
    from .numeval import eval_expr_batch  # here, so that importing verify loads no numpy

    check_convergence(identity, plan.radius)
    points = sample_points(plan, identity.variables)
    eval_target = plan.tolerance / 1000.0
    try:
        lhs_vals, lhs_mass = eval_expr_batch(identity.lhs, points, eval_target)
        rhs_vals, rhs_mass = eval_expr_batch(identity.rhs, points, eval_target)
    except BudgetUnderflow as exc:
        raise ValueError(f"tolerance {plan.tolerance:.3g} is too small: {exc}") from None
    records = []
    max_rel = 0.0
    for i, assignment in enumerate(points):
        lv, rv = complex(lhs_vals[i]), complex(rhs_vals[i])
        mass = float(lhs_mass[i] + rhs_mass[i])
        residual = abs(lv - rv)
        rel = residual / max(1.0, mass)
        max_rel = max(max_rel, rel)
        records.append(
            PointRecord(dict(assignment), lv, rv, residual, mass, rel)
        )
    return VerificationReport(
        plan=plan,
        points=tuple(records),
        max_relative_residual=max_rel,
        passed=max_rel <= plan.tolerance,
    )
