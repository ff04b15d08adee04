"""Truncated-series evaluation of multiple polylogarithms with certified tails.

The nested sum over 0 < m_1 < ... < m_d <= M is computed by an iterated
prefix-sum recurrence whose cost is linear in M per depth level.  To keep
every intermediate quantity bounded even when an individual argument has
modulus above 1, the recurrence is carried in suffix-scaled form: with
b_k = a_k * a_{k+1} * ... * a_d it tracks

    C_k(m) = b_{k+1}^m * sum_{m' <= m} W_k(m'),

where W_k(m) is the mass of all chains of length k ending at m.  Every
C_k(m) is bounded by binom(m-1, k-1) * rho^m * m for rho the largest
suffix-product modulus, so evaluation is stable whenever rho < 1.

The discarded mass past a cutoff M is bounded by the majorant

    sum_{m > M} binom(m-1, d-1) * rho^m

because each chain with outermost index m contributes at most rho^m in
modulus (rewrite the term through the suffix products b_k).  The bound is
evaluated by summing the leading terms and closing with a geometric tail
once the term ratio rho*m/(m-d+1) has dropped safely below 1.

The recurrence runs on numpy arrays, one row per depth level and one column
per point, when there are two or more points.  A single point runs it on
Python complex scalars instead, because at one column the cost of each
numpy ufunc call is almost all dispatch overhead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Composition",
    "CutoffOverflow",
    "DEFAULT_MAX_CUTOFF",
    "DEFAULT_RHO_MAX",
    "DivergentRequest",
    "EvalRequest",
    "EvalResult",
    "PoleProximity",
    "choose_cutoff",
    "eval_generating_series",
    "eval_li",
    "series_value",
    "series_value_batch",
    "suffix_moduli",
    "tail_bound",
]

DEFAULT_RHO_MAX = 0.99
DEFAULT_MAX_CUTOFF = 10**6

# Desk-scale caps; beyond these the double format and the cutoff ceiling
# give no useful accuracy guarantees.
DEPTH_CAP = 4
WEIGHT_CAP = 12


class DivergentRequest(ValueError):
    """Arguments violate the suffix-product convergence condition."""


class CutoffOverflow(RuntimeError):
    """No cutoff below the configured ceiling meets the error target."""


class PoleProximity(ValueError):
    """Shift parameters would let a series denominator approach zero."""


@dataclass(frozen=True)
class Composition:
    """Index tuple (n_1, ..., n_d): weight is the sum, depth the length."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("composition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"composition parts must be positive, got {parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation task: indices, complex arguments, absolute error target."""

    indices: Composition
    args: tuple[complex, ...]
    target_error: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(complex(a) for a in self.args))
        if len(self.args) != self.indices.depth:
            raise ValueError(
                f"got {len(self.args)} arguments for depth {self.indices.depth}"
            )
        if not (float(self.target_error) > 0.0):
            raise ValueError("target_error must be positive")
        object.__setattr__(self, "target_error", float(self.target_error))


@dataclass(frozen=True)
class EvalResult:
    value: complex
    tail_bound: float
    cutoff: int


def suffix_moduli(args: Sequence[complex]) -> list[float]:
    """|a_k * a_{k+1} * ... * a_d| for k = 1..d (in slot order)."""
    out: list[float] = []
    acc = 1.0
    for a in reversed(list(args)):
        acc *= abs(complex(a))
        out.append(acc)
    out.reverse()
    return out


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def tail_bound(indices: Composition, suffix_rho: float, cutoff: int) -> float:
    """Certified upper bound on the series mass with outermost index > cutoff.

    Exact geometric tail rho^(M+1)/(1-rho) at depth 1; at higher depth the
    leading terms of binom(m-1,d-1)*rho^m are summed until the term ratio
    falls below (1+rho)/2, then a geometric majorant closes the tail.
    """
    d = indices.depth
    rho = float(suffix_rho)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"suffix_rho must lie in [0, 1), got {rho}")
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    if rho == 0.0:
        return 0.0
    m = max(cutoff + 1, d)  # first index that can carry a nonzero term
    if _log_comb(m - 1, d - 1) + m * math.log(rho) < -720.0:
        # Leading term underflows double precision; the whole tail is far
        # below any representable target, certify it with a crude constant.
        return 1e-300
    r_star = 0.5 * (1.0 + rho)
    term = math.comb(m - 1, d - 1) * rho**m
    total = 0.0
    while rho * m / (m - d + 1) > r_star:
        total += term
        term *= rho * m / (m - d + 1)
        m += 1
    # ratios rho*j/(j-d+1) decrease in j, so from index m onward the terms
    # are dominated by the geometric series with the current ratio
    return total + term / (1.0 - rho * m / (m - d + 1))


def choose_cutoff(
    indices: Composition,
    suffix_rho: float,
    target_error: float,
    *,
    max_cutoff: int = DEFAULT_MAX_CUTOFF,
) -> int:
    """Smallest cutoff whose tail bound meets the target (doubling + bisection)."""
    if not (float(target_error) > 0.0):
        raise ValueError("target_error must be positive")
    rho = float(suffix_rho)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"suffix_rho must lie in [0, 1), got {rho}")
    if rho == 0.0:
        return 1
    if tail_bound(indices, rho, 1) <= target_error:
        return 1
    lo, hi = 1, 2
    while tail_bound(indices, rho, hi) > target_error:
        if hi >= max_cutoff:
            raise CutoffOverflow(
                f"tail bound {tail_bound(indices, rho, max_cutoff):.3e} exceeds "
                f"target {target_error:.3e} at the cutoff ceiling {max_cutoff}"
            )
        lo, hi = hi, min(2 * hi, max_cutoff)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_bound(indices, rho, mid) <= target_error:
            hi = mid
        else:
            lo = mid
    return hi


def series_value_batch(
    indices: Composition, args: np.ndarray, cutoff: int
) -> np.ndarray:
    """Truncated nested sum for a (depth, npoints) argument matrix.

    Returns the length-npoints vector of partial sums up to the cutoff,
    running the suffix-scaled prefix-sum recurrence at every point at once.
    A single column runs the same recurrence, in the same operation order,
    on Python complex scalars: at one point each numpy ufunc call costs
    its dispatch overhead and almost no arithmetic, so the scalar loop is
    faster there.  Two or more columns run on numpy.
    """
    parts = indices.parts
    d = len(parts)
    a = np.asarray(args, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != d:
        raise ValueError(f"argument matrix must have shape ({d}, npoints)")
    npts = a.shape[1]
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")

    # b[k] = a_k * ... * a_d per point; b[d+1] = 1
    b = np.ones((d + 2, npts), dtype=np.complex128)
    for k in range(d, 0, -1):
        b[k] = a[k - 1] * b[k + 1]

    if npts == 1:
        bs = b[:, 0].tolist()
        cs = [1.0 + 0.0j] + [0.0j] * d  # C_0(0) = 1
        for m in range(1, cutoff + 1):
            fm = float(m)
            for k in range(d, 0, -1):
                scale = 1.0 / fm ** parts[k - 1]
                cs[k] = cs[k] * bs[k + 1] + bs[k] * scale * cs[k - 1]
            cs[0] *= bs[1]
        return np.array([cs[d]], dtype=np.complex128)

    c = np.zeros((d + 1, npts), dtype=np.complex128)
    c[0] = 1.0  # C_0(0)
    scratch = np.empty(npts, dtype=np.complex128)
    for m in range(1, cutoff + 1):
        fm = float(m)
        for k in range(d, 0, -1):
            # C_k(m) = b_{k+1} C_k(m-1) + (b_k / m^{n_k}) C_{k-1}(m-1)
            np.multiply(b[k], 1.0 / fm ** parts[k - 1], out=scratch)
            scratch *= c[k - 1]
            np.multiply(c[k], b[k + 1], out=c[k])
            c[k] += scratch
        c[0] *= b[1]
    return c[d].copy()


def series_value(
    indices: Composition, args: Sequence[complex], cutoff: int
) -> complex:
    """Truncated nested sum at a single point (no closed forms, no bounds)."""
    a = np.asarray([complex(v) for v in args], dtype=np.complex128)
    return complex(series_value_batch(indices, a[:, None], cutoff)[0])


def _check_caps(indices: Composition) -> None:
    if indices.depth > DEPTH_CAP:
        raise ValueError(f"depth {indices.depth} above cap {DEPTH_CAP}")
    if indices.weight > WEIGHT_CAP:
        raise ValueError(f"weight {indices.weight} above cap {WEIGHT_CAP}")


def eval_li(
    req: EvalRequest,
    *,
    rho_max: float = DEFAULT_RHO_MAX,
    max_cutoff: int = DEFAULT_MAX_CUTOFF,
) -> EvalResult:
    """Evaluate a multiple polylogarithm with |truth - value| <= tail_bound.

    The weight-1 depth-1 case is returned in closed form -log(1-x)
    (principal branch), which is exact up to rounding and avoids the slow
    geometric series near the convergence boundary.
    """
    _check_caps(req.indices)
    moduli = suffix_moduli(req.args)
    rho = max(moduli)
    if rho > rho_max:
        k = moduli.index(rho) + 1
        raise DivergentRequest(
            f"suffix product |a_{k}...a_{req.indices.depth}| = {rho:.6g} "
            f"exceeds rho_max = {rho_max}"
        )
    if req.indices.parts == (1,):
        value = -cmath.log(1.0 - req.args[0])
        return EvalResult(value, 0.0, 1)
    cutoff = choose_cutoff(
        req.indices, rho, req.target_error, max_cutoff=max_cutoff
    )
    value = series_value(req.indices, req.args, cutoff)
    return EvalResult(value, tail_bound(req.indices, rho, cutoff), cutoff)


def eval_generating_series(
    x: complex,
    y: complex,
    t1: complex,
    t2: complex,
    target_error: float,
    *,
    max_cutoff: int = DEFAULT_MAX_CUTOFF,
) -> EvalResult:
    """Evaluate sum_{m,n>0} x^m y^n / ((m - t1)(m + n - t2)).

    Requires |t1|, |t2| <= 1/2 so the denominators stay at least 1/2 away
    from zero for all admissible m, n.  The double sum is folded over
    diagonals s = m + n, with the inner sum carried by a one-term
    recurrence, so the cost is linear in the cutoff.
    """
    x, y, t1, t2 = complex(x), complex(y), complex(t1), complex(t2)
    if not (float(target_error) > 0.0):
        raise ValueError("target_error must be positive")
    if abs(t1) > 0.5 or abs(t2) > 0.5:
        raise PoleProximity(
            f"|t1| = {abs(t1):.4g}, |t2| = {abs(t2):.4g}; both must be <= 1/2"
        )
    rho = max(abs(x), abs(y))
    if rho >= 1.0:
        raise DivergentRequest(f"need |x| < 1 and |y| < 1, got max modulus {rho:.6g}")
    if x == 0 or y == 0:
        return EvalResult(0.0j, 0.0, 1)
    # |1/((m - t1)(m + n - t2))| <= bulge uniformly over m, n >= 1
    bulge = 1.0 / ((1.0 - abs(t1)) * (2.0 - abs(t2)))
    pair = Composition((1, 1))  # diagonal count matches the depth-2 majorant
    cutoff = choose_cutoff(pair, rho, float(target_error) / bulge, max_cutoff=max_cutoff)
    total = 0.0j
    inner = 0.0j  # A(s) = sum_{m<s} x^m y^{s-m} / (m - t1)
    xpow = 1.0 + 0.0j
    for s in range(2, cutoff + 1):
        inner = y * inner + xpow * x * y / (s - 1 - t1)
        xpow *= x
        total += inner / (s - t2)
    return EvalResult(total, bulge * tail_bound(pair, rho, cutoff), cutoff)
