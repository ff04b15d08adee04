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

The discarded mass past a cutoff M is bounded in closed form.  A chain
0 < m_1 < ... < m_d = m contributes at most rho^m / prod m_k^{n_k} in
modulus (rewrite the term through the suffix products b_k), so the chains
ending at m weigh at most rho^m m^{-n_d} prod_{k<d} H_{m-1}^{(n_k)} <= t(m),

    t(m) = C * L(m)^j * m^{-n_d} * rho^m,    L(m) = 1 + ln m,

with j the number of inner parts equal to 1 and C = prod n_k/(n_k - 1) over
the inner parts n_k >= 2 (H^{(1)}_{m-1} <= L(m), H^{(n)} <= zeta(n) <=
n/(n-1)).  The term ratio is at most r(m) = rho * (L(m+1)/L(m))^j, which
decreases in m, so the tail past M is at most t(M+1) / (1 - r(M+1)).  The
bound is evaluated in the log domain and is infinite while r(M+1) >= 1.

The recurrence runs on numpy arrays, one row per depth level and one column
per point, when there are two or more points.  A single point runs it on
Python complex scalars instead, because at one column the cost of each
numpy ufunc call is almost all dispatch overhead.

Every evaluation, eval_li's single point and symalg.eval_expr_batch's
composition groups alike, goes through one entry, `_eval_columns`.  It
applies the depth and weight caps and the suffix-product check
rho <= DEFAULT_RHO_MAX, takes Li_1 from its closed form -log(1 - x), and
sums every other series to one cutoff below DEFAULT_MAX_CUTOFF, so a factor
at a point has one value and one bound whichever path asks for it.
"""

from __future__ import annotations

import functools
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

_TINY = math.ulp(0.0)  # smallest positive double


class DivergentRequest(ValueError):
    """Arguments violate the suffix-product convergence condition."""


class CutoffOverflow(RuntimeError):
    """No cutoff up to DEFAULT_MAX_CUTOFF meets the error target."""


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


def suffix_moduli(args: Sequence[complex] | np.ndarray) -> np.ndarray:
    """|a_k * a_{k+1} * ... * a_d| for k = 1..d along axis 0 (in slot order).

    Takes one argument tuple or a (depth, npoints) matrix; the domain check
    of every evaluation uses this formula.
    """
    moduli = np.abs(np.asarray(args, dtype=np.complex128))
    return np.multiply.accumulate(moduli[::-1])[::-1]


@functools.lru_cache(maxsize=1024)
def _majorant(parts: tuple[int, ...]) -> tuple[int, float, int]:
    """(j, log C, n_d) of the tail majorant t(m) for these parts."""
    inner = parts[:-1]
    return inner.count(1), sum(math.log(n / (n - 1)) for n in inner if n > 1), parts[-1]


def _log_tail(parts: tuple[int, ...], rho: float, y: float) -> float:
    """log(t(y) / (1 - r(y))), the log bound on the mass at outermost index >= y."""
    j, log_c, last = _majorant(parts)
    log_y = math.log(y)
    r = rho * ((1.0 + math.log1p(y)) / (1.0 + log_y)) ** j
    if r >= 1.0:
        return math.inf
    return log_c + j * math.log1p(log_y) - last * log_y + y * math.log(rho) - math.log1p(-r)


def tail_bound(indices: Composition, suffix_rho: float, cutoff: int) -> float:
    """Certified upper bound on the series mass with outermost index > cutoff.

    The closed form t(M+1) / (1 - r(M+1)) of the module docstring, with the
    denominators kept; at depth 1 it is rho^(M+1) (M+1)^(-n) / (1 - rho).
    Infinite while the ratio bound r(M+1) is not below 1; at least the
    smallest positive double whenever rho > 0, so it never reads 0 on a
    positive tail.
    """
    rho = float(suffix_rho)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"suffix_rho must lie in [0, 1), got {rho}")
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    if rho == 0.0:
        return 0.0
    return max(math.exp(_log_tail(indices.parts, rho, cutoff + 1.0)), _TINY)


def choose_cutoff(indices: Composition, suffix_rho: float, target_error: float) -> int:
    """Smallest cutoff M <= DEFAULT_MAX_CUTOFF with tail_bound(M) <= target_error.

    Newton steps in u = log(M + 1) on the smooth log bound, started from the
    depth-1 inverse log(target (1 - rho)) / log(rho) and kept inside a
    bracket of the root (bisecting when a step leaves it), land at or next
    to the answer; tail_bound then confirms tail_bound(M) <= target <
    tail_bound(M - 1), which its monotonicity in M makes M the smallest.
    """
    if not (float(target_error) > 0.0):
        raise ValueError("target_error must be positive")
    rho = float(suffix_rho)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"suffix_rho must lie in [0, 1), got {rho}")
    if rho == 0.0:
        return 1
    parts, log_rho, log_target = indices.parts, math.log(rho), math.log(target_error)
    j, _, last = _majorant(parts)
    lo, hi = 0.0, math.log(DEFAULT_MAX_CUTOFF + 1.0)
    u = min(math.log(max(2.0, (log_target + math.log1p(-rho)) / log_rho)), hi)
    for _ in range(64):
        y = math.exp(u)
        h = _log_tail(parts, rho, y) - log_target
        lo, hi = (u, hi) if h > 0.0 else (lo, u)
        slope = j / (1.0 + u) - last + y * log_rho  # dh/du with the ratio held fixed
        step = u - h / slope if h < math.inf and slope < 0.0 else hi
        u, prev = (step if lo < step < hi else 0.5 * (lo + hi)), u
        if abs(u - prev) * y < 0.5:
            break
    cutoff = min(max(1, math.ceil(math.exp(u)) - 1), DEFAULT_MAX_CUTOFF)
    while (bound := tail_bound(indices, rho, cutoff)) > target_error:
        if cutoff >= DEFAULT_MAX_CUTOFF:
            raise CutoffOverflow(
                f"tail bound {bound:.3e} exceeds target {target_error:.3e} "
                f"at the cutoff ceiling {DEFAULT_MAX_CUTOFF}"
            )
        cutoff += 1
    while cutoff > 1 and tail_bound(indices, rho, cutoff - 1) <= target_error:
        cutoff -= 1
    return cutoff


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

    if npts == 1:
        col = a[:, 0].tolist()
        bs = [0j] * (d + 1) + [1.0 + 0.0j]  # bs[k] = a_k * ... * a_d; bs[d+1] = 1
        for k in range(d, 0, -1):
            bs[k] = col[k - 1] * bs[k + 1]
        cs = [1.0 + 0.0j] + [0.0j] * d  # C_0(0) = 1
        for m in range(1, cutoff + 1):
            fm = float(m)
            for k in range(d, 0, -1):
                scale = 1.0 / fm ** parts[k - 1]
                cs[k] = cs[k] * bs[k + 1] + bs[k] * scale * cs[k - 1]
            cs[0] *= bs[1]
        return np.array([cs[d]], dtype=np.complex128)

    # b[k] = a_k * ... * a_d per point; b[d+1] = 1
    b = np.ones((d + 2, npts), dtype=np.complex128)
    for k in range(d, 0, -1):
        b[k] = a[k - 1] * b[k + 1]

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


def _eval_columns(
    indices: Composition, argmat: np.ndarray, target_error: float
) -> tuple[np.ndarray, float, int]:
    """Li_indices at every column of a (depth, ncols) argument matrix.

    Returns (values, tail bound, cutoff).  Every column must pass the caps
    and the suffix-product check; a DivergentRequest carries the index of
    the first failing column as `column`.  Li_1 is the closed form -log(1-x)
    (principal branch, bound 0, cutoff 1).  Any other composition is summed
    at one cutoff chosen from the largest suffix modulus of all columns;
    tail_bound increases with that modulus, so the bound holds for each.
    """
    if indices.depth > DEPTH_CAP:
        raise ValueError(f"depth {indices.depth} above cap {DEPTH_CAP}")
    if indices.weight > WEIGHT_CAP:
        raise ValueError(f"weight {indices.weight} above cap {WEIGHT_CAP}")
    moduli = suffix_moduli(argmat)
    rho = float(moduli.max(initial=0.0))
    if not rho <= DEFAULT_RHO_MAX:  # NaN fails too
        column = int(np.argmax((~(moduli <= DEFAULT_RHO_MAX)).any(axis=0)))
        k = int(np.argmax(moduli[:, column]))
        err = DivergentRequest(
            f"suffix product |a_{k + 1}...a_{indices.depth}| = "
            f"{moduli[k, column]:.6g} exceeds rho_max = {DEFAULT_RHO_MAX}"
        )
        err.column = column
        raise err
    if indices.parts == (1,):
        return -np.log(1.0 - argmat[0]), 0.0, 1
    cutoff = choose_cutoff(indices, rho, target_error)
    values = series_value_batch(indices, argmat, cutoff)
    return values, tail_bound(indices, rho, cutoff), cutoff


def eval_li(req: EvalRequest) -> EvalResult:
    """Evaluate a multiple polylogarithm with |truth - value| <= tail_bound.

    The one-column call of the evaluation entry that symalg.eval_expr_batch
    also uses, so both return the same bits for the same factor, point and
    budget.  The weight-1 depth-1 case is the closed form -log(1-x)
    (principal branch), exact up to rounding, which avoids the slow
    geometric series near the convergence boundary.
    """
    values, bound, cutoff = _eval_columns(
        req.indices, np.array(req.args)[:, None], req.target_error
    )
    return EvalResult(complex(values[0]), bound, cutoff)


def eval_generating_series(
    x: complex,
    y: complex,
    t1: complex,
    t2: complex,
    target_error: float,
) -> EvalResult:
    """Evaluate sum_{m,n>0} x^m y^n / ((m - t1)(m + n - t2)).

    Requires |t1|, |t2| <= 1/2, so |m - t1| >= m (1 - |t1|) and
    |s - t2| >= s (1 - |t2|/2) on every diagonal s = m + n >= 2: the
    diagonals past the cutoff weigh at most bulge = 1/((1 - |t1|)(1 - |t2|/2))
    times the Li_{1,1} tail_bound at rho = max(|x|, |y|).  The double sum is
    folded over the diagonals, with the inner sum carried by a one-term
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
    bulge = 1.0 / ((1.0 - abs(t1)) * (1.0 - 0.5 * abs(t2)))
    pair = Composition((1, 1))
    cutoff = choose_cutoff(pair, rho, float(target_error) / bulge)
    total = 0.0j
    inner = 0.0j  # A(s) = sum_{m<s} x^m y^{s-m} / (m - t1)
    xpow = 1.0 + 0.0j
    for s in range(2, cutoff + 1):
        inner = y * inner + xpow * x * y / (s - 1 - t1)
        xpow *= x
        total += inner / (s - t2)
    return EvalResult(total, bulge * tail_bound(pair, rho, cutoff), cutoff)
