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

The recurrence rounds one way at every width: as the generic level loop
does on Python complex scalars (tests/_oracles.py keeps it as the
reference), so a column's value has the same bits alone as in any group.
A narrow group runs it one column at a time, on scalars: one straight-line
loop per depth 1-4 with the levels in local variables.  A group of at least
64 columns x depth, or deeper than DEPTH_CAP, runs every column at once on
float64 rows of real and imaginary parts, each complex product spelled out
as its float products and sums in the order Python rounds them; numpy's own
complex product fuses a multiply and an add on SIMD lanes and would round
otherwise.  1/m^n comes from a per-index array("d") of inverse powers,
_INV_POWERS[n], which grows in place to the largest cutoff asked of it and
is never rebuilt; every entry is 1.0 / float(m) ** n.

Every evaluation, eval_li's single point and eval_expr_batch's composition
groups alike, goes through one entry, `_eval_columns`, on one argument tuple
per column.  It applies the depth and weight caps and the check rho <=
DEFAULT_RHO_MAX on suffix_moduli (Python's abs, multiplied from the last
slot), takes Li_1 from its closed form -log(1 - x), one cmath.log per
column, and sums every other series below DEFAULT_MAX_CUTOFF to one cutoff
per call: that of the largest suffix modulus over all its columns.  The
tail bound grows with rho, so that cutoff certifies every column on its
own, as the per-sum error analysis of Vollinga and Weinzierl (CPC 167
(2005) 177) allows.  At one cutoff a factor has the same bits from eval_li
as from a group of any width; one point runs on Python scalars throughout.

A full root-of-unity orbit of Li_{a,b} terms, whose suffix values run over
mu_N1 x mu_N2 times (w1, w2), is summed as one series instead: the roots
keep only the indices m1 = N1 q1 and m2 - m1 = N2 q2, so the orbit is
N1 N2 times a double sum over q1, q2 >= 1 in W_k = w_k^N_k (Goncharov's
distribution relation, at depth 2).  `_orbit_series` sums it as one matrix
product per block of q1, with a closed-form tail geometric in q1 and in q2;
eval_expr_batch applies the suffix-product check to the w_k first.

The module owns every float path, eval_expr_batch and the monomial values
behind ArgMonomial.instantiate included, and is the one that imports numpy,
in each function that builds an array: `mplkit eval` loads none.
Composition, the caps, the constants and the evaluation errors are symalg's,
re-exported here.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
import threading
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # the annotations' np; the code imports numpy where it builds arrays
    import numpy as np

from .symalg import (  # the shared vocabulary (re-exported), then the exact types
    DEFAULT_MAX_CUTOFF, DEFAULT_RHO_MAX, DEPTH_CAP, WEIGHT_CAP, Composition, CutoffOverflow,
    DivergentRequest, ArgMonomial, BudgetUnderflow, Expr, MPLFactor, Term, UnboundVariable,
    ZeroBase, _exact_float, root_orbits,
)

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
    "eval_expr",
    "eval_expr_batch",
    "eval_generating_series",
    "eval_li",
    "monomial_values",
    "series_value_batch",
    "suffix_moduli",
    "tail_bound",
]

_TINY = math.ulp(0.0)  # smallest positive double


class PoleProximity(ValueError):
    """Shift parameters would let a series denominator approach zero."""


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


def suffix_moduli(args: Sequence[complex] | np.ndarray) -> list[float] | np.ndarray:
    """|a_k * a_{k+1} * ... * a_d| for k = 1..d, in slot order: Python's abs
    of each argument, multiplied as a running product from the last slot; a
    list of floats for one argument tuple, a (depth, npoints) array of each
    column's for a matrix.  The domain check of every evaluation reads it."""
    if getattr(args, "ndim", 1) == 2:
        import numpy as np
        return np.array([suffix_moduli(col) for col in args.T.tolist()]).reshape(-1, len(args)).T
    running, moduli = 1.0, []
    for a in reversed(args):
        running *= abs(a)
        moduli.append(running)
    return moduli[::-1]


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


def _is_count(v) -> bool:  # an int or a numpy integer, not a bool: a cutoff that can exist
    # int first: the Integral check runs through ABCMeta, ten times slower
    return not isinstance(v, bool) and (isinstance(v, int) or isinstance(v, numbers.Integral))


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
    if not (_is_count(cutoff) and cutoff >= 1):
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
    return _cutoff_and_bound(indices, float(suffix_rho), target_error, DEFAULT_MAX_CUTOFF)[0]


@functools.lru_cache(maxsize=1)
def _cutoff_and_bound(indices: Composition, rho: float, target_error: float, ceiling: int):
    """choose_cutoff below ceiling and the bound its confirming probe computed;
    the last answer is kept (keyed on the ceiling too) for choose_cutoff's callers."""
    if not (float(target_error) > 0.0):
        raise ValueError("target_error must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"suffix_rho must lie in [0, 1), got {rho}")
    if rho == 0.0:
        return 1, 0.0
    parts, log_rho = indices.parts, math.log(rho)
    # exp rounds a subnormal bound to the nearest double, so the root sits at
    # log(target + TINY/2); TINY / target / 2 does not underflow as 0.5 * TINY does
    log_target = math.log(target_error) + math.log1p(_TINY / target_error / 2)
    j, _, last = _majorant(parts)
    lo, hi = 0.0, math.log(ceiling + 1.0)
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
    cutoff = min(max(1, math.ceil(math.exp(u)) - 1), ceiling)
    while (bound := tail_bound(indices, rho, cutoff)) > target_error:
        if cutoff >= ceiling:
            raise CutoffOverflow(
                f"tail bound {bound:.3e} exceeds target {target_error:.3e} "
                f"at the cutoff ceiling {ceiling}"
            )
        cutoff += 1
    while cutoff > 1 and (below := tail_bound(indices, rho, cutoff - 1)) <= target_error:
        cutoff, bound = cutoff - 1, below
    return cutoff, bound


_PAIR_LEVELS = 64  # columns x depth from which _pair_series outruns the scalar loop
_FLOAT_AS_COMPLEX = sys.version_info < (3, 14)  # complex * float, see _pair_series
_INV_POWERS: dict[int, array] = {}  # n -> 1/m^n at position m - 1, m = 1, 2, ...
_INV_POWERS_GROWING = threading.Lock()


def _inv_powers(n: int, cutoff: int) -> array:
    """1/m^n for m = 1..cutoff, each computed as 1.0 / float(m) ** n: a copy of
    the front of the table _INV_POWERS[n], which first grows in place to the
    cutoff when it is shorter."""
    table = _INV_POWERS.get(n)
    if table is None or len(table) < cutoff:
        with _INV_POWERS_GROWING:
            table = _INV_POWERS.setdefault(n, array("d"))
            table.extend(1.0 / float(m) ** n for m in range(len(table) + 1, cutoff + 1))
    return table[:cutoff]


def _scalar_series(parts: tuple[int, ...], col: list[complex], cutoff: int) -> complex:
    """The recurrence of series_value_batch at one column, depth 1-4, on
    Python complex scalars: one straight-line loop per depth, the levels in
    local variables and 1/m^n read from the inverse-power tables.  Each step
    runs C_k = C_k b_{k+1} + (b_k / m^{n_k}) C_{k-1} from the top level down,
    b_{d+1} = 1 + 0j multiplied in as well, then C_0 *= b_1: the operation
    order of the generic level loop (tests/_oracles.py keeps it as the
    reference), so the bits are its bits."""
    one = 1.0 + 0.0j
    inv = [_inv_powers(n, cutoff) for n in parts]
    d = len(parts)
    if d == 1:
        b1 = col[0] * one
        c0, c1 = one, 0.0j
        for s1 in inv[0]:
            c1 = c1 * one + b1 * s1 * c0
            c0 *= b1
        return c1
    if d == 2:
        b2 = col[1] * one
        b1 = col[0] * b2
        c0, c1, c2 = one, 0.0j, 0.0j
        for s1, s2 in zip(*inv):
            c2 = c2 * one + b2 * s2 * c1
            c1 = c1 * b2 + b1 * s1 * c0
            c0 *= b1
        return c2
    if d == 3:
        b3 = col[2] * one
        b2 = col[1] * b3
        b1 = col[0] * b2
        c0, c1, c2, c3 = one, 0.0j, 0.0j, 0.0j
        for s1, s2, s3 in zip(*inv):
            c3 = c3 * one + b3 * s3 * c2
            c2 = c2 * b3 + b2 * s2 * c1
            c1 = c1 * b2 + b1 * s1 * c0
            c0 *= b1
        return c3
    b4 = col[3] * one
    b3 = col[2] * b4
    b2 = col[1] * b3
    b1 = col[0] * b2
    c0, c1, c2, c3, c4 = one, 0.0j, 0.0j, 0.0j, 0.0j
    for s1, s2, s3, s4 in zip(*inv):
        c4 = c4 * one + b4 * s4 * c3
        c3 = c3 * b4 + b3 * s3 * c2
        c2 = c2 * b3 + b2 * s2 * c1
        c1 = c1 * b2 + b1 * s1 * c0
        c0 *= b1
    return c4


def _pair_series(parts: tuple[int, ...], columns: list, cutoff: int) -> np.ndarray:
    """The recurrence of _scalar_series on every argument tuple of columns at
    once, on flat float64 rows of real and imaginary parts, one block of
    ncols per level.  Each complex operation is written out as Python's
    complex arithmetic computes it, every float product and sum rounded on
    its own, so each column has the bits of _scalar_series at that column
    (numpy's complex product fuses a multiply and an add on SIMD lanes, and
    its bits differ).  Every level reads the previous step's values, as the
    top-down scalar loop does, so one step is the same nineteen ufunc calls
    whatever the depth."""
    import numpy as np

    d, n = len(parts), len(columns)
    a = np.array(columns, dtype=np.complex128).reshape(n, d).T
    br, bi = np.ones((d + 1, n)), np.zeros((d + 1, n))  # b_{k+1} at row k, b_{d+1} = 1
    for k in range(d - 1, -1, -1):
        xr, xi = a[k].real, a[k].imag
        br[k] = xr * br[k + 1] - xi * bi[k + 1]
        bi[k] = xr * bi[k + 1] + xi * br[k + 1]
    br, bi = br.ravel(), bi.ravel()
    lr, li = br[: d * n], bi[: d * n]  # b_k in block k - 1
    # b_k * (1/m^n): before Python 3.14 the float joins as 1/m^n + 0j, which
    # adds -(b_im * 0.0) to the real and b_re * 0.0 to the imaginary product;
    # from 3.14 it multiplies each part alone, and x + (-0.0) is x
    zr, zi = (-(li * 0.0), lr * 0.0) if _FLOAT_AS_COMPLEX else (-0.0, -0.0)
    inv = np.stack([np.frombuffer(_inv_powers(p, cutoff)) for p in parts], axis=1)[:, :, None]
    cr, ci = np.zeros((d + 1) * n), np.zeros((d + 1) * n)  # C_0..C_d
    cr[:n] = 1.0
    pr, pi, t1, t2 = (np.empty((d + 1) * n) for _ in range(4))
    sf, sr, si, q1, q2 = (np.empty(d * n) for _ in range(5))
    mul, add, sub = np.multiply, np.add, np.subtract
    for s in inv:
        mul(cr, br, out=t1)  # C_k b_{k+1}, every level
        mul(ci, bi, out=t2)
        sub(t1, t2, out=pr)
        mul(cr, bi, out=t1)
        mul(ci, br, out=t2)
        add(t1, t2, out=pi)
        sf.reshape(d, n)[:] = s
        mul(lr, sf, out=sr)  # b_k / m^{n_k}
        add(sr, zr, out=sr)
        mul(li, sf, out=si)
        add(zi, si, out=si)
        lower_r, lower_i = cr[: d * n], ci[: d * n]  # C_{k-1}
        mul(sr, lower_r, out=q1)
        mul(si, lower_i, out=q2)
        sub(q1, q2, out=q1)
        add(pr[n:], q1, out=pr[n:])
        mul(sr, lower_i, out=q1)
        mul(si, lower_r, out=q2)
        add(q1, q2, out=q1)
        add(pi[n:], q1, out=pi[n:])
        cr, pr, ci, pi = pr, cr, pi, ci
    out = np.empty(n, dtype=np.complex128)
    out.real, out.imag = cr[d * n :], ci[d * n :]
    return out


def _kernel(parts: tuple[int, ...], columns: list, cutoff: int):
    """The series at each argument tuple of columns, same bits either way: _scalar_series
    on each below _PAIR_LEVELS columns x depth, else (or above DEPTH_CAP) _pair_series."""
    if len(columns) * len(parts) >= _PAIR_LEVELS or len(parts) > DEPTH_CAP:
        return _pair_series(parts, columns, cutoff)
    return [_scalar_series(parts, col, cutoff) for col in columns]


def series_value_batch(indices: Composition, args: np.ndarray, cutoff: int) -> np.ndarray:
    """Truncated nested sum for a (depth, npoints) argument matrix.

    Returns the length-npoints vector of partial sums to the cutoff: the
    suffix-scaled prefix-sum recurrence with the bits of the generic level
    loop at every column, so a column's value does not depend on the
    others; _kernel picks the kernel by width.  The cutoff must lie in [1,
    DEFAULT_MAX_CUTOFF], the ceiling of every evaluation, which also bounds
    the inverse-power tables.
    """
    import numpy as np

    parts = indices.parts
    d = len(parts)
    a = np.asarray(args, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != d:
        raise ValueError(f"argument matrix must have shape ({d}, npoints)")
    if not (_is_count(cutoff) and 1 <= cutoff <= DEFAULT_MAX_CUTOFF):
        raise ValueError(f"cutoff must be an integer in [1, {DEFAULT_MAX_CUTOFF}], got {cutoff}")
    return np.asarray(_kernel(parts, a.T.tolist(), cutoff), dtype=np.complex128)


def _check_moduli(columns: Sequence[Sequence[complex]]) -> float:
    """The largest suffix_moduli over argument tuples, none above DEFAULT_RHO_MAX;
    a DivergentRequest names the first failing column's largest (in full where
    6 digits would read as the bound) and carries the column's index as `column`."""
    peaks = [max(suffix_moduli(col)) for col in columns]  # a NaN runs to slot 1: max keeps it
    for column, peak in enumerate(peaks):
        if not peak <= DEFAULT_RHO_MAX:  # NaN fails too
            moduli = suffix_moduli(columns[column])
            shown = f"{peak:.6g}" if float(f"{peak:.6g}") > DEFAULT_RHO_MAX else repr(float(peak))
            err = DivergentRequest(
                f"suffix product |a_{moduli.index(max(moduli)) + 1}...a_{len(moduli)}| = "
                f"{shown} exceeds rho_max = {DEFAULT_RHO_MAX}"
            )
            err.column = column
            raise err
    return max(peaks, default=0.0)


def _eval_columns(
    indices: Composition, columns: Sequence[Sequence[complex]], target_error: float
) -> tuple[Sequence[complex], float, int]:
    """Li_indices at each argument tuple of columns, one tuple per column.

    Returns (values, tail bound, cutoff), the values in column order.  Every
    column must pass the caps and the check on its suffix_moduli; a
    DivergentRequest carries the index of the first failing column as
    `column`.  Li_1 is the closed form -log(1-x) (principal branch, bound 0,
    cutoff 1), one cmath.log per column.  Any other composition is summed to
    one cutoff, that of the largest suffix modulus over all columns: the tail
    bound grows with rho, so it certifies each column on its own.
    """
    if indices.depth > DEPTH_CAP:
        raise ValueError(f"depth {indices.depth} above cap {DEPTH_CAP}")
    if indices.weight > WEIGHT_CAP:
        raise ValueError(f"weight {indices.weight} above cap {WEIGHT_CAP}")
    top = _check_moduli(columns)
    if indices.parts == (1,):
        return [-cmath.log(1.0 - col[0]) for col in columns], 0.0, 1
    cutoff, bound = _cutoff_and_bound(indices, top, target_error, DEFAULT_MAX_CUTOFF)
    return _kernel(indices.parts, columns, cutoff), bound, cutoff


_ORBIT_BLOCK = 1 << 16  # entries of one block of the orbit series' denominator table


def _first_cutoff(log_bound, limit: float) -> int:
    """Smallest q >= 1 with log_bound(q) <= limit, for a decreasing log_bound
    that reaches the limit: doubling, then bisection."""
    hi = 1
    while log_bound(hi) > limit:
        if hi >= DEFAULT_MAX_CUTOFF:
            raise CutoffOverflow(
                f"orbit tail bound exceeds target {math.exp(limit):.3e} "
                f"at the cutoff ceiling {DEFAULT_MAX_CUTOFF}"
            )
        hi = min(2 * hi, DEFAULT_MAX_CUTOFF)
    lo = hi // 2  # 0, or a q whose bound is above the limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if log_bound(mid) <= limit else (mid, hi)
    return hi


def _orbit_series(
    parts: tuple[int, int], orders: tuple[int, int], powers: np.ndarray, target_error: float
) -> tuple[np.ndarray, float]:
    """sum_{q1,q2 >= 1} W1^q1 W2^q2 / ((N1 q1)^a (N1 q1 + N2 q2)^b) at every
    column of the (2, ncols) matrix of W_k; returns (values, tail bound).

    The depth-2 orbit sum over mu_N1 x mu_N2 in suffix coordinates, divided
    by N1 N2: the roots of unity keep only the indices m1 = N1 q1 and
    m2 - m1 = N2 q2 of Li_{a,b}.  With r_k the largest |W_k|, below 1, the
    terms past q1 = Q1 weigh at most
        A = r1^(Q1+1) / ((1 - r1) (N1 (Q1+1))^(a+b)) * r2 / (1 - r2),
    as N1 q1 + N2 q2 >= N1 q1, and those with q1 <= Q1 past q2 = Q2 at most
        B = r1 / ((1 - r1) N1^a) * r2^(Q2+1) / ((1 - r2) (N1 + N2 (Q2+1))^b);
    Q1 and Q2 are the smallest cutoffs with A and B each at most half the
    target.  The double sum is one matrix product per block of q1 against a
    (q1, q2) denominator table that holds no column axis.
    """
    import numpy as np

    (a, b), (n1, n2) = parts, orders
    if a + b > WEIGHT_CAP:
        raise ValueError(f"weight {a + b} above cap {WEIGHT_CAP}")
    ncols = powers.shape[1]
    r1, r2 = (float(r) for r in np.abs(powers).max(axis=1))
    if not (r1 < 1.0 and r2 < 1.0):
        raise DivergentRequest(f"orbit power moduli {r1:.6g}, {r2:.6g} not below 1")
    if r1 == 0.0 or r2 == 0.0:
        return np.zeros(ncols, dtype=np.complex128), 0.0
    log_r1, log_r2 = math.log(r1), math.log(r2)
    log_g1, log_g2 = log_r1 - math.log1p(-r1), log_r2 - math.log1p(-r2)  # log r/(1 - r)

    def log_a(q: int) -> float:
        return q * log_r1 + log_g1 - (a + b) * math.log(n1 * (q + 1)) + log_g2

    def log_b(q: int) -> float:
        return log_g1 - a * math.log(n1) + q * log_r2 + log_g2 - b * math.log(n1 + n2 * (q + 1))

    limit = math.log(target_error / 2.0)
    cut1, cut2 = _first_cutoff(log_a, limit), _first_cutoff(log_b, limit)
    bound = math.exp(log_a(cut1)) + math.exp(log_b(cut2))
    q1, q2 = np.arange(1, cut1 + 1), np.arange(1, cut2 + 1)
    left = np.cumprod(np.repeat(powers[0, :, None], cut1, axis=1), axis=1)
    left *= (n1 * q1).astype(float) ** -float(a)
    right = np.cumprod(np.repeat(powers[1, :, None], cut2, axis=1), axis=1)
    right = np.concatenate([right.real, right.imag])  # (2 ncols, Q2), for a real product
    values = np.zeros(ncols, dtype=np.complex128)
    block = max(1, _ORBIT_BLOCK // cut2)
    for start in range(0, cut1, block):
        rows = q1[start : start + block, None]
        inner = right @ ((n1 * rows + n2 * q2).astype(float) ** -float(b)).T
        inner = inner[:ncols] + 1j * inner[ncols:]
        values += (left[:, start : start + block] * inner).sum(axis=1)
    return values, bound


def eval_li(req: EvalRequest) -> EvalResult:
    """Evaluate a multiple polylogarithm with |truth - value| <= tail_bound.

    The one-column call of the evaluation entry that eval_expr_batch also
    uses: the same bits as the factor in a group there summed to the same
    cutoff, whatever the group's width.  The weight-1 depth-1 case is the
    closed form -log(1-x) (principal branch), exact up to rounding, which
    avoids the slow geometric series near the convergence boundary.
    """
    values, bound, cutoff = _eval_columns(req.indices, (req.args,), req.target_error)
    return EvalResult(values[0], bound, cutoff)


def monomial_values(
    monomials: Sequence[ArgMonomial], assignments: Sequence[Mapping[str, complex]]
) -> np.ndarray:
    """(monomials, points) matrix of exp(2 pi i phase + sum_v e_v log v).

    The principal branch of every fractional power, as exp turns the sum into
    the product.  cmath.log of each variable at each point is taken once;
    each variable's term is added, elementwise, only to the monomials that
    use it.  A bare variable (phase 0, exponent 1) is its value, not exp(log v).
    """
    import numpy as np

    names = sorted({v for m in monomials for v, _ in m.exponents})
    column = {v: i for i, v in enumerate(names)}
    exps = np.zeros((len(monomials), len(names)))
    for row, m in enumerate(monomials):
        for v, e in m.exponents:
            exps[row, column[v]] = _exact_float(e, "exponent of {} in an argument monomial", v)
    bases, logs = (np.empty((len(names), len(assignments)), dtype=np.complex128) for _ in range(2))
    for i, v in enumerate(names):
        for p, assignment in enumerate(assignments):
            try:
                base = complex(assignment[v])
            except KeyError:
                raise UnboundVariable(v) from None
            if base == 0:
                raise ZeroBase(f"variable {v} assigned zero")
            bases[i, p], logs[i, p] = base, cmath.log(base)
    phases = np.array([float(m.phase) for m in monomials])
    z = np.empty((len(monomials), len(assignments)), dtype=np.complex128)
    z[...] = (2j * math.pi * phases)[:, None]
    term = np.empty_like(z)
    for i in range(len(names)):
        np.multiply(exps[:, i, None], logs[i], out=term)
        np.add(z, term, out=z, where=exps[:, i, None] != 0.0)
    np.exp(z, out=z)
    for row, m in enumerate(monomials):
        if m.phase == 0 and len(m.exponents) == 1 and m.exponents[0][1] == 1:
            z[row] = bases[column[m.exponents[0][0]]]
    return z

def eval_expr_batch(
    e: Expr,
    assignments: Sequence[Mapping[str, complex]],
    target_error: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate an expression at several points; returns (values, masses).

    The full root-of-unity orbits of `root_orbits` come first, each summed
    as one series, so their roots of unity cancel before anything is
    rounded: a depth-1 orbit is the one term c N^(1-n) Li_n(W) of the
    distribution relation, a depth-2 orbit c N1 N2 times `_orbit_series`'s
    filtered double sum over (W1, W2).  The suffix-product check applies to every
    orbit at every point, on the suffix_moduli of its base term's arguments.

    The absolute truncation budget is split evenly over the depth-2 orbits
    and the factor evaluations of the other terms, the depth-1 orbits among
    them; each factor evaluation targets its share / max |coeff| of those
    terms.  Every distinct monomial is valued at every point by one helper
    call.  The distinct factors are grouped by composition, and each group,
    all its factors at all points, is one call of the evaluation entry that
    eval_li also uses: the same caps, suffix-product check, Li_1 closed
    form and cutoff rule, one cutoff for the group at its largest suffix
    modulus, which certifies every column in it.  A divergent column is
    reported with its term, factor and point.  The terms are then assembled
    at once: each term's factor rows (padded with a row of ones) multiplied,
    and the products summed with the coefficients.

    The mass at a point, the scale of the rounding in the value, is the sum
    of |coefficient x orbit value| over the orbits and of |coefficient| times
    the product of the factors' moduli over the other terms.
    """
    import numpy as np

    npts = len(assignments)
    orbits, leftover = root_orbits(e)
    pairs = [o for o in orbits if o.indices.depth == 2]
    terms = leftover + [  # the distribution relation
        Term(o.coeff / o.orders[0] ** (o.indices.weight - 1), (MPLFactor(o.indices, o.powers),))
        for o in orbits
        if o.indices.depth == 1
    ]
    n_evals = sum(len(t.factors) for t in terms) + len(pairs)
    values, masses = np.zeros(npts, dtype=np.complex128), np.zeros(npts)
    if n_evals == 0:
        return values, masses
    monomials: dict[ArgMonomial, int] = {}  # monomial -> row of its values
    for m in [m for t in terms for f in t.factors for m in f.args] + [
        m for o in orbits for m in o.powers + o.terms[0].factors[0].args
    ]:
        monomials.setdefault(m, len(monomials))
    monomial_matrix = monomial_values(list(monomials), assignments)

    def located(exc: DivergentRequest, factor: MPLFactor, term: Term) -> DivergentRequest:
        return DivergentRequest(f"term {term}: {factor}: {exc} at point {exc.column % npts}")

    for o in orbits:  # on the suffix products w_k of its base term
        rows = [monomials[m] for m in o.terms[0].factors[0].args]
        try:
            _check_moduli(monomial_matrix[rows].T.tolist())
        except DivergentRequest as exc:
            raise located(exc, o.terms[0].factors[0], o.terms[0]) from None
    share = float(target_error) / n_evals
    for o in pairs:
        scale = _exact_float(o.coeff * math.prod(o.orders), "coefficient of term {}", o.terms[0])
        target = share / abs(scale)
        if not target > 0.0:
            raise BudgetUnderflow(
                f"error target {float(target_error):.3g} leaves a target of "
                f"{target:.3g} for the orbit of {o.terms[0]}"
            )
        powers = monomial_matrix[[monomials[m] for m in o.powers]]
        series, _ = _orbit_series(o.indices.parts, o.orders, powers, target)
        values += scale * series
        masses += np.abs(scale * series)
    if not terms:
        return values, masses

    try:
        coeffs = np.array([float(t.coeff) for t in terms])[:, None]
    except OverflowError:  # name the term; no call per term when all convert
        coeffs = np.array([_exact_float(t.coeff, "coefficient of term {}", t) for t in terms])
    max_coeff = float(np.abs(coeffs).max())
    per_factor = share / max(max_coeff, 1e-300)
    if not per_factor > 0.0:
        raise BudgetUnderflow(
            f"error target {float(target_error):.3g} leaves a per-factor target of "
            f"{per_factor:.3g} over {n_evals} factor evaluations"
        )

    groups: dict[Composition, dict[MPLFactor, None]] = {}
    for term in terms:
        for factor in term.factors:
            groups.setdefault(factor.indices, {})[factor] = None
    slots = {  # (depth, factors) matrix of monomial rows per group
        indices: np.array([[monomials[m] for m in f.args] for f in factors]).T
        for indices, factors in groups.items()
    }
    rows, row = [], {}  # factor values, a block per group; factor -> its row in them
    for indices, factors in groups.items():
        try:  # the n_factors * npts argument tuples, factor-major, not kept
            columns = monomial_matrix[slots[indices]].reshape(indices.depth, -1).T.tolist()
            flat, _, _ = _eval_columns(indices, columns, per_factor)
        except DivergentRequest as exc:
            factor = list(factors)[exc.column // npts]
            raise located(exc, factor, next(t for t in terms if factor in t.factors)) from None
        row.update(zip(factors, range(len(row), len(row) + len(factors))))
        rows.append(np.reshape(flat, (len(factors), npts)))
    rows.append(np.ones((1, npts), dtype=np.complex128))

    factor_values = np.concatenate(rows)
    width = max(len(t.factors) for t in terms)
    index = np.full((len(terms), width), len(row))  # padded with the row of ones
    for i, term in enumerate(terms):
        index[i, : len(term.factors)] = [row[f] for f in term.factors]
    products = factor_values[index].prod(axis=1)
    factor_masses = np.abs(factor_values)[index].prod(axis=1)
    return (
        values + (coeffs * products).sum(axis=0),
        masses + (np.abs(coeffs) * factor_masses).sum(axis=0),
    )


def eval_expr(
    e: Expr,
    assignment: Mapping[str, complex],
    target_error: float,
) -> tuple[complex, float]:
    """Value and mass of an expression at one point, as eval_expr_batch."""
    values, masses = eval_expr_batch(e, [assignment], target_error)
    return complex(values[0]), float(masses[0])


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
    pair, target = Composition((1, 1)), float(target_error) / bulge
    cutoff, bound = _cutoff_and_bound(pair, rho, target, DEFAULT_MAX_CUTOFF)
    total = 0.0j
    inner = 0.0j  # A(s) = sum_{m<s} x^m y^{s-m} / (m - t1)
    xpow = 1.0 + 0.0j
    for s in range(2, cutoff + 1):
        inner = y * inner + xpow * x * y / (s - 1 - t1)
        xpow *= x
        total += inner / (s - t2)
    return EvalResult(total, bulge * bound, cutoff)
