"""Independent references for the eval workload, computed outside timing.

Every eval_li result is checked against an extended-precision nested
prefix sum (numpy long double, 64-bit mantissa), vectorised over all calls
of one depth and run until its own tail bound is below REF_TAIL.  A seeded
subset of calls is also checked against mpmath at MP_DPS digits:
`mpmath.polylog` at depth 1, and at depth 2-3 the defining nested sum
carried in mpf arithmetic without any rescaling; the subset validates the
long-double reference as well as the library.

A value passes when |value - reference| <= tail_bound + rounding allowance,
with the allowance ROUNDING_ULPS * eps * (cutoff * depth) ** 0.5 *
max(1, |reference|): the usual random-walk estimate for the rounding of a
recurrence of cutoff * depth steps in double precision.  eval_li does not
yet put rounding into its bound, so the allowance is stated here.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np

REF_TAIL = 1e-18
ROUNDING_ULPS = 64.0
EPS = sys.float_info.epsilon
MP_DPS = 30
MP_CHECKS_PER_DEPTH = 3
LD_AGREEMENT = 1e-15  # long double vs mpmath, absolute


def _own_cutoff(depth: int, rho: float, tail: float) -> int:
    """Smallest M whose bound on sum_{m>M} binom(m-1, d-1) rho^m is <= tail.

    Terms t(m) = binom(m-1, d-1) rho^m have ratios r(m) = rho*m/(m-d+1)
    that fall towards rho, so once r(M+1) < 1 the remaining tail is at most
    t(M+1) / (1 - r(M+1)), which then decreases in M: bisect on it.
    """
    if rho == 0.0:
        return 1

    def bound_ok(m: int) -> bool:
        ratio = rho * (m + 1) / (m + 2 - depth)
        if ratio >= 1.0:
            return False
        log_term = (
            math.lgamma(m + 1) - math.lgamma(depth) - math.lgamma(m + 2 - depth)
            + (m + 1) * math.log(rho)
        )
        return log_term - math.log1p(-ratio) <= math.log(tail)

    lo = max(depth, int((depth - 2 + rho) / (1.0 - rho)) + 1)
    if bound_ok(lo):
        return lo
    hi = 2 * lo
    while not bound_ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # bound_ok(hi) holds, bound_ok(lo) does not
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound_ok(mid) else (mid, hi)
    return hi


def _suffix_rho(args) -> float:
    acc, best = 1.0, 0.0
    for a in reversed(args):
        acc *= abs(a)
        best = max(best, acc)
    return best


def long_double_values(parts_list, args_list) -> np.ndarray:
    """Nested sums for calls of one depth, in long double.

    Carried with suffix products b_k = a_k ... a_d so every partial sum
    stays bounded: C_k(m) = b_{k+1} C_k(m-1) + b_k m^{-n_k} C_{k-1}(m-1).
    Columns are sorted by their own cutoff, so step m touches only the
    calls that still need it.
    """
    d = len(parts_list[0])
    cutoffs = [_own_cutoff(d, _suffix_rho(args), REF_TAIL) for args in args_list]
    order = sorted(range(len(args_list)), key=lambda i: -cutoffs[i])
    ld = np.clongdouble
    a = np.array([args_list[i] for i in order], dtype=ld).T  # (d, calls)
    n = np.array([parts_list[i] for i in order]).T
    active_at = np.array([cutoffs[i] for i in order])
    b = np.ones((d + 2, a.shape[1]), dtype=ld)
    for k in range(d, 0, -1):
        b[k] = a[k - 1] * b[k + 1]
    c = np.zeros((d + 1, a.shape[1]), dtype=ld)
    c[0] = 1
    max_part = int(n.max())
    for m in range(1, int(active_at[0]) + 1):
        act = int(np.searchsorted(-active_at, -m, side="right"))
        inv_powers = np.longdouble(1) / np.longdouble(m) ** np.arange(max_part + 1)
        for k in range(d, 0, -1):
            c[k, :act] = (
                c[k, :act] * b[k + 1, :act]
                + b[k, :act] * inv_powers[n[k - 1, :act]] * c[k - 1, :act]
            )
        c[0, :act] *= b[1, :act]
    out = np.empty(a.shape[1], dtype=ld)
    out[order] = c[d]
    return out


def mpmath_value(parts, args) -> complex:
    """The defining series sum_{0<m_1<...<m_d} prod a_k^{m_k} / m_k^{n_k}."""
    import mpmath

    with mpmath.workdps(MP_DPS):
        if len(parts) == 1:
            return complex(mpmath.polylog(parts[0], mpmath.mpc(args[0])))
        d = len(parts)
        a = [mpmath.mpc(x) for x in args]
        cutoff = _own_cutoff(d, _suffix_rho(args), 10.0 ** (-MP_DPS + 5))
        power = [mpmath.mpc(1)] * d
        prefix = [mpmath.mpc(0)] * d  # prefix[k]: chains of length k+1, m_{k+1} <= m
        for m in range(1, cutoff + 1):
            for k in range(d - 1, -1, -1):
                power[k] *= a[k]
                step = power[k] / mpmath.mpf(m) ** parts[k]
                prefix[k] += step if k == 0 else step * prefix[k - 1]
        return complex(prefix[d - 1])


def check_long_double(evals) -> tuple[list[str], float]:
    """Failures among (request, result) pairs, and the largest error as a
    share of its allowance."""
    failures: list[str] = []
    worst = 0.0
    by_depth: dict[int, list[int]] = {}
    for i, (req, _) in enumerate(evals):
        by_depth.setdefault(req.indices.depth, []).append(i)
    for idx in by_depth.values():
        refs = long_double_values(
            [evals[i][0].indices.parts for i in idx], [evals[i][0].args for i in idx]
        )
        for i, ref in zip(idx, refs):
            req, res = evals[i]
            ref = complex(ref)
            allowed = res.tail_bound + ROUNDING_ULPS * EPS * math.sqrt(
                res.cutoff * req.indices.depth
            ) * max(1.0, abs(ref))
            err = abs(res.value - ref)
            worst = max(worst, err / allowed)
            if not err <= allowed:
                failures.append(
                    f"eval_li{req.indices}{req.args}: error {err:.3e} above allowed "
                    f"{allowed:.3e} (tail bound {res.tail_bound:.3e}, cutoff {res.cutoff})"
                )
    return failures, worst


def mpmath_sample(evals, rng: random.Random) -> list:
    """MP_CHECKS_PER_DEPTH requests of each depth, drawn with rng."""
    by_depth: dict[int, list] = {}
    for req, _ in evals:
        by_depth.setdefault(req.indices.depth, []).append(req)
    return [req for reqs in by_depth.values() for req in rng.sample(reqs, min(MP_CHECKS_PER_DEPTH, len(reqs)))]


def check_mpmath(requests) -> None:
    """Raise when the long-double reference and mpmath disagree."""
    for req in requests:
        mp = mpmath_value(req.indices.parts, req.args)
        ld = complex(long_double_values([req.indices.parts], [req.args])[0])
        if not abs(mp - ld) <= LD_AGREEMENT * max(1.0, abs(mp)):
            raise RuntimeError(
                f"reference disagreement for {req.indices}{req.args}: "
                f"long double vs mpmath differ by {abs(mp - ld):.3e}"
            )
