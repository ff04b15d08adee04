import cmath
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mplkit import numeval
from mplkit.numeval import (
    Composition,
    CutoffOverflow,
    DivergentRequest,
    EvalRequest,
    PoleProximity,
    choose_cutoff,
    eval_generating_series,
    eval_li,
    series_value,
    series_value_batch,
    suffix_moduli,
    tail_bound,
)

from _oracles import generating_direct, li_direct

EPS = sys.float_info.epsilon


def test_composition_validation():
    c = Composition((3, 1))
    assert c.weight == 4 and c.depth == 2
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((2, 0))


def test_li1_closed_form():
    r = eval_li(EvalRequest(Composition((1,)), (0.5,), 1e-12))
    assert abs(r.value - 0.6931471805599453) < 1e-13
    assert abs(r.value - (-cmath.log(1 - 0.5))) < 1e-15


def test_li2_against_direct_summation():
    r = eval_li(EvalRequest(Composition((2,)), (0.5,), 1e-12))
    direct = sum(0.5**m / m**2 for m in range(1, 201))
    assert abs(r.value - direct) < 1e-12
    # closed form pi^2/12 - ln(2)^2/2 = 0.5822405264650125
    assert abs(r.value - 0.5822405264650125) < 1e-12


def test_li11_stuffle_value():
    # Li_1(y)^2 = 2 Li_{1,1}(y,y) + Li_2(y^2), both sides by direct summation
    y = 0.4
    r = eval_li(EvalRequest(Composition((1, 1)), (y, y), 1e-12))
    li1 = li_direct((1,), (y,), 400)
    li2 = li_direct((2,), (y * y,), 400)
    assert abs(r.value - (li1 * li1 - li2) / 2) < 1e-11


def test_zero_argument_kills_everything():
    r = eval_li(EvalRequest(Composition((3, 1)), (0.0, 0.5), 1e-10))
    assert r.value == 0


def test_prefix_sum_matches_nested_loops():
    cases = [
        ((2, 1), (1.3 + 0.2j, 0.5 - 0.1j)),
        ((1, 1, 2), (0.4, 0.5j, 0.6)),
        ((1, 1, 1, 1), (0.3, 0.4, 0.5, 0.5)),
    ]
    for parts, args in cases:
        v = series_value(Composition(parts), args, 60)
        w = li_direct(parts, args, 60)
        assert abs(v - w) < 1e-13 * max(1, abs(w))


def _one_column_cases():
    """Seeded (parts, args, cutoff) at depth 1-4: generic arguments, a zero
    argument, one |a_k| > 1 with every suffix product below 1, cutoff 1,
    and a cutoff of 2048 at largest suffix modulus 0.98."""
    rng = random.Random(20261018)

    def point(modulus):
        return modulus * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    cases = []
    for d in range(1, 5):
        parts = tuple(rng.randint(1, 3) for _ in range(d))
        generic = [point(rng.uniform(0.2, 0.8)) for _ in range(d)]
        cases.append((parts, generic, rng.randint(2, 30)))
        cases.append((parts, generic, 1))
        zero = list(generic)
        zero[rng.randrange(d)] = 0.0
        cases.append((parts, zero, 25))
        # unit moduli except the last slot: every suffix modulus is 0.98
        cases.append((parts, [point(1.0) for _ in range(d - 1)] + [point(0.98)], 2048))
        if d >= 2:
            k = rng.randrange(d - 1)
            large = list(generic)
            large[k], large[k + 1] = point(1.5), point(0.4)
            assert max(suffix_moduli(large)) < 1.0
            cases.append((parts, large, 25))
    return cases


def test_one_column_kernel_matches_numpy_columns():
    for parts, args, cutoff in _one_column_cases():
        comp = Composition(parts)
        column = np.array(args, dtype=np.complex128)[:, None]
        other = np.full_like(column, 0.3 - 0.2j)
        v = series_value_batch(comp, column, cutoff)  # one column: scalar loop
        w = series_value_batch(comp, np.hstack([other, column]), cutoff)[1]  # numpy
        assert v.shape == (1,) and v.dtype == np.complex128
        allowance = 64 * EPS * math.sqrt(cutoff * len(parts)) * max(1.0, abs(w))
        assert abs(v[0] - w) <= allowance, (parts, args, cutoff)
        if cutoff <= 30:
            ref = li_direct(parts, args, cutoff)
            assert abs(v[0] - ref) <= 1e-13 * max(1.0, abs(ref)), (parts, args, cutoff)
        if 0.0 in args:
            assert v[0] == 0


def test_one_column_kernel_checks_shape_and_cutoff():
    comp = Composition((2, 1))
    with pytest.raises(ValueError):
        series_value_batch(comp, np.full((3, 1), 0.5), 10)
    with pytest.raises(ValueError):
        series_value_batch(comp, np.full(2, 0.5), 10)
    for cutoff in (0, -1):
        with pytest.raises(ValueError):
            series_value_batch(comp, np.full((2, 1), 0.5), cutoff)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eval_li_depth1_against_mpmath(n):
    import mpmath  # the "test" extra; an independent oracle, not a library dependency
    for modulus in (0.5, 0.9, 0.98):
        for phase in (0.0, 2.0, math.pi):
            x = modulus * cmath.exp(1j * phase)
            r = eval_li(EvalRequest(Composition((n,)), (x,), 1e-12))
            with mpmath.workdps(40):
                ref = complex(mpmath.polylog(n, mpmath.mpc(x.real, x.imag)))
            allowance = r.tail_bound + 64 * EPS * math.sqrt(r.cutoff) * max(1.0, abs(ref))
            assert abs(r.value - ref) <= allowance, (n, x)


def test_divergent_request():
    with pytest.raises(DivergentRequest):
        eval_li(EvalRequest(Composition((2,)), (1.01,), 1e-10))
    with pytest.raises(DivergentRequest):
        # inner suffix |a2| fine, product |a1 a2| too big
        eval_li(EvalRequest(Composition((2, 1)), (2.0, 0.6), 1e-10))


def test_caps_rejected():
    with pytest.raises(ValueError):
        eval_li(EvalRequest(Composition((1,) * 5), (0.1,) * 5, 1e-8))
    with pytest.raises(ValueError):
        eval_li(EvalRequest(Composition((13,)), (0.1,), 1e-8))


# ---------------------------------------------------------------------------
# tail bounds and cutoffs


def test_tail_bound_depth1_geometric():
    # depth 1 closed form rho^(M+1) (M+1)^(-n) / (1 - rho), pinned with no absolute slack
    for n in (1, 3):
        b = tail_bound(Composition((n,)), 0.5, 50)
        assert b == pytest.approx(0.5**51 / 51**n / 0.5, rel=1e-12, abs=0)
        assert sum(0.5**m / m**n for m in range(51, 200)) <= b


def test_tail_bound_depth2_dominates_remainder():
    # remainder of Li_{1,1}(0.7, 0.7) past 100, summed directly to 400
    full = li_direct((1, 1), (0.7, 0.7), 400)
    trunc = li_direct((1, 1), (0.7, 0.7), 100)
    remainder = abs(full - trunc)
    b = tail_bound(Composition((1, 1)), max(suffix_moduli((0.7, 0.7))), 100)
    assert math.isfinite(b)
    assert remainder <= b


def test_tail_bound_zero_rho():
    for parts in [(1,), (2, 1), (1, 1, 1)]:
        assert tail_bound(Composition(parts), 0.0, 10) == 0.0


def test_tail_bound_positive_tail_never_zero():
    # both log bounds lie far below the smallest double, so the bound floors there
    for rho, cutoff in ((1e-300, 2), (0.5, 2000)):
        assert tail_bound(Composition((2,)), rho, cutoff) == math.ulp(0.0)


def test_tail_bound_rejects_bad_rho():
    with pytest.raises(ValueError):
        tail_bound(Composition((2,)), 1.0, 10)
    with pytest.raises(ValueError):
        tail_bound(Composition((2,)), -0.1, 10)


def test_choose_cutoff_depth1():
    m = choose_cutoff(Composition((1,)), 0.5, 1e-12)
    assert 35 <= m <= 45
    assert tail_bound(Composition((1,)), 0.5, m) <= 1e-12
    assert tail_bound(Composition((1,)), 0.5, m - 1) > 1e-12  # smallest such M


def test_choose_cutoff_zero_rho():
    assert choose_cutoff(Composition((2, 1)), 0.0, 1e-10) == 1


def test_choose_cutoff_monotone_in_target():
    c = Composition((1, 1))
    previous = 0
    for target in (1e-6, 1e-9, 1e-12):
        m = choose_cutoff(c, 0.9, target)
        assert tail_bound(c, 0.9, m) <= target
        assert m >= previous
        previous = m


def test_cutoff_overflow(monkeypatch):
    monkeypatch.setattr(numeval, "DEFAULT_MAX_CUTOFF", 10**3)
    with pytest.raises(CutoffOverflow):
        # the target needs M near 7e4 at rho 0.99, far above this ceiling
        choose_cutoff(Composition((2,)), 0.99, 1e-320)


def _positive_remainder(parts, args, lo, hi):
    """Sum of the series terms with outermost index in (lo, hi] for positive
    real args: every term is positive, so nothing cancels and no difference
    of two partial sums loses the small remainder to rounding."""
    prefix = [1.0] + [0.0] * len(parts)  # prefix[k]: chains of length k, top <= m
    total = 0.0
    for m in range(1, hi + 1):
        for k in range(len(parts), 0, -1):
            w = args[k - 1] ** m / m ** parts[k - 1] * prefix[k - 1]
            prefix[k] += w
            if k == len(parts) and m > lo:
                total += w
    return total


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2),
    st.floats(0.05, 0.98),
    st.integers(1, 60),
)
def test_tail_bound_dominates_positive_remainder(parts, inner, last, cutoff):
    args = inner[: len(parts) - 1] + [last]
    rho = max(suffix_moduli(args))
    remainder = _positive_remainder(parts, args, cutoff, 40 * cutoff)
    assert remainder <= tail_bound(Composition(tuple(parts)), rho, cutoff)


def test_choose_cutoff_is_minimal():
    rng = random.Random(6061)
    for _ in range(400):
        depth = rng.randint(1, 4)
        parts = tuple(rng.randint(1, 3) for _ in range(depth))
        rho = rng.uniform(0.05, 0.99)
        target = 10 ** rng.uniform(-300, -3)
        comp = Composition(parts)
        m = choose_cutoff(comp, rho, target)
        assert tail_bound(comp, rho, m) <= target, (parts, rho, target, m)
        if m > 1:
            assert target < tail_bound(comp, rho, m - 1), (parts, rho, target, m)


def test_certified_truncation_doubling():
    rng = random.Random(20240901)
    for _ in range(10):
        depth = rng.choice((1, 2, 3))
        parts = tuple(rng.randint(1, 3) for _ in range(depth))
        args = []
        for _ in range(depth):
            r = rng.uniform(0.1, 0.8)
            phi = rng.uniform(0, 2 * math.pi)
            args.append(r * cmath.exp(1j * phi))
        rho = max(suffix_moduli(args))
        if rho >= 0.9:
            continue
        target = 10 ** rng.uniform(-9, -6)
        comp = Composition(parts)
        m = choose_cutoff(comp, rho, target)
        v1 = series_value(comp, args, m)
        v2 = series_value(comp, args, 2 * m)
        assert abs(v1 - v2) <= tail_bound(comp, rho, m)


def test_eval_result_tail_below_target():
    r = eval_li(EvalRequest(Composition((3, 1)), (0.9, 0.7), 1e-10))
    assert r.tail_bound <= 1e-10
    assert r.cutoff >= 1


def test_determinism_bit_identical():
    req = EvalRequest(Composition((2, 2)), (0.55 + 0.1j, 0.6 - 0.2j), 1e-11)
    a = eval_li(req)
    b = eval_li(req)
    assert a.value == b.value and a.tail_bound == b.tail_bound and a.cutoff == b.cutoff


# ---------------------------------------------------------------------------
# the double generating series


def test_generating_equals_li11():
    L = eval_generating_series(0.3, 0.2, 0.0, 0.0, 1e-12)
    direct_l = generating_direct(0.3, 0.2, 0.0, 0.0, 160)
    li11 = li_direct((1, 1), (1.5, 0.2), 160)
    assert abs(L.value - li11) < 1e-10
    assert abs(L.value - direct_l) < 1e-10


def test_generating_zero_x():
    assert eval_generating_series(0.0, 0.9, 0.3, 0.2, 1e-10).value == 0


def test_generating_matches_li_kl_series():
    # partial sums of sum_{k,l} Li_{k,l}(x/y, y) t1^{k-1} t2^{l-1} approach L
    x, y, t1, t2 = 0.3, 0.2, 0.25, 0.1
    L = eval_generating_series(x, y, t1, t2, 1e-12).value
    errors = []
    for K in (4, 8, 12):
        s = 0j
        for k in range(1, K + 1):
            for l in range(1, K + 1):
                li = li_direct((k, l), (x / y, y), 140)
                s += li * t1 ** (k - 1) * t2 ** (l - 1)
        errors.append(abs(L - s))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-6


def test_generating_rejects_poles_and_divergence():
    with pytest.raises(PoleProximity):
        eval_generating_series(0.3, 0.2, 0.6, 0.0, 1e-10)
    with pytest.raises(DivergentRequest):
        eval_generating_series(1.0, 0.2, 0.0, 0.0, 1e-10)


def test_generating_tail_dominates_positive_remainder():
    # real x, y > 0 and t1, t2 at the pole-side edge: no term cancels another
    for x, y, t1, t2 in [(0.9, 0.9, 0.5, 0.5), (0.95, 0.3, 0.5, -0.5), (0.3, 0.95, -0.5, 0.5)]:
        r = eval_generating_series(x, y, t1, t2, 1e-4)
        remainder = sum(
            x**m * y ** (s - m) / abs((m - t1) * (s - t2))
            for s in range(r.cutoff + 1, 6 * r.cutoff)
            for m in range(1, s)
        )
        assert remainder <= r.tail_bound, (x, y, t1, t2)


def test_generating_double_sum_tail_certified():
    r = eval_generating_series(0.5, 0.4, 0.3, -0.2, 1e-8)
    finer = eval_generating_series(0.5, 0.4, 0.3, -0.2, 1e-13)
    assert abs(r.value - finer.value) <= r.tail_bound + finer.tail_bound


# ---------------------------------------------------------------------------
# distribution relations, numerically


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_distribution_relation_numeric(r, n):
    rng = random.Random(1000 * r + n)
    for _ in range(5):
        a = rng.uniform(0.1, 0.8) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        lhs = eval_li(EvalRequest(Composition((n,)), (a**r,), 1e-12)).value
        rhs = 0j
        for j in range(r):
            zeta = cmath.exp(2j * math.pi * j / r)
            rhs += eval_li(EvalRequest(Composition((n,)), (zeta * a,), 1e-12)).value
        rhs *= r ** (n - 1)
        assert abs(lhs - rhs) < 1e-10


def test_stuffle_consistency_numeric():
    rng = random.Random(77)
    for _ in range(8):
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        x = rng.uniform(0.1, 0.6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        y = rng.uniform(0.1, 0.6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        rk = eval_li(EvalRequest(Composition((k,)), (x,), 1e-13))
        rl = eval_li(EvalRequest(Composition((l,)), (y,), 1e-13))
        rkl = eval_li(EvalRequest(Composition((k, l)), (x, y), 1e-13))
        rlk = eval_li(EvalRequest(Composition((l, k)), (y, x), 1e-13))
        rn = eval_li(EvalRequest(Composition((k + l,)), (x * y,), 1e-13))
        residual = abs(rk.value * rl.value - rkl.value - rlk.value - rn.value)
        combined = (
            abs(rk.value) * rl.tail_bound
            + abs(rl.value) * rk.tail_bound
            + rk.tail_bound * rl.tail_bound
            + rkl.tail_bound
            + rlk.tail_bound
            + rn.tail_bound
        )
        assert residual <= combined + 1e-10
