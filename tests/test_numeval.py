import cmath
import itertools
import math
import random
import re
import sys
import threading

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
    series_value_batch,
    suffix_moduli,
    tail_bound,
)

from _oracles import generating_direct, li_direct, series_scalar_reference

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
        column = np.array(args, dtype=np.complex128)[:, None]
        v = complex(series_value_batch(Composition(parts), column, 60)[0])
        w = li_direct(parts, args, 60)
        assert abs(v - w) < 1e-13 * max(1, abs(w))


def test_one_column_deeper_than_the_cap_runs_on_numpy():
    parts, args = (1, 2, 1, 1, 3), (0.5, 0.6j, 1.1, 0.4, 0.7)
    column = np.array(args, dtype=np.complex128)[:, None]
    v = complex(series_value_batch(Composition(parts), column, 20)[0])
    w = li_direct(parts, args, 20)
    assert abs(v - w) < 1e-13 * max(1, abs(w))


def _one_column_cases():
    """Seeded (parts, args, cutoff) at depth 1-5: generic arguments, a zero
    argument, one |a_k| > 1 with every suffix product below 1, cutoff 1,
    and a cutoff of 2048 at largest suffix modulus 0.98.  Depth 5, above
    DEPTH_CAP, reaches the kernel only through series_value_batch."""
    rng = random.Random(20261018)

    def point(modulus):
        return modulus * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    cases = []
    for d in range(1, 6):
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
        v = series_value_batch(comp, column, cutoff)
        w = series_value_batch(comp, np.hstack([other, column]), cutoff)[1]  # a wider group
        assert v.shape == (1,) and v.dtype == np.complex128
        assert repr(complex(v[0])) == repr(complex(w)), (parts, args, cutoff)
        if cutoff <= 30:
            ref = li_direct(parts, args, cutoff)
            assert abs(v[0] - ref) <= 1e-13 * max(1.0, abs(ref)), (parts, args, cutoff)
        if 0.0 in args:
            assert v[0] == 0


def test_one_column_kernel_matches_generic_loop_bit_for_bit():
    for parts, args, cutoff in _one_column_cases():
        column = np.array(args, dtype=np.complex128)[:, None]
        got = complex(series_value_batch(Composition(parts), column, cutoff)[0])
        ref = series_scalar_reference(parts, column[:, 0].tolist(), cutoff)
        assert repr(got) == repr(ref), (parts, args, cutoff)


@pytest.mark.parametrize("width", [2, 20, 40, 70])
def test_kernel_matches_generic_loop_bit_for_bit_at_every_width(width, monkeypatch):
    # each case's column among width - 1 others: every column has the bits
    # of the generic loop at that column alone, whichever kernel the width
    # and depth select (the float-pair one from 64 columns x depth on, and
    # above the depth cap)
    pair_calls = []
    pair_series = numeval._pair_series
    monkeypatch.setattr(
        numeval, "_pair_series", lambda *a: pair_calls.append(a[0]) or pair_series(*a)
    )
    rng = random.Random(width)
    for parts, args, cutoff in _one_column_cases():
        a = _wide_group(rng, parts, width)
        a[:, rng.randrange(width)] = args
        pair_calls.clear()
        got = series_value_batch(Composition(parts), a, cutoff)
        assert got.shape == (width,)
        assert bool(pair_calls) == (width * len(parts) >= 64 or len(parts) > 4), (parts, width)
        for j, col in enumerate(a.T.tolist()):
            ref = series_scalar_reference(parts, col, cutoff)
            assert repr(complex(got[j])) == repr(ref), (parts, col, cutoff)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_pair_kernel_keeps_the_sign_of_every_zero(depth):
    # every column over signed zeros, reals and imaginaries at once: the
    # generic loop's bits, a zero part's sign included (real arguments keep
    # an imaginary zero throughout)
    values = [complex(r, i) for r in (0.0, -0.0, 0.5, -0.5) for i in (0.0, -0.0, 0.5, -0.5)]
    cols = list(itertools.product(values, repeat=depth))
    a = np.array(cols, dtype=np.complex128).T
    parts = (2, 1, 3)[:depth]
    for cutoff in (1, 2, 3, 7):
        got = numeval._pair_series(parts, a, cutoff)
        for j, col in enumerate(cols):
            ref = series_scalar_reference(parts, list(col), cutoff)
            assert repr(complex(got[j])) == repr(ref), (parts, col, cutoff)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.lists(st.floats(0.01, 0.99), min_size=4, max_size=4),
    st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4),
    st.integers(1, 400),
)
def test_one_column_kernel_bits_on_sampled_points(parts, suffix, phases, cutoff):
    # suffix[k] is the modulus |a_k ... a_d|, so a single argument may exceed 1
    d = len(parts)
    suffix = suffix[:d] + [1.0]
    args = [suffix[k] / suffix[k + 1] * cmath.exp(1j * phases[k]) for k in range(d)]
    column = np.array(args, dtype=np.complex128)[:, None]
    got = complex(series_value_batch(Composition(tuple(parts)), column, cutoff)[0])
    assert repr(got) == repr(series_scalar_reference(parts, args, cutoff))


def test_inverse_power_table_grows_in_place(monkeypatch):
    monkeypatch.setattr(numeval, "_INV_POWERS", {})
    column = np.array([[0.4 + 0.3j], [1.2], [-0.7j]])
    comp = Composition((3, 1, 12))
    short = complex(series_value_batch(comp, column, 40)[0])
    tables = dict(numeval._INV_POWERS)
    assert sorted(tables) == [1, 3, 12] and {len(t) for t in tables.values()} == {40}
    series_value_batch(comp, column, 900)
    for n, table in numeval._INV_POWERS.items():
        assert table is tables[n] and table.typecode == "d" and len(table) == 900
        assert all(v == 1.0 / float(m) ** n for m, v in enumerate(table, 1)), n
    # a short call after a long one: the bits of the fresh table
    assert repr(complex(series_value_batch(comp, column, 40)[0])) == repr(short)


def test_inverse_power_table_grows_once_under_threads(monkeypatch):
    # threads growing one table at once must neither skip nor repeat an entry
    monkeypatch.setattr(numeval, "_INV_POWERS", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda: [numeval._inv_powers(2, c) for c in range(10, 4000, 10)])
            for _ in range(8)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    table = numeval._INV_POWERS[2]
    assert len(table) == 3990
    assert all(v == 1.0 / float(m) ** 2 for m, v in enumerate(table, 1))


def test_one_column_kernel_checks_shape_and_cutoff():
    comp = Composition((2, 1))
    with pytest.raises(ValueError):
        series_value_batch(comp, np.full((3, 1), 0.5), 10)
    with pytest.raises(ValueError):
        series_value_batch(comp, np.full(2, 0.5), 10)
    for cutoff in (0, -1):
        with pytest.raises(ValueError):
            series_value_batch(comp, np.full((2, 1), 0.5), cutoff)


@pytest.mark.parametrize("cutoff", [2.5, 2.0, True, np.float64(3.0)], ids=repr)
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: series_value_batch(Composition((2,)), [[0.5]], m),
         "cutoff must be an integer in [1, 1000000], got {}"),
        (lambda m: tail_bound(Composition((2,)), 0.5, m), "cutoff must be a positive integer"),
    ],
    ids=["series_value_batch", "tail_bound"],
)
def test_cutoff_must_be_an_integer(call, message, cutoff):
    with pytest.raises(ValueError, match="^" + re.escape(message.format(cutoff)) + "$"):
        call(cutoff)
    # a numpy integer is an integer
    assert np.array_equal(call(np.int64(3)), call(3))


def test_kernel_refuses_a_cutoff_past_the_ceiling(monkeypatch):
    # refused before any inverse-power table grows
    monkeypatch.setattr(numeval, "_INV_POWERS", {})
    for ncols in (1, 2):
        with pytest.raises(ValueError, match="cutoff"):
            series_value_batch(
                Composition((2, 1)), np.full((2, ncols), 0.5), numeval.DEFAULT_MAX_CUTOFF + 1
            )
    assert numeval._INV_POWERS == {}


def _wide_group(rng, parts, ncols):
    """A (depth, ncols) argument matrix whose columns' largest suffix moduli
    spread over [0.05, 0.98]; an argument may exceed modulus 1."""
    d = len(parts)
    cols = []
    for _ in range(ncols):
        suffix = sorted((rng.uniform(0.05, 0.98) for _ in range(d)), reverse=rng.random() < 0.5)
        suffix.append(1.0)
        cols.append([
            suffix[k] / suffix[k + 1] * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for k in range(d)
        ])
    return np.array(cols, dtype=np.complex128).T


def _mp_nested_sum(parts, args):
    """mpmath nested sum, prefix form, at 30 digits, to a cutoff whose tail
    rho^M (1 + ln M)^(d-1) / (1 - rho) is below 1e-20."""
    import mpmath  # the "test" extra; an independent oracle, not a library dependency

    d = len(parts)
    rho = float(max(np.abs(np.cumprod(np.array(args)[::-1]))))
    cutoff = 1
    while rho**cutoff * (1 + math.log(cutoff)) ** (d - 1) / (1 - rho) > 1e-20:
        cutoff += 50
    with mpmath.workdps(30):
        a = [mpmath.mpc(z.real, z.imag) for z in args]
        powers = [mpmath.mpc(1)] * d
        sums = [mpmath.mpc(0)] * d  # sums[k]: chains of length k + 1 ending at or below m
        for m in range(1, cutoff + 1):
            for k in range(d - 1, -1, -1):  # sums[k - 1] still ends below m
                powers[k] *= a[k]
                inner = 1 if k == 0 else sums[k - 1]
                sums[k] += inner * powers[k] / mpmath.mpf(m) ** parts[k]
        return complex(sums[d - 1])


def test_wide_group_columns_agree_with_eval_li_and_mpmath():
    # every column of a wide group within its certified bound of eval_li's
    # value at the same target, plus rounding; some columns against mpmath
    rng = random.Random(20261019)
    for trial in range(12):
        parts = tuple(rng.randint(1, 3) for _ in range(1 + trial % 3))
        if parts == (1,):
            parts = (2,)
        comp = Composition(parts)
        target = 10.0 ** rng.uniform(-13, -7)
        a = _wide_group(rng, parts, 40)
        values, bound, cutoff = numeval._eval_columns(comp, a, target)
        assert bound <= target
        rho = suffix_moduli(a).max(axis=0)
        assert cutoff == choose_cutoff(comp, rho.max(), target)  # one cutoff for the group
        for j in range(a.shape[1]):
            single = eval_li(EvalRequest(comp, tuple(a[:, j]), target))
            assert single.cutoff <= cutoff
            rounding = 64 * EPS * math.sqrt(cutoff * len(parts)) * max(1.0, abs(single.value))
            assert abs(values[j] - single.value) <= bound + single.tail_bound + rounding
        if trial < 6:  # depth 1, 2 and 3 twice each, at the group's largest modulus
            j = int(np.argmax(rho))
            ref = _mp_nested_sum(parts, a[:, j])
            rounding = 64 * EPS * math.sqrt(cutoff * len(parts)) * max(1.0, abs(ref))
            assert abs(values[j] - ref) <= bound + rounding, (parts, rho[j])


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


def test_li1_domain_rule_is_one_rule_at_the_boundary():
    # on |x| = 0.99 the last bit of the modulus decides, and numpy's SIMD abs
    # and Python's abs disagree in it on many points: every path reads the
    # same suffix_moduli, so eval_li, a wider group and eval_expr_batch at
    # one or two points accept or refuse each point together
    from mplkit.symalg import ArgMonomial, eval_expr_batch, li_expr

    rng = random.Random(2029)
    li1, x = Composition((1,)), ArgMonomial.variable("x")
    outcomes = set()
    for _ in range(200):
        point = {"x": 0.99 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))}
        z = x.instantiate(point)  # the argument eval_expr_batch sees
        calls = (
            lambda: eval_li(EvalRequest(li1, (z,), 1e-12)).value,
            lambda: numeval._eval_columns(li1, np.array([[z, 0.5]]), 1e-12)[0][0],
            lambda: eval_expr_batch(li_expr([1], [x]), [point], 1e-12)[0][0],
            lambda: eval_expr_batch(li_expr([1], [x]), [point, {"x": 0.5}], 1e-12)[0][0],
        )
        got = []
        for call in calls:
            try:
                got.append(repr(complex(call())))
            except DivergentRequest:
                got.append("refused")
        assert len(set(got)) == 1, (z, got)
        outcomes.add(got[0] == "refused")
    assert outcomes == {True, False}  # both sides of the boundary were hit


def test_divergence_message_shows_a_modulus_just_past_the_bound_in_full():
    above = np.nextafter(numeval.DEFAULT_RHO_MAX, 1.0)
    with pytest.raises(DivergentRequest, match=r"= 0\.9900000000000001 exceeds rho_max = 0\.99$"):
        numeval._check_moduli(np.array([[0.5], [above]]))
    with pytest.raises(DivergentRequest, match=r"\|a_1\.\.\.a_1\| = 1\.2 exceeds rho_max = 0\.99$"):
        numeval._check_moduli(np.array([[1.2]]))


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 0.1)],
    ids=["nan", "inf", "nan-imag", "inf-real"],
)
@pytest.mark.parametrize("parts", [(1,), (2,), (2, 1), (1, 2, 1, 3)], ids=str)
def test_non_finite_argument_is_divergent(parts, bad):
    # a NaN suffix modulus fails the check like a large one, in every slot
    for slot in range(len(parts)):
        args = [0.3 - 0.2j] * len(parts)
        args[slot] = bad
        with pytest.raises(DivergentRequest):
            eval_li(EvalRequest(Composition(parts), tuple(args), 1e-10))


def _eval_style_requests(rng, per_depth):
    """Single-point requests drawn like the eval benchmark's: per depth 1-4,
    largest suffix modulus stratified over [0.05, 0.98] and attained at a
    random slot, parts in 1-3, target 1e-12."""
    reqs = []
    for d in range(1, 5):
        for i in range(per_depth):
            rho = 0.05 + 0.93 * (i + rng.random()) / per_depth
            top = rng.randrange(d)
            suffix = [rho if k == top else rng.uniform(0.05 * rho, rho) for k in range(d)]
            suffix.append(1.0)
            args = tuple(
                suffix[k] / suffix[k + 1] * cmath.exp(2j * math.pi * rng.random()) for k in range(d)
            )
            parts = tuple(rng.randint(1, 3) for _ in range(d))
            reqs.append(EvalRequest(Composition(parts), args, 1e-12))
    return reqs


def test_eval_li_bound_is_tail_bound_at_the_suffix_modulus_bit_for_bit():
    # the modulus is suffix_moduli's numpy formula: a modulus computed another
    # way rounds differently and moves the last bit of many bounds
    for req in _eval_style_requests(random.Random(15015), 150):
        res = eval_li(req)
        if req.indices.parts == (1,):
            assert (res.tail_bound, res.cutoff) == (0.0, 1)
            continue
        rho = float(suffix_moduli(req.args).max())
        assert res.cutoff == choose_cutoff(req.indices, rho, req.target_error)
        assert res.tail_bound.hex() == tail_bound(req.indices, rho, res.cutoff).hex(), req


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


def test_choose_cutoff_is_minimal(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return tail_bound(*args)

    monkeypatch.setattr(numeval, "tail_bound", counted)
    rng = random.Random(6061)
    cases = []
    for _ in range(400):
        depth = rng.randint(1, 4)
        parts = tuple(rng.randint(1, 3) for _ in range(depth))
        cases.append((parts, rng.uniform(0.05, 0.99), 10 ** rng.uniform(-300, -3)))
    # subnormal targets, down to the smallest positive double
    for parts in ((1,), (2,), (5,), (3, 1), (1, 1, 2), (2, 1, 1, 3)):
        for rho in (0.05, 0.5, 0.9, 0.99):
            for target in (5e-324, 1e-323, 1e-320, 1e-315, 1e-310):
                cases.append((parts, rho, target))
    for parts, rho, target in cases:
        comp = Composition(parts)
        calls.clear()
        m = choose_cutoff(comp, rho, target)
        assert len(calls) <= 3, (parts, rho, target, m, len(calls))
        assert tail_bound(comp, rho, m) <= target, (parts, rho, target, m)
        if m > 1:
            assert target < tail_bound(comp, rho, m - 1), (parts, rho, target, m)


def test_eval_li_reuses_the_confirming_probe(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return tail_bound(*args)

    monkeypatch.setattr(numeval, "tail_bound", counted)
    cases = [
        ((2, 1), (0.9, 0.8), 1e-12),
        ((3,), (0.5j,), 1e-15),
        ((1, 2, 1), (0.3 + 0.4j, -1.2, 0.7), 1e-10),
        ((2, 2), (1.0, 0.97), 1e-300),
        ((2,), (0.0,), 1e-12),
    ]
    for parts, args, target in cases:
        comp = Composition(parts)
        rho = float(suffix_moduli(args).max())
        numeval._cutoff_and_bound.cache_clear()
        calls.clear()
        cutoff = choose_cutoff(comp, rho, target)
        probes = len(calls)
        numeval._cutoff_and_bound.cache_clear()
        calls.clear()
        res = eval_li(EvalRequest(comp, args, target))
        # choose_cutoff's probes and no more: the bound is the confirming probe's
        assert len(calls) == probes, (parts, len(calls), probes)
        assert res.cutoff == cutoff
        assert res.tail_bound.hex() == tail_bound(comp, rho, cutoff).hex()
    numeval._cutoff_and_bound.cache_clear()
    calls.clear()
    eval_li(EvalRequest(Composition((2, 1)), (0.9, 0.8), 1e-12))
    assert len(calls) == 2  # three before the bound was reused


def test_kept_cutoff_follows_the_ceiling(monkeypatch):
    req = EvalRequest(Composition((2,)), (0.98,), 1e-12)
    assert eval_li(req).cutoff > 10
    monkeypatch.setattr(numeval, "DEFAULT_MAX_CUTOFF", 10)
    with pytest.raises(CutoffOverflow):
        eval_li(req)  # the same request again: the kept answer must not be reused
    with pytest.raises(CutoffOverflow):
        choose_cutoff(req.indices, 0.98, 1e-12)


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
        column = np.array(args, dtype=np.complex128)[:, None]
        v1 = complex(series_value_batch(comp, column, m)[0])
        v2 = complex(series_value_batch(comp, column, 2 * m)[0])
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


def test_generating_reuses_the_confirming_probe(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return tail_bound(*args)

    monkeypatch.setattr(numeval, "tail_bound", counted)
    rng = random.Random(4447)
    pair = Composition((1, 1))
    for _ in range(40):
        x, y = (rng.uniform(0.05, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in "xy")
        t1, t2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * 1j
        target = 10 ** rng.uniform(-14, -4)
        numeval._cutoff_and_bound.cache_clear()
        calls.clear()
        r = eval_generating_series(x, y, t1, t2, target)
        assert len(calls) == 2, (x, y, t1, t2, target, len(calls))  # choose_cutoff's own
        bulge = 1.0 / ((1.0 - abs(t1)) * (1.0 - 0.5 * abs(t2)))
        expected = bulge * tail_bound(pair, max(abs(x), abs(y)), r.cutoff)
        assert r.tail_bound.hex() == expected.hex()


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


@pytest.mark.parametrize(
    "parts, orders, moduli, target",
    [
        ((3, 1), (8, 3), (0.9, 0.85), 1e-9),
        ((1, 1), (1, 2), (0.8, 0.6), 1e-6),
        ((5, 4), (2, 7), (0.5, 0.9), 1e-12),
    ],
    ids=["7,1-orders-8,3", "1,1-orders-1,2", "5,4-orders-2,7"],
)
def test_orbit_series_within_its_certified_tail(parts, orders, moduli, target):
    # the closed-form tail covers what the cutoffs leave out: compare with a
    # literal double sum far past them (0.9^300 < 1e-13)
    from _oracles import orbit_series_direct

    r1, r2 = moduli
    powers = np.array([[r1 * cmath.exp(0.4j), -r1], [r2 * cmath.exp(-1.3j), 0.5j]])
    values, bound = numeval._orbit_series(parts, orders, powers, target)
    assert 0.0 < bound <= target
    for j in range(2):
        truth = orbit_series_direct(parts, orders, powers[0, j], powers[1, j], 300)
        assert abs(values[j] - truth) <= bound + 1e-15
