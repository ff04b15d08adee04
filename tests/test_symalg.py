import cmath
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mplkit import numeval
from mplkit.symalg import (
    ArgMonomial,
    Composition,
    DepthCapExceeded,
    Expr,
    Identity,
    Term,
    UnboundVariable,
    ZeroBase,
    eval_expr,
    eval_expr_batch,
    li_expr,
    li_factor,
    normalize,
    root_expand,
    root_orbits,
    stuffle_product,
)

from _oracles import li_direct

X = ArgMonomial.variable("x")
Y = ArgMonomial.variable("y")


def random_point(rng, radius=0.6):
    r = rng.uniform(0.1, radius)
    return r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


# ---------------------------------------------------------------------------
# monomials


def test_monomial_canonical_zeta():
    m = ArgMonomial.make({"x": Fraction(1, 2)}, zeta_order=4, zeta_power=6)
    assert m.zeta_order == 2 and m.zeta_power == 1
    n = ArgMonomial.make({"x": Fraction(1, 2)}, zeta_order=2, zeta_power=1)
    assert m == n


def test_monomial_drops_zero_exponents():
    m = ArgMonomial.make({"x": Fraction(0), "y": Fraction(2)})
    assert m.variables == frozenset({"y"})


def test_monomial_checks_exponents_before_dropping_zeros():
    for zero in (0.0, -0.0):
        with pytest.raises(TypeError, match="exact rational"):
            ArgMonomial(0, (("x", zero),))
    with pytest.raises(TypeError, match="exact rational"):
        ArgMonomial(0, (("x", 0.5),))
    assert ArgMonomial(0, (("x", 0), ("y", 1))) == Y


def test_instantiate_examples():
    m = ArgMonomial.make({"x": Fraction(1, 2)}, zeta_order=2, zeta_power=1)
    assert abs(m.instantiate({"x": 0.25}) - (-0.5)) < 1e-15

    m = ArgMonomial.make({"x": Fraction(1), "y": Fraction(-1)})
    assert abs(m.instantiate({"x": 0.3, "y": 0.2}) - 1.5) < 1e-14

    m = ArgMonomial.make({"x": Fraction(1, 3)}, zeta_order=3, zeta_power=1)
    v = m.instantiate({"x": 0.8})
    expected = cmath.exp(2j * math.pi / 3) * 0.8 ** (1 / 3)
    assert abs(v - expected) < 1e-14
    # the three cube-root branches all cube back to 0.8
    for j in range(3):
        mj = ArgMonomial.make({"x": Fraction(1, 3)}, zeta_order=3, zeta_power=j)
        assert abs(mj.instantiate({"x": 0.8}) ** 3 - 0.8) < 1e-13


def test_monomial_str_names_a_root_of_unity_other_than_minus_one():
    assert str(ArgMonomial.make({"x": 1}, 3, 1)) == "zeta_3^1*x"
    assert str(ArgMonomial.make({"x": Fraction(1, 2)}, 2, 1)) == "-1*x^1/2"


def test_instantiate_errors():
    m = ArgMonomial.make({"x": Fraction(1, 2)})
    with pytest.raises(UnboundVariable):
        m.instantiate({"y": 1.0})
    with pytest.raises(ZeroBase):
        m.instantiate({"x": 0.0})


def test_huge_exponent_is_a_value_error_naming_the_variable():
    huge = ArgMonomial.make({"x": Fraction(10**400), "y": 1})
    message = r"exponent of x in an argument monomial has a 401-digit numerator"
    with pytest.raises(ValueError, match=message):
        huge.instantiate({"x": 0.5, "y": 0.5})
    with pytest.raises(ValueError, match=message):
        eval_expr_batch(li_expr([2], [huge]), [{"x": 0.5, "y": 0.5}], 1e-10)
    # an exponent that underflows is no fault: |x|^(10^-400) is 1 to double precision
    tiny = ArgMonomial.make({"x": Fraction(1, 10**400)})
    assert tiny.instantiate({"x": 0.5}) == 1


def test_huge_coefficient_is_a_value_error_naming_the_term():
    e = Expr.from_terms([Term(1, (li_factor([2], [X]),)), Term(10**400, (li_factor([2], [Y]),))])
    with pytest.raises(ValueError, match=r"^coefficient of term \(10{400}\) Li_\(2\)\(y\) "
                       r"has a 401-digit numerator, beyond the double range$"):
        eval_expr_batch(e, [{"x": 0.5, "y": 0.5}], 1e-10)
    # a large coefficient within the double range still evaluates
    big = Expr.from_terms([Term(10**300, (li_factor([2], [X]),))])
    value, mass = eval_expr(big, {"x": 0.5}, 1e290)
    assert value.real == pytest.approx(1e300 * 0.5822405264650125)
    assert mass == pytest.approx(abs(value))


def test_instantiate_multiplicative_no_carry():
    rng = random.Random(5)
    for _ in range(10):
        m1 = ArgMonomial.make({"x": Fraction(1, 2)}, zeta_order=4, zeta_power=1)
        m2 = ArgMonomial.make({"y": Fraction(2, 3)}, zeta_order=3, zeta_power=2)
        asg = {"x": random_point(rng), "y": random_point(rng)}
        lhs = (m1 * m2).instantiate(asg)
        rhs = m1.instantiate(asg) * m2.instantiate(asg)
        assert abs(lhs - rhs) < 1e-13


# ---------------------------------------------------------------------------
# normalization


def test_expr_negation_scaling_str_and_variables():
    e = li_expr([2], [X]) + li_expr([1, 1], [X, Y], Fraction(-1, 2))
    assert str(e) == "(1) Li_(2)(x) + (-1/2) Li_(1,1)(x, y)"
    assert str(-e) == "(-1) Li_(2)(x) + (1/2) Li_(1,1)(x, y)"
    assert str(2 * e) == "(2) Li_(2)(x) + (-1) Li_(1,1)(x, y)"
    assert e.scale(0) == Expr.zero() and str(e.scale(0)) == "0"
    assert e.variables == frozenset({"x", "y"})


def test_normalize_merges_like_terms():
    e = li_expr([2], [X], 2) + li_expr([2], [X], 3)
    assert len(e.terms) == 1
    assert e.terms[0].coeff == 5


def test_normalize_cancels_to_zero():
    e = li_expr([2], [X]) - li_expr([2], [X])
    assert e.is_zero()


def test_normalize_idempotent_and_value_preserving():
    rng = random.Random(9)
    e = (
        li_expr([2, 1], [X, Y], Fraction(3, 7))
        + li_expr([1, 2], [Y, X], -2)
        + li_expr([3], [ArgMonomial.make({"x": 1, "y": 1})], Fraction(1, 2))
    )
    assert normalize(e) == e
    messy = Expr(e.terms + e.terms)  # bypasses from_terms on purpose
    merged = normalize(messy)
    assert normalize(merged) == merged
    asg = {"x": random_point(rng), "y": random_point(rng)}
    v1, _ = eval_expr(merged, asg, 1e-12)
    v2a, _ = eval_expr(e, asg, 1e-12)
    assert abs(v1 - 2 * v2a) < 1e-10


def test_term_ordering_deterministic():
    a = li_expr([2], [X]) + li_expr([1, 1], [X, Y]) + li_expr([2], [Y])
    b = li_expr([2], [Y]) + li_expr([2], [X]) + li_expr([1, 1], [X, Y])
    assert a == b


# a small factor pool, so drawn terms often share a factor product
_POOL = (
    li_factor([2], [X]),
    li_factor([2], [Y]),
    li_factor([1, 2], [Y, X]),
    li_factor([3], [X * Y]),
    li_factor([1], [ArgMonomial.make({"x": Fraction(1, 2)}, 2, 1)]),
)
# each value with its negative, so merged coefficients often cancel to zero
_COEFF = st.sampled_from([1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3)])
_TERMS = st.lists(
    st.tuples(_COEFF, st.lists(st.sampled_from(_POOL), min_size=0, max_size=2)).map(
        lambda cf: Term(Fraction(cf[0]), tuple(cf[1]))
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_TERMS, st.randoms(use_true_random=False))
def test_from_terms_merge_properties(terms, rng):
    e = Expr.from_terms(terms)
    shuffled = list(terms)
    rng.shuffle(shuffled)
    assert Expr.from_terms(shuffled) == e
    split = [Term(q, t.factors) for t in terms for q in (t.coeff / 3, 2 * t.coeff / 3)]
    assert Expr.from_terms(split) == e
    assert Expr.from_terms(e.terms) == e
    assert (e - e).is_zero()
    keys = [t._key() for t in e.terms]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(t.coeff != 0 for t in e.terms)
    expected: dict = {}
    for t in terms:
        expected[t.factors] = expected.get(t.factors, 0) + t.coeff
    assert {t.factors: t.coeff for t in e.terms} == {f: c for f, c in expected.items() if c}


# ---------------------------------------------------------------------------
# evaluation


def test_eval_expr_product_of_factors():
    e = Expr.single(1, [li_factor([1], [X]), li_factor([3], [Y])])
    v, mass = eval_expr(e, {"x": 0.3, "y": 0.4}, 1e-12)
    expected = li_direct((1,), (0.3,), 300) * li_direct((3,), (0.4,), 300)
    assert abs(v - expected) < 1e-11
    assert mass == pytest.approx(abs(expected), rel=1e-9)


def test_eval_expr_empty():
    v, mass = eval_expr(Expr.zero(), {}, 1e-10)
    assert v == 0 and mass == 0


def test_eval_expr_cancelled():
    e = li_expr([2], [X]) - li_expr([2], [X])
    v, mass = eval_expr(e, {"x": 0.5}, 1e-10)
    assert v == 0 and mass == 0


def test_eval_expr_annotates_divergent_term():
    from mplkit.numeval import DivergentRequest

    e = li_expr([2], [X], 1) + li_expr([2, 1], [X, Y], 3)
    with pytest.raises(DivergentRequest, match=r"term .*Li_\(2,1\)"):
        eval_expr(e, {"x": 0.5, "y": 1.2}, 1e-10)


def test_eval_expr_li1_outside_domain_diverges():
    from mplkit.numeval import DivergentRequest

    with pytest.raises(DivergentRequest, match=r"Li_\(1\)\(x\).*at point 0"):
        eval_expr(li_expr([1], [X]), {"x": 3}, 1e-10)


def test_eval_li_and_batch_agree_bit_for_bit():
    # one factor at one point with one budget has one value on either path
    from mplkit.numeval import EvalRequest, eval_li

    rng = random.Random(29)
    shapes = [(1,), (2,), (4,), (1, 1), (2, 1), (1, 3), (2, 1, 1), (1, 2, 1)]
    for i in range(200):
        parts = shapes[i % len(shapes)]
        names = [f"v{k}" for k in range(len(parts))]
        # suffix moduli in (0.05, 0.98), so a single argument may exceed 1
        suffix = [rng.uniform(0.05, 0.98) for _ in parts] + [1.0]
        asg = {
            v: suffix[k] / suffix[k + 1] * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for k, v in enumerate(names)
        }
        monomials = [ArgMonomial.variable(v) for v in names]
        target = 10.0 ** rng.uniform(-14, -4)
        batch, _ = eval_expr(li_expr(parts, monomials), asg, target)
        args = [m.instantiate(asg) for m in monomials]
        single = eval_li(EvalRequest(li_factor(parts, monomials).indices, args, target))
        assert batch == single.value, (parts, args, target)


def _factor_and_others(rng, d, nothers):
    """A seeded depth-d factor, a point, and nothers points whose suffix
    moduli are half the point's, so that a group holding them all has the
    point's cutoff."""
    parts = [rng.randint(1, 3) for _ in range(d)]
    names = [f"v{k}" for k in range(d)]
    suffix = [rng.uniform(0.05, 0.98) for _ in range(d)] + [1.0]
    point = {
        v: suffix[k] / suffix[k + 1] * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        for k, v in enumerate(names)
    }
    others = [
        {v: 0.5 * z * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for v, z in point.items()}
        for _ in range(nothers)
    ]
    return li_expr(parts, [ArgMonomial.variable(v) for v in names]), point, others


def test_eval_batch_value_does_not_depend_on_the_other_points():
    # a factor at a point has the same bits alone as beside a second point
    # whose suffix moduli are smaller, so that the group's cutoff is the same
    rng = random.Random(8)
    for i in range(300):
        e, point, others = _factor_and_others(rng, 1 + i % 3, 1)
        alone, _ = eval_expr_batch(e, [point], 1e-12)
        beside, _ = eval_expr_batch(e, [point, *others], 1e-12)
        assert repr(complex(alone[0])) == repr(complex(beside[0])), (e, point)


def test_eval_batch_value_is_the_same_in_a_wide_group():
    # the same among 63 other points: a group of 64 columns runs the
    # float-pair kernel at every depth, and Li_1 one closed form per column
    rng = random.Random(9)
    for i in range(30):
        e, point, others = _factor_and_others(rng, 1 + i % 3, 63)
        alone, _ = eval_expr_batch(e, [point], 1e-12)
        among, _ = eval_expr_batch(e, [point, *others], 1e-12)
        assert repr(complex(alone[0])) == repr(complex(among[0])), (e, point)


@pytest.mark.parametrize("parts", [(13,), (1, 1, 1, 1, 1)], ids=["weight-13", "depth-5"])
def test_eval_batch_applies_caps(parts):
    e = li_expr(parts, [X] * len(parts))
    with pytest.raises(ValueError, match="above cap"):
        eval_expr_batch(e, [{"x": 0.5}, {"x": 0.3}], 1e-10)


def counting(monkeypatch, name):
    calls = []
    original = getattr(numeval, name)

    def wrapper(indices, *args, **kwargs):
        result = original(indices, *args, **kwargs)
        calls.append((indices, args, result))
        return result

    monkeypatch.setattr(numeval, name, wrapper)
    return calls


def test_eval_batch_one_kernel_call_and_one_cutoff_per_composition(monkeypatch):
    from mplkit.reduction import reduce_li

    cutoffs = counting(monkeypatch, "_cutoff_and_bound")
    kernels = counting(monkeypatch, "_kernel")
    helper = []
    monomial_values = numeval.monomial_values
    monkeypatch.setattr(
        numeval, "monomial_values", lambda ms, asg: helper.append(ms) or monomial_values(ms, asg)
    )
    instantiated = []
    monkeypatch.setattr(ArgMonomial, "instantiate", lambda m, a: instantiated.append(m))
    ident = reduce_li(3, 2)
    # each term its own coefficient: no orbit, every term on the per-term path
    unpaired = Expr.from_terms(
        Term(t.coeff * (1 + Fraction(i, 7**9)), t.factors) for i, t in enumerate(ident.rhs.terms)
    )
    rng = random.Random(4)
    points = [{"x": random_point(rng), "y": random_point(rng)} for _ in range(5)]
    target = 1e-10
    for side in (ident.lhs, unpaired, ident.rhs):
        orbits, leftover = root_orbits(side)
        assert all(o.indices.depth == 2 for o in orbits)  # none contracts to a term
        assert (side is ident.rhs) == bool(orbits)
        cutoffs.clear()
        kernels.clear()
        helper.clear()
        eval_expr_batch(side, points, target)
        # every distinct monomial of the per-term path, every orbit power and
        # every orbit's base-term argument valued by one helper call, none
        # point by point
        assert len(helper) == 1 and not instantiated
        assert set(helper[0]) == {m for t in leftover for f in t.factors for m in f.args} | {
            m for o in orbits for m in o.powers + o.terms[0].factors[0].args
        }
        compositions = {f.indices for t in leftover for f in t.factors}
        called = [Composition(parts) for parts, *_ in kernels]
        assert len(called) == len(set(called)) == len(compositions)
        assert set(called) == compositions
        n_evals = sum(len(t.factors) for t in leftover) + len(orbits)
        per_factor = target / (n_evals * max(abs(float(t.coeff)) for t in leftover))
        assert [indices for indices, *_ in cutoffs] == called  # one cutoff per composition
        for indices, (_, (columns, cutoff), _) in zip(called, kernels):
            assert len(columns) % 5 == 0
            # the cutoff of the group's largest suffix modulus, for every column
            rho = max(max(numeval.suffix_moduli(col)) for col in columns)
            assert 1 <= cutoff and numeval.tail_bound(indices, rho, cutoff) <= per_factor
            assert cutoff == 1 or numeval.tail_bound(indices, rho, cutoff - 1) > per_factor
    helper.clear()
    eval_expr_batch(reduce_li(4, 4).rhs, points, target)
    assert len(helper[0]) == 36  # 3 per-term and orbit-power rows, 33 base-term arguments


def test_eval_batch_grouped_values_match_eval_li(monkeypatch):
    from mplkit.numeval import EvalRequest, eval_li

    kernels = counting(monkeypatch, "_kernel")
    xy = ArgMonomial.make({"x": 1, "y": 1})
    li2x = li_factor([2], [X])
    li1y = li_factor([1], [Y])
    e = Expr.from_terms(
        [
            Term(Fraction(2), (li2x,)),
            Term(Fraction(-3, 2), (li2x, li1y)),  # product term, repeated factor
            Term(Fraction(1), (li_factor([2, 1], [X, Y]),)),
            Term(Fraction(5), (li_factor([2, 1], [Y, xy]),)),
            Term(Fraction(-1), (li_factor([1, 2, 1], [Y, X, xy]),)),
            Term(Fraction(1, 3), (li1y,)),
        ]
    )
    rng = random.Random(11)
    points = [{"x": random_point(rng), "y": random_point(rng)} for _ in range(4)]
    target = 1e-10
    values, _ = eval_expr_batch(e, points, target)

    n_evals = sum(len(t.factors) for t in e.terms)
    per_factor = target / (n_evals * max(abs(float(t.coeff)) for t in e.terms))
    eps = np.finfo(float).eps
    assert sorted(str(Composition(parts)) for parts, _, _ in kernels) == ["(1,2,1)", "(2)", "(2,1)"]
    for parts, (columns, cutoff), got in list(kernels):  # eval_li below adds calls
        indices = Composition(parts)
        for j, col in enumerate(columns):
            ref = eval_li(EvalRequest(indices, col, per_factor)).value
            rounding = 64 * eps * math.sqrt(cutoff * indices.depth) * max(1.0, abs(ref))
            assert abs(got[j] - ref) <= 2 * per_factor + rounding

    # the assembled value against eval_li factor by factor, with the per-factor
    # error 2 * per_factor + rounding propagated through each product
    delta = 2 * per_factor + 1e-13
    for p, asg in enumerate(points):
        expected, allowed = 0j, 0.0
        for t in e.terms:
            refs = [
                eval_li(
                    EvalRequest(f.indices, [a.instantiate(asg) for a in f.args], per_factor)
                ).value
                for f in t.factors
            ]
            expected += float(t.coeff) * np.prod(refs)
            allowed += abs(float(t.coeff)) * (
                np.prod([abs(r) + delta for r in refs]) - np.prod(np.abs(refs))
            )
        assert abs(values[p] - expected) <= allowed


# ---------------------------------------------------------------------------
# quasi-shuffle


def test_stuffle_depth_one():
    e = stuffle_product(li_factor([1], [X]), li_factor([1], [Y]))
    expected = (
        li_expr([1, 1], [X, Y])
        + li_expr([1, 1], [Y, X])
        + li_expr([2], [ArgMonomial.make({"x": 1, "y": 1})])
    )
    assert e == expected


def test_stuffle_rejects_nonpositive_indices():
    with pytest.raises(ValueError):
        li_factor([0], [X])


def test_stuffle_depth_cap():
    f = li_factor([1, 1], [X, Y])
    g = li_factor([1, 1, 1], [X, Y, X])
    with pytest.raises(DepthCapExceeded):
        stuffle_product(f, g)


def test_stuffle_numeric_agreement():
    rng = random.Random(31)
    u = ArgMonomial.variable("u")
    v = ArgMonomial.variable("v")
    cases = [
        (li_factor([2], [X]), li_factor([3], [Y])),
        (li_factor([2], [X]), li_factor([1, 1], [u, v])),
        (li_factor([1, 2], [X, Y]), li_factor([2], [u])),
    ]
    for f, g in cases:
        e = stuffle_product(f, g)
        for _ in range(7):
            asg = {n: random_point(rng, 0.55) for n in ("x", "y", "u", "v")}
            fv = li_direct(f.indices.parts, [a.instantiate(asg) for a in f.args], 220)
            gv = li_direct(g.indices.parts, [a.instantiate(asg) for a in g.args], 220)
            ev, _ = eval_expr(e, asg, 1e-12)
            assert abs(ev - fv * gv) < 1e-10


# ---------------------------------------------------------------------------
# root expansion


def test_root_expand_distribution_instance():
    rng = random.Random(13)
    e = li_expr([2], [X])
    expanded = root_expand(e, "x", 2)
    assert len(expanded.terms) == 2
    for _ in range(5):
        asg = {"x": random_point(rng, 0.8)}
        lhs, _ = eval_expr(expanded, asg, 1e-12)
        rhs, _ = eval_expr(e, asg, 1e-12)
        assert abs(lhs - rhs / 2) < 1e-10  # 2^{1-n} with n = 2


def test_root_expand_order_one_is_identity():
    e = li_expr([2, 1], [X, Y], Fraction(5, 3))
    assert root_expand(e, "x", 1) == e


def test_root_expand_commutes_across_variables():
    e = li_expr([1, 1], [ArgMonomial.make({"x": 1, "y": -1}), Y])
    ab = root_expand(root_expand(e, "x", 2), "y", 3)
    ba = root_expand(root_expand(e, "y", 3), "x", 2)
    assert ab == ba


def test_root_expand_multiplies_free_terms():
    e = li_expr([2], [Y])
    out = root_expand(e, "x", 3)
    assert len(out.terms) == 1
    assert out.terms[0].coeff == 3


def test_root_expand_branch_shift_invariance():
    # shifting every branch index by a constant permutes the summands only
    e = li_expr([2, 1], [ArgMonomial.make({"x": 1, "y": -1}), Y])
    expanded = root_expand(e, "x", 4)
    shift = Fraction(1, 4)

    def shifted(mono):
        p = mono.exponent("x")
        return ArgMonomial(mono.phase + 4 * p * shift, mono.exponents)

    rotated = Expr.from_terms(
        Term(
            t.coeff,
            tuple(
                li_factor(f.indices.parts, [shifted(a) for a in f.args])
                for f in t.factors
            ),
        )
        for t in expanded.terms
    )
    assert rotated == expanded


# ---------------------------------------------------------------------------
# root-of-unity orbits


def _suffixes(f):
    """The suffix monomials a_k ... a_d of a factor's arguments."""
    out = list(f.args)
    for k in range(len(out) - 2, -1, -1):
        out[k] = out[k] * out[k + 1]
    return tuple(out)


# every first suffix monomial is x itself, and no other one holds x
_ORBIT_SOURCE = Expr.from_terms(
    [
        Term(Fraction(5, 3), (li_factor([2, 1], [ArgMonomial.make({"x": 1, "y": -1}), Y]),)),
        Term(Fraction(-2), (li_factor([3, 2], [ArgMonomial.make({"x": 1, "y": -2}), Y.power(2)]),)),
        Term(Fraction(7), (li_factor([3], [X]),)),
    ]
)


@pytest.mark.parametrize("order", [2, 5, 6])
def test_root_orbits_contract_root_expand(order):
    orbits, leftover = root_orbits(root_expand(_ORBIT_SOURCE, "x", order))
    assert leftover == []
    got = {(o.coeff, o.indices, o.orders, o.powers) for o in orbits}
    want = {
        (t.coeff, f.indices, (order, 1)[: f.depth], _suffixes(f))
        for t in _ORBIT_SOURCE.terms
        for f in t.factors
    }
    assert got == want
    assert all(len(o.terms) == order for o in orbits)


def test_root_orbits_take_a_coset_that_is_no_subgroup():
    # x^(1/3) y and x^(1/2): the six branches give suffix phases (j/3, j/2),
    # the full product mu_3 x mu_2, here shifted by (1/7, 0)
    e = li_expr([2, 1], [ArgMonomial.make({"x": -1, "y": 1}, 7, 1), ArgMonomial.make({"x": 3})])
    orbits, leftover = root_orbits(root_expand(e, "x", 6))
    (orbit,) = orbits
    assert leftover == [] and orbit.orders == (3, 2)
    assert orbit.powers == (ArgMonomial.make({"x": 1, "y": 3}, 7, 3), X)


def test_root_orbits_refuse_a_partial_group():
    expanded = root_expand(_ORBIT_SOURCE, "x", 5)
    dropped = Expr(expanded.terms[1:])
    nudged = Expr(
        (Term(expanded.terms[0].coeff + Fraction(1, 7), expanded.terms[0].factors),)
        + expanded.terms[1:]
    )
    for broken in (dropped, nudged):
        orbits, leftover = root_orbits(broken)
        assert len(orbits) == 2
        assert len(leftover) == 5 - (broken is dropped)
        assert {t.factors[0].indices for t in leftover} == {expanded.terms[0].factors[0].indices}


def test_root_orbits_group_on_every_argument():
    # the two square roots of x take the first slot; with equal second
    # arguments they are a full orbit, with different ones two groups of one
    root = ArgMonomial.make({"x": Fraction(1, 2)})
    neg_root = ArgMonomial.make({"x": Fraction(1, 2)}, 2, 1)
    for second, orbit_count in ((Y, 1), (Y.power(2), 0)):
        e = li_expr([2, 1], [root, Y]) + li_expr([2, 1], [neg_root, second])
        orbits, leftover = root_orbits(e)
        assert len(orbits) == orbit_count and len(leftover) == 2 - 2 * orbit_count


def test_root_orbits_leave_an_unmerged_repeat_over():
    # two copies of one term give one suffix-phase tuple for two rows: no coset
    (t,) = li_expr([2], [X]).terms
    assert root_orbits(Expr((t, t))) == ([], [t, t])


def test_root_orbits_leave_products_and_depth_three():
    product = Expr.single(1, [li_factor([1], [X]), li_factor([3], [Y])])
    deep = li_expr([1, 1, 1], [X, Y, X])
    for e in (root_expand(product, "x", 3), root_expand(deep, "x", 3)):
        orbits, leftover = root_orbits(e)
        assert orbits == [] and leftover == list(e.terms)


def test_orbit_suffix_check_is_on_the_roots_and_names_the_point():
    from mplkit.numeval import DivergentRequest

    pair = root_expand(li_expr([2, 1], [ArgMonomial.make({"x": 1, "y": -1}), Y]), "x", 3)
    with pytest.raises(DivergentRequest, match=r"^term .*Li_\(2,1\).*\|a_2...a_2\| = 1.2 "
                       r"exceeds rho_max = 0.99 at point 1$"):
        eval_expr_batch(pair, [{"x": 0.5, "y": 0.5}, {"x": 0.5, "y": 1.2}], 1e-10)
    # W = x passes at 0.985, its square roots w do not: 0.985^(1/2) > 0.99
    single = root_expand(li_expr([2], [X]), "x", 2)
    assert len(root_orbits(single)[0]) == 1
    with pytest.raises(DivergentRequest, match=r"= 0.992472 exceeds rho_max = 0.99 at point 0$"):
        eval_expr_batch(single, [{"x": 0.985}], 1e-10)


def test_orbit_and_its_base_term_share_the_domain_rule_at_the_boundary():
    # at |sqrt x| = 0.99 the last bit of the base term's suffix modulus
    # decides; the orbit Li_2(sqrt x) + Li_2(-sqrt x) is checked on that same
    # suffix_moduli value, so it and its base term alone accept or refuse
    # each point together
    from mplkit.numeval import DivergentRequest

    e = root_expand(li_expr([2], [X]), "x", 2)
    (orbit,), _ = root_orbits(e)
    base = Expr(orbit.terms[:1])

    def accepted(expr, point):
        try:
            eval_expr_batch(expr, [point], 1e-12)
        except DivergentRequest:
            return False
        return True

    rng = random.Random(2030)
    outcomes = set()
    for _ in range(200):
        point = {"x": 0.9801 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))}
        outcome = accepted(e, point)
        assert outcome == accepted(base, point), point
        outcomes.add(outcome)
    assert outcomes == {True, False}  # both sides of the boundary were hit


_SIGNS = (ArgMonomial.make({}), ArgMonomial.make({}, 2, 1))


def _mu2_orbit(parts, w1, w2, coeff=1):
    """coeff times the four terms of Li_parts with suffix products (+-w1, +-w2):
    the mu_2 x mu_2 orbit of Li_parts(+-w1/w2, +-w2)."""
    return Expr.from_terms(
        Term(coeff, (li_factor(parts, [s1 * w1 * (s2 * w2).power(-1), s2 * w2]),))
        for s1 in _SIGNS
        for s2 in _SIGNS
    )


_ROOT_X, _ROOT_Y = ArgMonomial.make({"x": Fraction(1, 2)}), ArgMonomial.make({"y": Fraction(1, 2)})
_ORBIT_POINT = {"x": 0.3 + 0.1j, "y": 0.2 - 0.3j}


def test_orbit_error_paths():
    from mplkit.numeval import BudgetUnderflow

    (orbit,), leftover = root_orbits(_mu2_orbit((2, 1), _ROOT_X, _ROOT_Y))
    assert leftover == [] and orbit.orders == (2, 2) and orbit.powers == (X, Y)
    with pytest.raises(ValueError, match=r"^weight 13 above cap 12$"):
        eval_expr_batch(_mu2_orbit((7, 6), _ROOT_X, _ROOT_Y), [_ORBIT_POINT], 1e-10)
    huge = _mu2_orbit((2, 1), _ROOT_X, _ROOT_Y, 10**300)
    with pytest.raises(BudgetUnderflow, match=r"^error target 1e-300 leaves a target of 0 "
                       r"for the orbit of \(10{300}\) Li_\(2,1\)\(x\^1/2\*y\^-1/2, y\^1/2\)$"):
        eval_expr_batch(huge, [_ORBIT_POINT], 1e-300)


def test_orbit_cutoff_ceiling_is_a_cutoff_overflow(monkeypatch):
    from mplkit.numeval import CutoffOverflow

    monkeypatch.setattr(numeval, "DEFAULT_MAX_CUTOFF", 4)
    with pytest.raises(CutoffOverflow, match=r"^orbit tail bound exceeds target 1\.250e-11 "
                       r"at the cutoff ceiling 4$"):
        eval_expr_batch(_mu2_orbit((2, 1), _ROOT_X, _ROOT_Y), [_ORBIT_POINT], 1e-10)


def test_orbit_whose_powers_underflow_is_zero_with_bound_zero(monkeypatch):
    # suffixes +-y and +-x pass the check at 1e-200, and W = x^2, y^2 round to 0
    series = []
    orbit_series = numeval._orbit_series
    monkeypatch.setattr(
        numeval, "_orbit_series", lambda *a: series.append(orbit_series(*a)) or series[-1]
    )
    e = _mu2_orbit((2, 1), Y, X)
    assert [o.powers for o in root_orbits(e)[0]] == [(Y.power(2), X.power(2))]
    values, masses = eval_expr_batch(e, [{"x": 1e-200, "y": 1e-200}], 1e-10)
    assert values.tolist() == [0j] and masses.tolist() == [0.0]
    ((orbit_values, bound),) = series
    assert orbit_values.tolist() == [0j] and bound == 0.0


@pytest.mark.parametrize("kl", [(2, 2), (3, 2)])
def test_orbit_path_agrees_with_the_per_term_path(monkeypatch, kl):
    # below weight 6 the per-term sum still resolves the right side
    from mplkit.reduction import reduce_li

    rhs = reduce_li(*kl).rhs
    rng = random.Random(17)
    points = [{"x": random_point(rng, 0.7), "y": random_point(rng, 0.7)} for _ in range(8)]
    target = 1e-10
    orbit_values, orbit_masses = eval_expr_batch(rhs, points, target)
    monkeypatch.setattr(numeval, "root_orbits", lambda e: ([], list(e.terms)))
    term_values, term_masses = eval_expr_batch(rhs, points, target)
    eps = np.finfo(float).eps
    for a, b, mass in zip(orbit_values, term_values, term_masses):
        assert abs(a - b) <= 2 * target + 64 * eps * mass
    assert (orbit_masses < term_masses).all()


@pytest.mark.parametrize(
    "source, order",
    [
        (li_expr([4], [ArgMonomial.make({"x": 1, "y": 1})], Fraction(-3, 4)), 4),
        (li_expr([2, 3], [ArgMonomial.make({"x": -1, "y": 1}, 7, 1), X.power(3)], 2), 6),
    ],
    ids=["depth-1", "depth-2-orders-3-2"],
)
def test_orbit_values_match_mpmath_term_sum(source, order):
    from _oracles import expr_mp

    e = root_expand(source, "x", order)
    (orbit,), _ = root_orbits(e)
    assert len(orbit.terms) == order
    # every suffix modulus at most 0.35^(1/2) < 0.6, so 150 terms reach 30 digits
    asg = {"x": 0.35 * cmath.exp(0.7j), "y": 0.3 * cmath.exp(-2.1j)}
    target = 1e-13
    value, mass = eval_expr(e, asg, target)
    truth = expr_mp(e, asg, 150)
    assert abs(value - truth) <= target + 64 * np.finfo(float).eps * mass
    assert mass == pytest.approx(abs(value), rel=1e-12)


# ---------------------------------------------------------------------------
# identities


def test_identity_weight_grading_enforced():
    with pytest.raises(ValueError):
        Identity(
            li_expr([2], [X]),
            li_expr([3], [X]),
            weight=2,
            variables=frozenset({"x"}),
        )


def test_identity_refuses_undeclared_variables():
    Identity(li_expr([2], [X]), li_expr([2], [X]), weight=2, variables={"x", "y"})
    with pytest.raises(ValueError, match=r"rhs term .*Li_\(1,1\)\(x, y\) uses undeclared variables \['y'\]"):
        Identity(
            li_expr([1, 1], [X, X]),
            li_expr([1, 1], [X, Y]) + li_expr([2], [X]),
            weight=2,
            variables=frozenset({"x"}),
        )



# ---------------------------------------------------------------------------
# exact inputs


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize(
    "name, call",
    [
        ("parts[1]", lambda v: Composition((1, v))),
        ("zeta_order", lambda v: ArgMonomial.make({"x": 1}, zeta_order=v)),
        ("zeta_power", lambda v: ArgMonomial.make({"x": 1}, 2, v)),
        ("order", lambda v: root_expand(li_expr([2], [X]), "x", v)),
        ("weight", lambda v: Identity(li_expr([2], [X]), li_expr([2], [X]), v, {"x"})),
    ],
    ids=["composition", "zeta-order", "zeta-power", "root-expand", "identity"],
)
def test_integer_entry_points_refuse_a_float_bool_or_string(name, call, value):
    # int() would truncate 2.0 and read True and "2"; each is refused
    message = "^" + re.escape(f"{name} must be an integer, got {value!r}") + "$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: li_expr([2], [X], coeff=0.1),
        lambda: Expr.single(0.1, [li_factor([2], [X])]),
        lambda: li_expr([2], [X]).scale(0.1),
    ],
    ids=["li-expr", "expr-single", "expr-scale"],
)
def test_float_coefficients_are_refused_not_binary_expanded(call):
    with pytest.raises(TypeError, match=r"^exact rational required, got float 0\.1$"):
        call()
