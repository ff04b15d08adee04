import cmath
import dataclasses
import gc
import hashlib
import math
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mplkit import coalgebra
from mplkit.coalgebra import (
    Combination,
    GeneratorCombination,
    GeneratorTerm,
    GroupElement,
    InfeasibleWeights,
    PolylogCombination,
    PolylogSymbol,
    RootCapExceeded,
    TensorElement,
    cobracket_image,
    compositions_min2,
    construct_preimage,
    distribution_contract,
    distribution_expand,
    root_sum_generator,
    tensor_distribution_contract,
    verify_preimage,
    _collapse,
    _generator_pairs,
    _isolation_coefficients,
    _lowest,
    _power_key,
    _symbol_from_key,
)
from mplkit.numeval import Composition, EvalRequest, eval_li
from mplkit.serialize import generator_combination_dumps, preimage_report_dumps
from mplkit.symalg import ArgMonomial, Expr, MPLFactor, Term, li_expr, li_factor, root_expand

from _oracles import (
    compositions_brute,
    image_reference,
    isolation_reference,
    preimage_reference,
    roots_reference,
    tensor_contract_reference,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

A = GroupElement.generator("a1")
B = GroupElement.generator("a2")
C = GroupElement.generator("a3")


def word(*pairs):
    return tuple(PolylogSymbol(n, g) for n, g in pairs)


# ---------------------------------------------------------------------------
# cached identity


def _fields_key(g):
    return (
        g.phase.numerator,
        g.phase.denominator,
        tuple((v, e.numerator, e.denominator) for v, e in g.exponents),
    )


def test_cached_key_is_consistent():
    g = GroupElement.make({"a1": 2, "a2": Fraction(-1, 2)}, 4, 1)
    routes = [
        GroupElement.make({"a2": Fraction(-1, 2), "a1": Fraction(2)}, 8, 2),
        GroupElement.make({"a1": 2, "a2": Fraction(-1, 2), "a3": 0}, 4, 5),
        g.roots(2)[3].power(4),
        g.roots(1)[0].power(2),
        GroupElement.make({"a1": 1, "a2": Fraction(-1, 4)}, 8, 1).power(2),
    ]
    assert GroupElement.generator("a1").power(2) == GroupElement.make({"a1": 2})
    assert hash(GroupElement.generator("a1").power(2)) == hash(GroupElement.make({"a1": 2}))
    for other in routes:
        assert other == g and hash(other) == hash(g) and other._key() == g._key()
        assert other._key() == _fields_key(other)
        s, t = PolylogSymbol(3, g), PolylogSymbol(3, other)
        assert s == t and hash(s) == hash(t) and s._key() == t._key() == (3, _fields_key(g))

    h = dataclasses.replace(g, phase=Fraction(1, 2))
    assert h == GroupElement.make({"a1": 2, "a2": Fraction(-1, 2)}, 2, 1)
    assert h._key() == _fields_key(h) and hash(h) == hash(_fields_key(h))
    assert h != g and h._key() != g._key()
    s = dataclasses.replace(PolylogSymbol(3, g), n=4, arg=h)
    assert s == PolylogSymbol(4, h) and s._key() == (4, _fields_key(h))
    assert hash(s) == hash(PolylogSymbol(4, h))

    t = GeneratorTerm(5, [g, h])
    for args in ((routes[0], h), (routes[2], dataclasses.replace(g, phase=Fraction(1, 2)))):
        u = GeneratorTerm(5, args)
        assert u == t and hash(u) == hash(t)
        assert u._key() == t._key() == (5, 2, (_fields_key(g), _fields_key(h)))
    u = dataclasses.replace(t, weight=6, args=(h,))
    assert u == GeneratorTerm(6, (h,)) and u._key() == (6, 1, (_fields_key(h),))
    assert hash(u) == hash(GeneratorTerm(6, (h,))) and u != t


def _factor_fields_key(f):
    parts = f.indices.parts
    return (sum(parts), len(parts), parts, tuple(_fields_key(a) for a in f.args))


def test_factor_and_term_keys_are_consistent():
    x, y = ArgMonomial.variable("x"), ArgMonomial.make({"y": Fraction(1, 2)}, 4, 1)
    f = li_factor([3, 1], [x, y])
    routes = [
        MPLFactor(Composition((3, 1)), [ArgMonomial.make({"x": 1}), y.roots(1)[0].power(2)]),
        li_factor((3, 1), (x.power(2).roots(1)[0], ArgMonomial.make({"y": Fraction(2, 4)}, 8, 2))),
        dataclasses.replace(li_factor([2, 2], [x, y]), indices=Composition((3, 1))),
    ]
    for other in routes:
        assert other == f and hash(other) == hash(f)
        assert other._key() == f._key() == _factor_fields_key(other)
    g = li_factor([4], [ArgMonomial.make({"x": 1, "y": 1})])
    assert g != f and g._key() == _factor_fields_key(g) != f._key()

    t = Term(Fraction(3, 2), (f, g))
    u = Term(Fraction(3, 2), [routes[1], g])
    assert t.factors == (g, f) and u == t and hash(u) == hash(t)  # depth 1 sorts first
    assert t._key() == u._key() == (8, 2, (_factor_fields_key(g), _factor_fields_key(f)))
    v = dataclasses.replace(t, coeff=Fraction(-1))
    assert v != t and v._key() == t._key()  # the merge key leaves out the coefficient
    w = dataclasses.replace(t, factors=(g,))
    assert w._key() == (4, 1, (_factor_fields_key(g),)) and w != t

    # equal keys of different types are different objects
    assert GroupElement.generator("a") != ArgMonomial.variable("a")
    assert GroupElement.generator("a")._key() == ArgMonomial.variable("a")._key()


def test_group_element_checks_its_input_like_any_monomial():
    with pytest.raises(ValueError, match="duplicate variable"):
        GroupElement(0, (("a", 1), ("a", 1)))
    with pytest.raises(TypeError, match="exact rational"):
        GroupElement(0, (("a", 0.1),))
    with pytest.raises(TypeError, match="exact rational"):
        GroupElement(0.5, (("a", 1),))
    with pytest.raises(ValueError, match="non-2-power"):
        GroupElement(0, (("a", Fraction(1, 3)),))
    assert GroupElement(0, (("a", 2),)) == GroupElement.make({"a": 2})
    with pytest.raises(TypeError, match="exact rational"):
        GroupElement(0, (("a", 0.0),))


def test_combination_of_mixed_kinds_names_the_kinds():
    a = GroupElement.make({"a": 1})
    s, g = PolylogSymbol(2, a), GeneratorTerm(3, (a,))
    mixed = [
        ([(s, 1), ((s,), 1)], "classical symbol and tensor word"),
        ([(s, 1), (g, 1)], "classical symbol and generator"),
        ([((s,), 1), (g, 1)], "generator and tensor word"),
    ]
    for pairs, kinds in mixed:
        with pytest.raises(ValueError, match=kinds):
            PolylogCombination.from_terms(pairs)
        with pytest.raises(ValueError, match=kinds):
            PolylogCombination(tuple((x, Fraction(c)) for x, c in pairs))


def test_pickled_group_element_is_a_dict_key_under_another_hash_seed():
    g = GroupElement.make({"a1": Fraction(3, 2), "b": -1}, 8, 3)
    assert {g: 1}[g] == 1  # hashed here before it is pickled
    script = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from mplkit.coalgebra import GroupElement, PolylogSymbol\n"
        "g = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
        "fresh = GroupElement.make({'b': -1, 'a1': Fraction(3, 2)}, 8, 3)\n"
        "assert g in {fresh: 1} and fresh in {g: 1}\n"
        "assert PolylogSymbol(2, g) in {PolylogSymbol(2, fresh): 1}\n"
        "print(hash('a1'))\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, pickle.dumps(g).hex()],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) != hash("a1")  # the string hashes really differ


# ---------------------------------------------------------------------------
# the image map


def test_image_unique_composition():
    te = cobracket_image(GeneratorTerm(4, (A, B)))
    assert te.terms == TensorElement.single(word((2, A), (2, B))).terms


def test_image_two_compositions():
    te = cobracket_image(GeneratorTerm(5, (A, B)))
    expected = TensorElement.single(word((2, A), (3, B))) + TensorElement.single(
        word((3, A), (2, B))
    )
    assert te == expected


def test_image_empty_below_threshold():
    assert cobracket_image(GeneratorTerm(3, (A, B))).is_zero()


def test_image_depth3_matches_brute_force():
    te = cobracket_image(GeneratorTerm(7, (A, B, C)))
    assert len(te.terms) == 3
    assert compositions_min2(7, 3) == compositions_brute(7, 3, 2)
    comps = {tuple(s.n for s in w) for w, _ in te.terms}
    assert comps == set(compositions_brute(7, 3, 2))


def test_image_is_linear():
    combo = GeneratorCombination.from_terms(
        [
            (GeneratorTerm(5, (A, B)), Fraction(2, 3)),
            (GeneratorTerm(5, (A, GroupElement.generator("b"))), Fraction(-1)),
        ]
    )
    lhs = cobracket_image(combo)
    rhs = (
        cobracket_image(GeneratorTerm(5, (A, B))).scale(Fraction(2, 3))
        + cobracket_image(
            GeneratorTerm(5, (A, GroupElement.generator("b")))
        ).scale(-1)
    )
    assert lhs == rhs
    preimage = construct_preimage((3, 3, 2), (A, B, C))
    termwise = TensorElement()
    for g, c in preimage.terms:
        termwise = termwise + cobracket_image(g).scale(c)
    assert len(preimage.terms) > 1
    assert cobracket_image(preimage) == termwise


@st.composite
def _hand_built_generator_combinations(draw):
    """(generator, coeff) pairs of one weight and depth 1-4, arguments drawn
    from a pool of two per slot so they repeat across terms; the same
    generator may occur more than once."""
    depth = draw(st.integers(1, 4))
    weight = draw(st.integers(depth, 2 * depth + 3))
    pools = [[draw(_key_symbols()).arg for _ in range(2)] for _ in range(depth)]
    return [
        (GeneratorTerm(weight, tuple(draw(st.sampled_from(pool)) for pool in pools)), draw(_COEFFS))
        for _ in range(draw(st.integers(1, 8)))
    ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_hand_built_generator_combinations())
def test_image_equals_merged_construction(pairs):
    expected = image_reference(pairs)
    assert cobracket_image(Combination(tuple(pairs))).terms == expected.terms
    assert cobracket_image(Combination.from_terms(pairs)).terms == expected.terms
    if len(pairs) == 1:
        assert cobracket_image(pairs[0][0]).terms == image_reference([(pairs[0][0], 1)]).terms


def test_image_of_repeated_generator_is_merged():
    g = GeneratorTerm(5, (A, B))
    twice = Combination(((g, Fraction(1)), (g, Fraction(2))))
    assert cobracket_image(twice) == cobracket_image(GeneratorCombination.single(g, 3))
    cancelled = Combination(((g, Fraction(1)), (g, Fraction(-1))))
    assert cobracket_image(cancelled).is_zero()


# ---------------------------------------------------------------------------
# distribution relations


def minus(g):
    return GroupElement(g.phase + Fraction(1, 2), g.exponents)


def test_contract_pairs_to_square():
    e = PolylogCombination.from_terms(
        [(PolylogSymbol(2, B), Fraction(1)), (PolylogSymbol(2, minus(B)), Fraction(1))]
    )
    out = distribution_contract(e, 2)
    assert out.terms == (
        (PolylogSymbol(2, B.power(2)), Fraction(1, 2)),
    )


def test_contract_leaves_partial_orbit():
    e = PolylogCombination.from_terms([(PolylogSymbol(2, B), Fraction(1))])
    assert distribution_contract(e, 2) == e


def test_contract_leaves_unequal_coefficients():
    e = PolylogCombination.from_terms(
        [(PolylogSymbol(2, B), Fraction(1)), (PolylogSymbol(2, minus(B)), Fraction(2))]
    )
    assert distribution_contract(e, 2) == e


def test_contract_idempotent():
    e = PolylogCombination.from_terms(
        [
            (PolylogSymbol(3, g), Fraction(1, 4))
            for g in B.roots(2)  # full orbit of fourth roots collapses fully
        ]
    )
    once = distribution_contract(e, 2)
    assert distribution_contract(once, 2) == once
    assert once.terms == ((PolylogSymbol(3, B), Fraction(1, 4) * Fraction(1, 16)),)


def test_contract_numeric_consistency():
    rng = random.Random(404)

    def value(combo, asg):
        return sum(
            float(c) * eval_li(
                EvalRequest(Composition((s.n,)), (s.arg.instantiate(asg),), 1e-12)
            ).value
            for s, c in combo.terms
        )

    e = PolylogCombination.from_terms(
        [(PolylogSymbol(2, B), Fraction(1)), (PolylogSymbol(2, minus(B)), Fraction(1))]
    )
    out = distribution_contract(e, 2)
    for _ in range(5):
        z = rng.uniform(0.1, 0.8) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        asg = {"a2": z}
        assert abs(value(e, asg) - value(out, asg)) < 1e-10


def test_contract_merges_collapsed_orbit_with_existing_term():
    # Li_2(x) + Li_2(-x) collapses to 1/2 Li_2(x^2), which completes the
    # orbit {Li_2(x^2), Li_2(-x^2)} with coefficient 1
    x2 = B.power(2)
    e = PolylogCombination.from_terms(
        [
            (PolylogSymbol(2, B), Fraction(1)),
            (PolylogSymbol(2, minus(B)), Fraction(1)),
            (PolylogSymbol(2, x2), Fraction(1, 2)),
            (PolylogSymbol(2, minus(x2)), Fraction(1)),
        ]
    )
    once = distribution_contract(e, 2)
    assert once.terms == ((PolylogSymbol(2, B.power(4)), Fraction(1, 2)),)
    assert distribution_contract(once, 2) == once


def test_contract_sums_two_collapses_exactly():
    # slot 1 collapses Li_2(x) + Li_2(-x) onto Li_2(x^2) (x) Li_2(y) with 1/2 and
    # 2 Li_2(ix) + 2 Li_2(-ix) onto Li_2(-x^2) (x) Li_2(y) with 1; slot 2 then
    # adds 1/2 to the first, and the two, now equal, collapse onto Li_2(x^4)
    def turned(g, phase):
        return GroupElement(g.phase + phase, g.exponents)

    root_y = GroupElement(0, (("a3", Fraction(1, 2)),))
    te = TensorElement.from_terms([
        (word((2, B), (2, C)), Fraction(1)),
        (word((2, minus(B)), (2, C)), Fraction(1)),
        (word((2, turned(B, Fraction(1, 4))), (2, C)), Fraction(2)),
        (word((2, turned(B, Fraction(3, 4))), (2, C)), Fraction(2)),
        (word((2, B.power(2)), (2, root_y)), Fraction(1)),
        (word((2, B.power(2)), (2, minus(root_y))), Fraction(1)),
    ])
    got = tensor_distribution_contract(te, 2)
    assert got.terms == ((word((2, B.power(4)), (2, C)), Fraction(1, 2)),)
    assert got == tensor_contract_reference(te, 2)


def _orbit(sym, r):
    """Every Li_n(zeta * arg) with zeta^r = 1."""
    return [
        PolylogSymbol(sym.n, GroupElement(sym.arg.phase + Fraction(j, r), sym.arg.exponents))
        for j in range(r)
    ]


# denominators sharing a factor with the orbit order r and ones that do not
_COEFFS = st.sampled_from([
    Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2, 3), Fraction(3),
    Fraction(1, 4), Fraction(-3, 8), Fraction(1, 6), Fraction(5, 9),
])


@st.composite
def _contraction_cases(draw):
    """(tensor element, r): random words from a small symbol pool plus
    planted complete orbits with equal or unequal coefficients, partial
    orbits, orbits whose contraction completes the next orbit up, alone or
    summed with a word already present, and orbits whose contraction
    cancels a word already present."""
    r = draw(st.sampled_from((2, 3, 4)))
    weights = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))

    def symbol(n):
        phase = Fraction(draw(st.integers(0, r * r - 1)), r * r)
        var = draw(st.sampled_from(("a1", "a2")))
        e = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1))))
        return PolylogSymbol(n, GroupElement(phase, ((var, e),)))

    def with_slot(w, k, sym):
        return w[:k] + (sym,) + w[k + 1 :]

    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        w = tuple(symbol(n) for n in weights)
        c = draw(_COEFFS)
        kind = draw(st.sampled_from(("word", "equal", "unequal", "partial", "collide", "cancel")))
        if kind == "word":
            pairs.append((w, c))
            continue
        k = draw(st.integers(0, len(w) - 1))
        orbit = [with_slot(w, k, s) for s in _orbit(w[k], r)]
        if kind == "partial":
            orbit = orbit[: draw(st.integers(1, r - 1))]
        pairs += [(v, c) for v in orbit]
        if kind == "unequal":
            pairs.append((orbit[draw(st.integers(0, r - 1))], Fraction(1)))
        if kind == "collide":
            up = _orbit(PolylogSymbol(w[k].n, w[k].arg.power(r)), r)
            c_up = c / r ** (w[k].n - 1)
            planted = draw(st.booleans())  # the collapsed word is present already
            if planted:
                pairs.append((with_slot(w, k, up[0]), c_up))
            if draw(st.booleans()):
                pairs += [(with_slot(w, k, s), (1 + planted) * c_up) for s in up[1:]]
        if kind == "cancel":
            up = PolylogSymbol(w[k].n, w[k].arg.power(r))
            pairs.append((with_slot(w, k, up), -c / r ** (w[k].n - 1)))
    return TensorElement.from_terms(pairs), r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_contraction_cases())
def test_tensor_contract_matches_reference(case):
    te, r = case
    got = tensor_distribution_contract(te, r)
    assert got == tensor_contract_reference(te, r)
    assert tensor_distribution_contract(got, r) == got
    assert tensor_distribution_contract(te, 1) == te
    if te.terms and len(te.terms[0][0]) == 1:
        e = PolylogCombination.from_terms((w[0], c) for w, c in te.terms)
        assert distribution_contract(e, r).terms == tuple((w[0], c) for w, c in got.terms)


@st.composite
def _grouped_contraction_cases(draw):
    """(tensor element, r) built one argument tuple at a time, each tuple
    held at several compositions of one weight: complete orbits in one slot
    with one coefficient per composition, complete orbits whose members
    agree at some compositions only, partial orbits, arguments repeated
    across slots and tuples, and orbits whose collapse cancels a word
    already present."""
    r = draw(st.sampled_from((2, 3, 4)))
    depth = draw(st.integers(1, 3))
    comps = compositions_min2(draw(st.integers(2 * depth, 2 * depth + 3)), depth)
    variables, exponents = st.sampled_from(("a1", "a2")), st.sampled_from((Fraction(1), Fraction(-1, 2)))
    pool = [  # three arguments, so slots and tuples repeat them
        GroupElement(Fraction(draw(st.integers(0, r * r - 1)), r * r), ((draw(variables), draw(exponents)),))
        for _ in range(3)
    ]
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        args = tuple(draw(st.sampled_from(pool)) for _ in range(depth))
        at = draw(st.lists(st.sampled_from(comps), min_size=1, unique=True))
        coeffs = {ns: draw(_COEFFS) for ns in at}
        kind = draw(st.sampled_from(("tuple", "orbit", "partial", "some-agree", "cancel")))
        k = draw(st.integers(0, depth - 1))
        orbit = [GroupElement(args[k].phase + Fraction(j, r), args[k].exponents) for j in range(r)]
        members = [args[:k] + (b,) + args[k + 1 :] for b in orbit]
        if kind == "tuple":
            members = [args]
        if kind == "partial":
            members = members[: draw(st.integers(1, r - 1))]
        for j, t in enumerate(members):
            for ns in at:
                differs = kind == "some-agree" and j == 0 and draw(st.booleans())  # ns stays
                pairs.append((tuple(map(PolylogSymbol, ns, t)), coeffs[ns] + 1 if differs else coeffs[ns]))
        if kind == "cancel":
            up = args[:k] + (args[k].power(r),) + args[k + 1 :]
            pairs += [(tuple(map(PolylogSymbol, ns, up)), -coeffs[ns] / r ** (ns[k] - 1))
                      for ns in at]
    return TensorElement.from_terms(pairs), r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_grouped_contraction_cases())
def test_grouped_contraction_matches_reference(case):
    te, r = case
    assert tensor_distribution_contract(te, r) == tensor_contract_reference(te, r)


@pytest.mark.parametrize("mutation", ["coefficient-changed", "term-dropped", "off-grid-term-added"])
def test_mutated_preimage_matches_the_reference_contraction(mutation):
    weights, args = (3, 2, 2), (A, B, C)
    terms = construct_preimage(weights, args).terms
    if mutation == "coefficient-changed":
        terms = ((terms[0][0], terms[0][1] + Fraction(1, 7)),) + terms[1:]
    elif mutation == "term-dropped":
        terms = terms[:-1]
    else:  # a third root of unity lies on no 2-power orbit
        terms += ((GeneratorTerm(7, (A, GroupElement(Fraction(1, 3), B.exponents), C)), Fraction(1)),)
    report = verify_preimage(Combination.from_terms(terms), weights, args)
    reference = tensor_contract_reference(image_reference(terms), 2)  # shares no code with the check
    assert not report.matched
    assert report.image == reference
    assert report.residual == reference - report.target


_KEY_EXPONENTS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(3), Fraction(-2)]
    + [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 8)]
)


@st.composite
def _key_symbols(draw):
    """Li_n(zeta * a1^e1 * b^e2) with phases j/8 and j/3."""
    phase = Fraction(draw(st.integers(0, 23)), draw(st.sampled_from((8, 3))))
    exps = draw(st.dictionaries(st.sampled_from(("a1", "a2", "b")), _KEY_EXPONENTS, max_size=3))
    return PolylogSymbol(draw(st.integers(2, 6)), GroupElement(phase, tuple(exps.items())))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_key_symbols(), st.sampled_from((1, 2, 3, 4)))
def test_power_key_is_the_key_of_the_power(sym, r):
    up = _power_key(sym.arg._k, r)
    assert (sym.n, up) == PolylogSymbol(sym.n, sym.arg.power(r))._k
    assert up[:2] == ((sym.arg.phase * r) % 1).as_integer_ratio()  # the orbit's phase
    # the r symbols of one orbit share the power key, and only they do
    orbit = _orbit(sym, r)
    assert {_power_key(s.arg._k, r) for s in orbit} == {up}
    other = GroupElement(sym.arg.phase + Fraction(1, 2 * r), sym.arg.exponents)
    assert _power_key(other._k, r) != up
    rebuilt = _symbol_from_key(sym._k)
    assert rebuilt == sym and rebuilt._k == sym._k and hash(rebuilt) == hash(sym)
    assert _symbol_from_key((sym.n, up)) == PolylogSymbol(sym.n, sym.arg.power(r))


@st.composite
def _root_summed_combinations(draw):
    """Small root-summed generator combinations (weight <= 7, depth <= 3),
    some of them perturbed, with a weight tuple of their shape."""
    depth = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(2, 3), min_size=depth, max_size=depth)))
    args = tuple(draw(_key_symbols()).arg for _ in range(depth))
    combo = GeneratorCombination.single(GeneratorTerm(sum(weights), args))
    for _ in range(draw(st.integers(0, 2))):
        slot, s = draw(st.integers(1, depth)), draw(st.integers(0, 2))
        summed = root_sum_generator(combo, slot, s).scale(draw(_COEFFS))
        combo = summed if draw(st.booleans()) else combo + summed
    if combo.terms and draw(st.booleans()):
        g, c = combo.terms[draw(st.integers(0, len(combo.terms) - 1))]
        combo = combo + GeneratorCombination.single(g, draw(_COEFFS))
    return combo, weights, args


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_root_summed_combinations())
def test_verify_preimage_image_matches_reference(case):
    combo, weights, args = case
    report = verify_preimage(combo, weights, args)
    assert report.image == tensor_contract_reference(cobracket_image(combo), 2)


def test_constructed_preimage_images_match_reference():
    slot_args = (A, B.power(-1), GroupElement(Fraction(3, 8), (("a3", Fraction(1, 2)),)))
    for weights in ((2, 2), (3, 2), (2, 3), (5, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2)):
        args = slot_args[: len(weights)]
        p = construct_preimage(weights, args)
        report = verify_preimage(p, weights, args)
        assert report.matched
        assert report.image == tensor_contract_reference(cobracket_image(p), 2)


@pytest.mark.parametrize("enabled", [True, False])
def test_verify_preimage_restores_the_collector(enabled, monkeypatch):
    p = construct_preimage((3, 2), (A, B))
    seen = []

    def contract(words, ids, r):
        seen.append(gc.isenabled())
        raise RuntimeError("contraction failed")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert verify_preimage(p, (3, 2), (A, B)).matched
        assert gc.isenabled() == enabled
        monkeypatch.setattr(coalgebra, "_contract", contract)  # the fixpoint the check runs
        with pytest.raises(RuntimeError, match="contraction failed"):
            verify_preimage(p, (3, 2), (A, B))
        assert gc.isenabled() == enabled
        assert seen == [False]  # paused during the check
    finally:
        (gc.enable if was else gc.disable)()


def _edge_cases():
    """(combination, weights, args) at the edges of the check on integer words."""
    g = GeneratorTerm(5, (A, B))
    p32 = construct_preimage((3, 2), (A, B))
    scales = [Fraction(1, 3), Fraction(-2, 5), Fraction(3, 8), Fraction(5, 6)]
    roots_of_b = root_sum_generator(GeneratorCombination.single(g), 2, 1)
    return {
        "empty": (GeneratorCombination(), (2, 2), (A, B)),
        "weight-below-twice-depth": (GeneratorCombination.single(GeneratorTerm(5, (A, B, C))), (2, 2, 2), (A, B, C)),
        "repeated-generator": (Combination(p32.terms + p32.terms[:1] + ((g, Fraction(-1)),)), (3, 2), (A, B)),
        "mixed-denominators": (
            Combination(tuple((h, c * q) for (h, c), q in zip(p32.terms, scales))), (3, 2), (A, B)
        ),
        "argument-in-two-slots": (construct_preimage((3, 2), (A, A)), (3, 2), (A, A)),
        "power-not-an-input": (roots_of_b, (2, 3), (A, B)),
        "depth-1": (
            root_sum_generator(GeneratorCombination.single(GeneratorTerm(3, (A,))), 1, 2), (3,), (A,)
        ),
    }


@pytest.mark.parametrize("name", list(_edge_cases()))
def test_verify_preimage_edge_cases_match_the_public_path(name):
    p, weights, args = _edge_cases()[name]
    report = verify_preimage(p, weights, args)
    assert report.image == tensor_distribution_contract(cobracket_image(p), 2)
    reference = tensor_contract_reference(image_reference(p.terms), 2)  # shares no code with the check
    assert report.image == reference
    expected = coalgebra.PreimageReport(report.target, reference, reference - report.target)
    assert preimage_report_dumps(report) == preimage_report_dumps(expected)
    if name == "power-not-an-input":  # Li_n(b) is built from its key
        assert {w[1].arg for w, _ in report.image.terms} == {B}
        assert all(B not in h.args for h, _ in p.terms)


def test_expand_contract_round_trip_r2():
    e = PolylogCombination.from_terms([(PolylogSymbol(4, B), Fraction(5, 7))])
    assert distribution_contract(distribution_expand(e, 2), 2) == e


def test_expand_contract_round_trip_r3():
    cube = B.power(3)
    e = PolylogCombination.from_terms([(PolylogSymbol(3, cube), Fraction(2))])
    assert distribution_contract(distribution_expand(e, 3), 3) == e


def test_expand_rejects_non_2power_denominators():
    e = PolylogCombination.from_terms([(PolylogSymbol(3, B), Fraction(1))])
    with pytest.raises(ValueError):
        distribution_expand(e, 3)


# ---------------------------------------------------------------------------
# the root rule: every root set from one principal root


def _assert_same_monomials(got, want):
    """Equal in order, with equal types, fields, keys and hashes."""
    assert [type(m) for m in got] == [type(m) for m in want]
    assert [vars(m) for m in got] == [vars(m) for m in want]
    assert [hash(m) for m in got] == [hash(m) for m in want]


def _seeded_monomials(cls, count, seed):
    """Monomials with phases of denominator up to 16 and exponents in a and b,
    of 2-power denominators for a GroupElement and any up to 16 otherwise."""
    rng = random.Random(seed)
    dens = (1, 2, 4, 8, 16) if cls is GroupElement else range(1, 17)
    out = [cls(), cls(Fraction(1, 2))]
    while len(out) < count:
        q = rng.randint(1, 16)
        exps = [(v, Fraction(rng.randint(-5, 5), rng.choice(dens))) for v in "ab"]
        out.append(cls(Fraction(rng.randrange(q), q), tuple(e for e in exps if rng.random() < 0.7)))
    return out


@pytest.mark.parametrize("cls", [ArgMonomial, GroupElement])
def test_roots_match_the_per_root_formula(cls):
    orders = range(1, 9) if cls is ArgMonomial else (1, 2, 4, 8)
    for m in _seeded_monomials(cls, 40, 23):
        for r in orders:
            _assert_same_monomials(m._roots(r), roots_reference(m, r))
        for s in range(5):
            _assert_same_monomials(m.roots(s), roots_reference(m, 2**s))
    for m in _seeded_monomials(cls, 20, 5):  # third roots of a root of unity stay legal
        phase_only = cls(m.phase)
        _assert_same_monomials(phase_only._roots(3), roots_reference(phase_only, 3))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_distribution_expand_matches_the_per_root_formula(r):
    args = [g if r != 3 else GroupElement(g.phase) for g in _seeded_monomials(GroupElement, 12, r)]
    args.append(B.power(3))  # a variable whose cube roots are legal
    weights = (2, 3, 4) * 5
    e = PolylogCombination.from_terms(
        (PolylogSymbol(n, a), Fraction(k, 7)) for k, (n, a) in enumerate(zip(weights, args), 1)
    )
    want = PolylogCombination.from_terms(
        (PolylogSymbol(sym.n, root), c * r ** (sym.n - 1))
        for sym, c in e.terms
        for root in roots_reference(sym.arg, r)
    )
    got = distribution_expand(e, r)
    assert [c for _, c in got.terms] == [c for _, c in want.terms]
    assert [s.n for s, _ in got.terms] == [s.n for s, _ in want.terms]
    _assert_same_monomials([s.arg for s, _ in got.terms], [s.arg for s, _ in want.terms])


def test_third_root_of_a_variable_is_refused_with_the_same_message():
    message = "^exponent 1/3 of a2 has a non-2-power denominator$"
    with pytest.raises(ValueError, match=message):
        B._roots(3)
    with pytest.raises(ValueError, match=message):
        distribution_expand(PolylogCombination.single(PolylogSymbol(3, B)), 3)


# ---------------------------------------------------------------------------
# integer parameters

_E = PolylogCombination.single(PolylogSymbol(3, A))


@pytest.mark.parametrize(
    "call, name, value",
    [  # one entry point each, bool and non-int exact numbers included
        (lambda: construct_preimage((2.5, 2), (A, B)), "weights[0]", 2.5),
        (lambda: verify_preimage(GeneratorCombination(), (2, 2.5), (A, B)), "weights[1]", 2.5),
        (lambda: construct_preimage((True, 2), (A, B)), "weights[0]", True),
        (lambda: PolylogSymbol(2.0, A), "n", 2.0),
        (lambda: GeneratorTerm(5.0, (A, B)), "weight", 5.0),
        (lambda: GeneratorTerm(True, (A,)), "weight", True),
        (lambda: distribution_expand(_E, True), "r", True),
        (lambda: distribution_contract(_E, 2.0), "r", 2.0),
        (lambda: tensor_distribution_contract(TensorElement.single(word((3, A))), 2.0), "r", 2.0),
        (lambda: root_sum_generator(GeneratorCombination(), 1.0, 1), "slot", 1.0),
        (lambda: root_sum_generator(GeneratorCombination(), 1, Fraction(1)), "s", Fraction(1)),
        (lambda: A.roots(1.5), "s", 1.5),
        pytest.param(lambda: A.power(True), "r", True, id="power-r-True"),
        pytest.param(lambda: A.power(Fraction(1, 2)), "r", Fraction(1, 2), id="power-r-1/2"),
        pytest.param(lambda: A.power(2.0), "r", 2.0, id="power-r-2.0"),
        (lambda: PolylogSymbol(True, A), "n", True),
        (lambda: PolylogSymbol("2", A), "n", "2"),
        (lambda: GeneratorTerm("5", (A, B)), "weight", "5"),
    ],
)
def test_integer_parameters_refuse_other_types(call, name, value):
    message = "^" + re.escape(f"{name} must be an integer, got {value!r}") + "$"
    with pytest.raises(ValueError, match=message):
        call()


_G = GeneratorCombination.single(GeneratorTerm(5, (A, B)))
_ORDER = "orbit order must be a positive integer"


@pytest.mark.parametrize(
    "call, error, message",
    [  # integers of the right type out of range, one entry point each
        (lambda: PolylogSymbol(1, A), ValueError, "symbol weight must be >= 2, got 1"),
        (lambda: GeneratorTerm(3, ()), ValueError, "generator needs depth at least 1"),
        (lambda: GeneratorTerm(1, (A, B)), ValueError, "weight 1 below depth 2"),
        (lambda: distribution_contract(_E, 0), ValueError, _ORDER),
        (lambda: tensor_distribution_contract(TensorElement.single(word((3, A))), 0), ValueError,
         _ORDER),
        (lambda: distribution_expand(_E, -1), ValueError, _ORDER),
        (lambda: root_sum_generator(_G, 0, 1), ValueError, "slot must lie in 1..2"),
        (lambda: root_sum_generator(_G, 3, 1), ValueError, "slot must lie in 1..2"),
        (lambda: root_sum_generator(_G, 2, -1), ValueError, "root level must be nonnegative"),
        (lambda: construct_preimage((), ()), InfeasibleWeights, "need at least one slot weight"),
        (lambda: construct_preimage((3, 2), (A,)), ValueError,
         "one argument per slot weight required"),
        (lambda: ArgMonomial.make({"x": 1}, zeta_order=0), ValueError,
         "zeta_order must be a positive integer"),
        (lambda: ArgMonomial.variable("x").roots(-1), ValueError, "root level must be nonnegative"),
        (lambda: root_expand(li_expr([2], [ArgMonomial.variable("x")]), "x", 0), ValueError,
         "order must be a positive integer"),
    ],
)
def test_range_checks_raise_their_error_and_message(call, error, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is error and str(info.value) == message


# ---------------------------------------------------------------------------
# root sums over generators


def test_root_sum_level_zero_is_identity():
    c = GeneratorCombination.single(GeneratorTerm(5, (A, B)))
    assert root_sum_generator(c, 2, 0) == c


def test_root_sum_scaling_law():
    # contracted image of the level-s root sum = level-0 image with each
    # word's slot weight m rescaled by 2^{-s(m-1)}
    base = GeneratorCombination.single(GeneratorTerm(6, (A, B)))
    for s in (1, 2):
        summed = root_sum_generator(base, 2, s)
        contracted = tensor_distribution_contract(cobracket_image(summed), 2)
        expected = TensorElement.from_terms(
            (w, coeff * Fraction(1, 2 ** (s * (w[1].n - 1))))
            for w, coeff in cobracket_image(base).terms
        )
        assert contracted == expected


def test_root_sum_scaling_depth1():
    # depth-1 generator of weight 3: the sole image word is Li_3(a), and a
    # level-1 root sum rescales it by 2^{-(3-1)} = 1/4 after contraction
    base = GeneratorCombination.single(GeneratorTerm(3, (A,)))
    summed = root_sum_generator(base, 1, 1)
    contracted = tensor_distribution_contract(cobracket_image(summed), 2)
    assert contracted == TensorElement.single(word((3, A)), Fraction(1, 4))


def test_root_sum_slots_commute():
    c = GeneratorCombination.single(GeneratorTerm(6, (A, B)))
    ab = root_sum_generator(root_sum_generator(c, 1, 1), 2, 1)
    ba = root_sum_generator(root_sum_generator(c, 2, 1), 1, 1)
    assert ab == ba


def test_root_sum_builds_the_roots_of_each_slot_argument_once(monkeypatch):
    p = construct_preimage((2, 3, 4), (A, B, C))
    shared = {g.args[1] for g, _ in p.terms}
    assert len(shared) < len(p.terms)  # the terms share their slot-2 arguments
    per_term = GeneratorCombination()
    for g, c in p.terms:
        per_term = per_term + root_sum_generator(GeneratorCombination.single(g, c), 2, 2)
    calls = []
    roots = GroupElement.roots

    def counting(self, s):
        calls.append(self)
        return roots(self, s)

    monkeypatch.setattr(GroupElement, "roots", counting)
    assert root_sum_generator(p, 2, 2) == per_term
    assert sorted(calls, key=lambda a: a._k) == sorted(shared, key=lambda a: a._k)


def test_root_sum_cap():
    c = GeneratorCombination.single(GeneratorTerm(5, (A, B)))
    with pytest.raises(RootCapExceeded):
        root_sum_generator(c, 2, 13)


# ---------------------------------------------------------------------------
# preimage construction


def test_preimage_depth1():
    p = construct_preimage((4,), (A,))
    assert p.terms == ((GeneratorTerm(4, (A,)), Fraction(1)),)
    assert verify_preimage(p, (4,), (A,)).matched


def test_preimage_22_single_term():
    p = construct_preimage((2, 2), (A, B))
    assert p.terms == ((GeneratorTerm(4, (A, B)), Fraction(1)),)
    assert verify_preimage(p, (2, 2), (A, B)).matched


def coefficient_by_root_level(p):
    levels = {}
    for g, c in p.terms:
        denom = max(e.denominator for _, e in g.args[-1].exponents)
        levels.setdefault(denom, set()).add(c)
    return levels


def test_preimage_32_solves_vandermonde():
    p = construct_preimage((3, 2), (A, B))
    levels = coefficient_by_root_level(p)
    assert levels == {1: {Fraction(-1)}, 2: {Fraction(4)}}
    assert verify_preimage(p, (3, 2), (A, B)).matched


def test_preimage_23_solves_vandermonde():
    p = construct_preimage((2, 3), (A, B))
    levels = coefficient_by_root_level(p)
    assert levels == {1: {Fraction(2)}, 2: {Fraction(-4)}}
    assert verify_preimage(p, (2, 3), (A, B)).matched


def test_preimage_222_forced():
    p = construct_preimage((2, 2, 2), (A, B, C))
    assert len(p.terms) == 1
    assert verify_preimage(p, (2, 2, 2), (A, B, C)).matched


def test_preimage_rejects_small_weights():
    with pytest.raises(InfeasibleWeights):
        construct_preimage((1, 3), (A, B))


def test_verify_preimage_detects_perturbation():
    p = construct_preimage((3, 2), (A, B))
    perturbed = GeneratorCombination.from_terms(
        [(g, c + 1 if c == Fraction(-1) else c) for g, c in p.terms]
    )
    report = verify_preimage(perturbed, (3, 2), (A, B))
    assert not report.matched
    assert not report.residual.is_zero()
    residual_words = {tuple(s.n for s in w) for w, _ in report.residual.terms}
    assert residual_words  # names the offending words


def test_preimage_exhaustive_desk_scale():
    import itertools

    names = [A, B, C]
    for d in (1, 2, 3):
        gens = tuple(names[:d])
        for tup in itertools.product(range(2, 9), repeat=d):
            if sum(tup) > 8:
                continue
            p = construct_preimage(tup, gens)
            assert verify_preimage(p, tup, gens).matched, tup


# the weight tuples of the preimage benchmark workload (weight 9-10, depth 2-3)
_BENCH_WEIGHTS = (
    (5, 4), (2, 3, 4), (2, 8), (3, 7), (4, 6), (5, 5), (6, 4), (7, 3), (8, 2), (4, 3, 2),
)


_PIN_ARGS = (
    GroupElement(Fraction(3, 8), (("a1", Fraction(3, 2)), ("b", Fraction(-1, 2)))),
    GroupElement(Fraction(5, 8), (("a2", Fraction(-3, 4)), ("b", Fraction(2)))),
    GroupElement(Fraction(1, 8), (("a3", Fraction(-1)), ("b", Fraction(3, 4)))),
)


def _preimage_digest(weight_tuples):
    """sha256 over the preimage and check-report bytes of each weight tuple."""
    h = hashlib.sha256()
    for weights in weight_tuples:
        slot_args = _PIN_ARGS[: len(weights)]
        p = construct_preimage(weights, slot_args)
        report = verify_preimage(p, weights, slot_args)
        assert report.matched, weights
        h.update(generator_combination_dumps(p).encode())
        h.update(preimage_report_dumps(report).encode())
    return h.hexdigest()


def test_bench_size_preimages_are_pinned():
    digest = _preimage_digest(_BENCH_WEIGHTS)
    assert digest == "7fd49201930c0947cd172ce3c429d923a2d225285f6374824b48aebccf81c133"


def test_weight12_preimages_are_pinned():
    digest = _preimage_digest(((4, 4, 4), (6, 6)))
    assert digest == "51e370df11cc06e51366f540c82f950925ca695dc484f1e63302b9cd6e286acb"


def _same_as_level_by_level(weights, args):
    """construct_preimage gives the bytes of the level-by-level oracle, or
    raises RootCapExceeded with its message; returns the preimage or None."""
    try:
        want = preimage_reference(weights, args)
    except RootCapExceeded as exc:
        with pytest.raises(RootCapExceeded) as got:
            construct_preimage(weights, args)
        assert str(got.value) == str(exc), weights
        return None
    p = construct_preimage(weights, args)
    assert generator_combination_dumps(p) == generator_combination_dumps(want), weights
    return p


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_preimage_grid_matches_the_level_by_level_oracle(depth):
    gens = (A, B, C, GroupElement.generator("a4"))[:depth]
    for total in range(2 * depth, 13):
        for weights in compositions_brute(total, depth, 2):
            _same_as_level_by_level(weights, gens)


def test_preimage_grid_matches_the_oracle_on_the_workload_inputs(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    for seed in range(1, 21):
        for weights, args in workloads.Preimage(seed).inputs(0):
            _same_as_level_by_level(weights, args)


@pytest.mark.parametrize("phase", [Fraction(0), Fraction(1, 2)], ids=["one", "minus-one"])
def test_preimage_grid_sums_roots_shared_by_levels(phase):
    const = GroupElement(phase, ())  # the 2^s-th roots of 1 include 1 at every level
    for weights in ((2, 5), (3, 4), (5, 2), (2, 3, 4), (4, 3, 2), (3, 3, 3), (2, 2, 2, 4)):
        _same_as_level_by_level(weights, (A,) + (const,) * (len(weights) - 1))
    if phase == 0:
        p = construct_preimage((2, 5), (A, const))
        q = _isolation_coefficients(5, 5)
        assert dict((g.args[1], c) for g, c in p.terms)[const] == sum(q.values())


@pytest.mark.parametrize(
    "weights, message",
    [((2, 15), "1 * 2^13 terms exceed the cap 4096"), ((2, 14), "8191 terms exceed the cap 4096"),
     ((2, 8, 2), "127 * 2^6 terms exceed the cap 4096")],
)
def test_preimage_cap_messages_match_the_oracle(weights, message):
    args = (A, B, C)[: len(weights)]
    assert _same_as_level_by_level(weights, args) is None
    with pytest.raises(RootCapExceeded, match=re.escape(message)):
        construct_preimage(weights, args)


def test_closed_form_isolation_equals_the_exact_solve():
    for n in range(2, 17):
        for target in range(2, n + 1):
            want = isolation_reference(range(2, n + 1), target)
            assert _isolation_coefficients(n, target) == want, (n, target)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(-(2**40), 2**40), st.integers(0, 45), st.integers(0, 30),
    st.lists(st.tuples(st.integers(2, 9), st.integers(2, 9)), min_size=1, max_size=4, unique=True),
)
def test_collapse_at_two_matches_lowest(base, shift, k, compositions):
    num = base << shift  # zero, either sign, and a power of 2 up to 2^45 or more
    hit = {ns: (num * (i + 1), k + i) for i, ns in enumerate(compositions)}
    for slot in (0, 1):
        assert _collapse(hit, slot, 2) == {ns: _lowest(a, b + ns[slot] - 1, 2) for ns, (a, b) in hit.items()}
    assert _collapse({(3, 2): (0, k)}, 0, 2) == {(3, 2): (0, 0)}


def test_merged_combination_reaches_the_check_as_it_is():
    p = construct_preimage((4, 3, 2), (A, B, C))
    assert _generator_pairs(p) is p.terms


@pytest.mark.parametrize("fault", ["unsorted", "duplicate", "zero-coefficient"])
def test_hand_built_combination_is_merged_before_the_check(fault):
    p = construct_preimage((3, 2), (A, B))
    terms = list(p.terms)
    if fault == "unsorted":
        terms.reverse()
    elif fault == "duplicate":
        terms.append((terms[0][0], Fraction(1, 3)))
    else:
        terms.insert(1, (GeneratorTerm(5, (A, C)), Fraction(0)))
    hand = Combination(tuple(terms))
    assert _generator_pairs(hand) == Combination.from_terms(terms).terms
    report = verify_preimage(hand, (3, 2), (A, B))
    reference = tensor_contract_reference(image_reference(terms), 2)  # shares no code with the check
    expected = coalgebra.PreimageReport(report.target, reference, reference - report.target)
    assert preimage_report_dumps(report) == preimage_report_dumps(expected)
    assert report.matched == (fault != "duplicate")


def test_verify_preimage_refuses_an_argument_count_unlike_the_weights():
    p = construct_preimage((3, 2), (A, B))
    for args in ((A,), (A, B, C)):
        with pytest.raises(ValueError, match="one argument per slot weight required"):
            verify_preimage(p, (3, 2), args)


def test_verify_preimage_refuses_a_preimage_of_another_depth():
    p = construct_preimage((3, 2), (A, B))
    with pytest.raises(ValueError, match="preimage of depth 2 for 3 slot weights"):
        verify_preimage(p, (2, 2, 2), (A, B, C))
    with pytest.raises(ValueError, match="preimage of depth 3 for 2 slot weights"):
        verify_preimage(GeneratorTerm(5, (A, B, C)), (3, 2), (A, B))  # an empty image too
    report = verify_preimage(GeneratorCombination(), (3, 2), (A, B))  # no depth: a failed check
    assert report.residual == report.target.scale(-1)


def test_verify_preimage_refuses_a_preimage_of_another_weight():
    with pytest.raises(ValueError, match="preimage of weight 6 for slot weights summing to 5"):
        verify_preimage(GeneratorTerm(6, (A, B)), (3, 2), (A, B))
    with pytest.raises(ValueError, match="preimage of weight 4 for slot weights summing to 5"):
        verify_preimage(construct_preimage((2, 2), (A, B)), (3, 2), (A, B))


def test_verify_preimage_of_another_weight_below_twice_its_depth_is_a_failed_check():
    # weight 5 < 2 * 3: the image is empty, and the report's residual is -target
    report = verify_preimage(GeneratorTerm(5, (A, B, C)), (2, 2, 2), (A, B, C))
    assert report.image.is_zero()
    assert report.residual == report.target.scale(-1)


@pytest.mark.parametrize(
    "call",
    [lambda: Combination.single(PolylogSymbol(2, A), 0.1), lambda: _E.scale(0.1)],
    ids=["single", "scale"],
)
def test_combination_float_coefficients_are_refused(call):
    with pytest.raises(TypeError, match=r"^exact rational required, got float 0\.1$"):
        call()


@pytest.mark.parametrize("value", [True, False, "0.1", "1"], ids=["true", "false", "decimal-str", "int-str"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: li_expr([2], [A], v),
        lambda v: Expr.single(v, [li_factor([2], [A])]),
        lambda v: Combination.single(PolylogSymbol(2, A), v),
        lambda v: _E.scale(v),
    ],
    ids=["li-expr", "expr-single", "combination-single", "scale"],
)
def test_coefficients_refuse_a_bool_or_a_string(call, value):
    # Fraction(True) is 1 and Fraction("0.1") is 1/10; the one owner refuses both, like a float
    message = "^" + re.escape(f"exact rational required, got {type(value).__name__} {value!r}") + "$"
    with pytest.raises(TypeError, match=message):
        call(value)
