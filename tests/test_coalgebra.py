import cmath
import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mplkit.coalgebra import (
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
)
from mplkit.numeval import Composition, EvalRequest, eval_li

from _oracles import compositions_brute, tensor_contract_reference

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


def _orbit(sym, r):
    """Every Li_n(zeta * arg) with zeta^r = 1."""
    return [
        PolylogSymbol(sym.n, GroupElement(sym.arg.phase + Fraction(j, r), sym.arg.exponents))
        for j in range(r)
    ]


_COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2, 3), Fraction(3)])


@st.composite
def _contraction_cases(draw):
    """(tensor element, r): random words from a small symbol pool plus
    planted complete orbits with equal or unequal coefficients, partial
    orbits, and orbits whose contraction lands on a word already present
    and completes the next orbit up."""
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
        kind = draw(st.sampled_from(("word", "equal", "unequal", "partial", "collide")))
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
            pairs.append((with_slot(w, k, up[0]), c_up))
            if draw(st.booleans()):
                pairs += [(with_slot(w, k, s), 2 * c_up) for s in up[1:]]
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
