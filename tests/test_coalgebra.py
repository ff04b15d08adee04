import cmath
import math
import random
from fractions import Fraction

import pytest

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

from _oracles import compositions_brute

A = GroupElement.generator("a1")
B = GroupElement.generator("a2")
C = GroupElement.generator("a3")


def word(*pairs):
    return tuple(PolylogSymbol(n, g) for n, g in pairs)


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

    def classical(n, z):
        return eval_li(EvalRequest(Composition((n,)), (z,), 1e-12)).value

    e = PolylogCombination.from_terms(
        [(PolylogSymbol(2, B), Fraction(1)), (PolylogSymbol(2, minus(B)), Fraction(1))]
    )
    out = distribution_contract(e, 2)
    for _ in range(5):
        z = rng.uniform(0.1, 0.8) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        asg = {"a2": z}
        assert abs(e.complex_value(asg, classical) - out.complex_value(asg, classical)) < 1e-10


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
    c = GeneratorCombination.single(5, (A, B))
    assert root_sum_generator(c, 2, 0) == c


def test_root_sum_scaling_law():
    # contracted image of the level-s root sum = level-0 image with each
    # word's slot weight m rescaled by 2^{-s(m-1)}
    base = GeneratorCombination.single(6, (A, B))
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
    base = GeneratorCombination.single(3, (A,))
    summed = root_sum_generator(base, 1, 1)
    contracted = tensor_distribution_contract(cobracket_image(summed), 2)
    assert contracted == TensorElement.single(word((3, A)), Fraction(1, 4))


def test_root_sum_slots_commute():
    c = GeneratorCombination.single(6, (A, B))
    ab = root_sum_generator(root_sum_generator(c, 1, 1), 2, 1)
    ba = root_sum_generator(root_sum_generator(c, 2, 1), 1, 1)
    assert ab == ba


def test_root_sum_cap():
    c = GeneratorCombination.single(5, (A, B))
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
