import hashlib
import re
from fractions import Fraction

import pytest

from mplkit.reduction import (
    WeightTooSmall,
    _triple_root_sum,
    build_reduction_matrix,
    build_weighted_sum,
    coefficient_identity,
    reduce_li,
    weight4_fixture_identity,
)
from mplkit.symalg import MPLFactor, Term, eval_expr, li_expr, root_orbits, ArgMonomial
from mplkit.verify import VerificationPlan, check_convergence, verify_identity

from _oracles import triple_root_sum_reference

PLAN = VerificationPlan(seed=101, point_count=10, radius=0.7, tolerance=1e-9)


def rhs_index_patterns(identity):
    return {
        f.indices.parts for t in identity.rhs.terms for f in t.factors
    }


def lhs_index_patterns(identity):
    return {
        f.indices.parts for t in identity.lhs.terms for f in t.factors
    }


# ---------------------------------------------------------------------------
# the coefficient identity


def test_coefficient_identity_structure():
    ident = coefficient_identity(5, 2, 1)
    # extracting at t2 = 0 leaves only the (n-1, 1) pattern on the left
    assert lhs_index_patterns(ident) == {(4, 1)}
    # the classical term enters with coefficient beta^{n-1}/gamma at Li_n(xy)
    xy = ArgMonomial.make({"x": 1, "y": 1})
    classical = [
        t for t in ident.rhs.terms if t.factors[0].indices.parts == (5,)
    ]
    assert len(classical) == 1
    assert classical[0].coeff == Fraction(1**4, 3)
    assert classical[0].factors[0].args == (xy,)


def test_triple_root_sum_matches_triple_loop_oracle():
    for n in range(3, 9):
        for alpha in range(1, 5):
            for beta in range(1, 5):
                got = _triple_root_sum(n, alpha, beta)
                assert got == triple_root_sum_reference(n, alpha, beta), (n, alpha, beta)


def test_coefficient_identity_rejects_small_weight():
    with pytest.raises(WeightTooSmall):
        coefficient_identity(2, 1, 1)


@pytest.mark.parametrize(
    "alpha,beta", [(0, 1), (-1, 2), (2, -1), (1, 0), (2.0, 3), ("2", 3), (True, 2), (2, 1.5)]
)
@pytest.mark.parametrize("builder", [coefficient_identity, build_weighted_sum])
def test_probe_builders_reject_nonpositive_parameters(builder, alpha, beta):
    if type(alpha) is int and type(beta) is int:
        message = r"^alpha and beta must be positive integers$"
    else:  # a non-integer is named, whatever its value
        name, value = ("alpha", alpha) if type(alpha) is not int else ("beta", beta)
        message = "^" + re.escape(f"{name} must be an integer, got {value!r}") + "$"
    with pytest.raises(ValueError, match=message):
        builder(4, alpha, beta)


@pytest.mark.parametrize("n", [5.0, "5", True, Fraction(5)])
def test_probe_builders_reject_a_non_integer_weight(n):
    message = "^" + re.escape(f"n must be an integer, got {n!r}") + "$"
    for build in (
        lambda: coefficient_identity(n, 2, 3),
        lambda: build_weighted_sum(n, 2, 3),
        lambda: build_reduction_matrix(n),
    ):
        with pytest.raises(ValueError, match=message):
            build()


def test_weighted_sum_rejects_small_weight():
    with pytest.raises(WeightTooSmall, match=r"^need weight >= 3, got 2$"):
        build_weighted_sum(2, 1, 1)


def test_coefficient_identity_n4_verifies():
    ident = coefficient_identity(4, 1, 1)
    report = verify_identity(
        ident, VerificationPlan(seed=17, point_count=20, radius=0.7, tolerance=1e-9)
    )
    assert report.passed


@pytest.mark.parametrize("alpha,beta", [(1, 2), (2, 1), (2, 2)])
def test_coefficient_identity_root_parameters(alpha, beta):
    ident = coefficient_identity(4, alpha, beta)
    report = verify_identity(ident, PLAN)
    assert report.passed, report.max_relative_residual


def test_weighted_sum_forms_agree_numerically():
    w = build_weighted_sum(4, 1, 2)
    for asg in ({"x": 0.3 + 0.2j, "y": 0.45}, {"x": -0.5, "y": 0.3 - 0.3j}):
        a, _ = eval_expr(w.depth2_form, asg, 1e-11)
        b, _ = eval_expr(w.reduced_form, asg, 1e-11)
        assert abs(a - b) < 1e-9


# ---------------------------------------------------------------------------
# the probe matrix


def test_matrix_n3_values():
    m = build_reduction_matrix(3)
    assert m.entries == ((Fraction(2), Fraction(-1)), (Fraction(1), Fraction(-2)))
    det = m.entries[0][0] * m.entries[1][1] - m.entries[0][1] * m.entries[1][0]
    assert det == -3


@pytest.mark.parametrize("n", range(3, 13))
def test_matrix_inverse_exact(n):
    m = build_reduction_matrix(n)
    size = n - 1
    for i in range(size):
        for j in range(size):
            entry = sum(
                m.entries[i][t] * m.inverse[t][j] for t in range(size)
            )
            assert entry == (1 if i == j else 0)


def test_n3_hand_solved_combination():
    # Li_{1,2}(y, x) = (2 U^{1,2} - U^{2,1}) / 3
    m = build_reduction_matrix(3)
    assert m.inverse[0] == (Fraction(2, 3), Fraction(-1, 3))
    u12 = build_weighted_sum(3, 1, 2)
    u21 = build_weighted_sum(3, 2, 1)
    combo = u12.reduced_form.scale(Fraction(2, 3)) + u21.reduced_form.scale(
        Fraction(-1, 3)
    )
    target = li_expr([1, 2], [ArgMonomial.variable("y"), ArgMonomial.variable("x")])
    for asg in ({"x": 0.4, "y": 0.25 + 0.3j}, {"x": -0.3 + 0.1j, "y": 0.6}):
        a, _ = eval_expr(combo, asg, 1e-11)
        b, _ = eval_expr(target, asg, 1e-11)
        assert abs(a - b) < 1e-9


# ---------------------------------------------------------------------------
# the emitted reductions


def test_reduce_li_rejects_bad_input():
    with pytest.raises(WeightTooSmall, match=r"^need weight >= 3, got 2$"):
        reduce_li(1, 1)
    with pytest.raises(ValueError):
        reduce_li(0, 3)
    # a non-integer is named, not read as the integer it equals
    for k, l in ((2.0, 2), ("2", 2), (True, 2), (2, Fraction(2)), (2, None)):
        name, value = ("k", k) if type(k) is not int else ("l", l)
        message = "^" + re.escape(f"{name} must be an integer, got {value!r}") + "$"
        with pytest.raises(ValueError, match=message):
            reduce_li(k, l)


def test_reduce_li_22_verifies():
    ident = reduce_li(2, 2)
    assert rhs_index_patterns(ident) <= {(3, 1), (4,)}
    report = verify_identity(ident, PLAN)
    assert report.passed


def test_reduce_li_already_reduced_shape():
    ident = reduce_li(3, 1)
    report = verify_identity(ident, PLAN)
    assert report.passed


def test_reduce_li_12_matches_hand_solve():
    ident = reduce_li(1, 2)
    assert rhs_index_patterns(ident) <= {(2, 1), (3,)}
    # independent check: evaluate the hand-solved combination with swapped
    # variables and compare against the emitted right side
    u12 = build_weighted_sum(3, 1, 2)
    u21 = build_weighted_sum(3, 2, 1)
    combo = u12.reduced_form.scale(Fraction(2, 3)) + u21.reduced_form.scale(
        Fraction(-1, 3)
    )
    asg = {"x": 0.35 + 0.2j, "y": 0.5 - 0.1j}
    swapped = {"x": asg["y"], "y": asg["x"]}
    a, _ = eval_expr(ident.rhs, asg, 1e-11)
    b, _ = eval_expr(combo, swapped, 1e-11)
    assert abs(a - b) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reduce_li_structural_and_numeric(n):
    for k in range(1, n):
        ident = reduce_li(k, n - k)
        assert rhs_index_patterns(ident) <= {(n - 1, 1), (n,)}
        check_convergence(ident, 0.75)
        report = verify_identity(
            ident,
            VerificationPlan(seed=55, point_count=5, radius=0.7, tolerance=1e-8),
        )
        assert report.passed, (k, n - k, report.max_relative_residual)


def test_reduce_li_deterministic_output():
    from mplkit.serialize import identity_dumps

    a = identity_dumps(reduce_li(2, 3))
    b = identity_dumps(reduce_li(2, 3))
    assert a == b


def test_weight7_and_weight8_reductions_are_pinned():
    # artifact_digests.json pins the reductions up to weight 6
    from mplkit.serialize import identity_dumps

    h = hashlib.sha256()
    for n in (7, 8):
        for k in range(1, n):
            h.update(identity_dumps(reduce_li(k, n - k)).encode())
    assert h.hexdigest() == "335c65c155e10bd0b585826095cadc1cf59b3c3c31e1988d4bb037b8215203cb"


def test_weight9_to_weight12_reductions_are_pinned():
    # the edges and the middle of each weight, up to the weight cap
    from mplkit.serialize import identity_dumps

    h = hashlib.sha256()
    for n in range(9, 13):
        for k in sorted({1, n // 2, n - 1}):
            h.update(identity_dumps(reduce_li(k, n - k)).encode())
    assert h.hexdigest() == "5ae6b96e6432a9eef6bbb71d5f19f6a914d707468a1cb0b8214d1253167c2365"


def test_reduce_li_merges_once_per_probe_and_never_renames(monkeypatch):
    # no root term is merged: one merge of the classical terms Li_8(xy), one
    # for the left side; the probes are built in the emitted names, not
    # renamed after
    from mplkit import symalg

    merges = []
    merge = symalg._merge
    monkeypatch.setattr(symalg, "_merge", lambda pairs: merges.append(1) or merge(pairs))
    reduce_li(4, 4)
    assert len(merges) <= 2


@pytest.fixture(scope="module")
def all_reductions():
    return tuple(reduce_li(k, n - k) for n in range(3, 13) for k in range(1, n))


def test_canonical_constructors_match_the_public_ones(all_reductions):
    # every root term is built without normalizing; rebuilt through the
    # public constructors it must come out the same, field by field
    rebuilt = {}  # id -> (monomial, its public rebuild); root terms share monomials

    def public_monomial(a):
        if id(a) not in rebuilt:
            b = ArgMonomial(a.phase, a.exponents)
            assert vars(b) == vars(a) and hash(b) == hash(a) and type(a.phase) is Fraction
            assert all(type(e) is Fraction for _, e in a.exponents)
            rebuilt[id(a)] = (a, b)
        return rebuilt[id(a)][1]

    coefficient_identities = [
        coefficient_identity(n, a, n - a) for n in range(3, 13) for a in range(1, n)
    ]
    for ident in all_reductions + tuple(coefficient_identities):
        for side in (ident.lhs, ident.rhs):
            keys = [t._key() for t in side.terms]
            assert all(a < b for a, b in zip(keys, keys[1:])), ident.provenance
            for t in side.terms:
                factors = tuple(
                    MPLFactor(f.indices, tuple(public_monomial(a) for a in f.args))
                    for f in t.factors
                )
                r = Term(t.coeff, factors)
                assert r == t and hash(r) == hash(t) and vars(r) == vars(t)
                assert all(vars(f) == vars(g) for f, g in zip(r.factors, t.factors))
                assert type(t.coeff) is Fraction and t.coeff != 0
    for alpha, beta in ((1, 1), (2, 4), (3, 2)):
        assert _triple_root_sum(5, alpha, beta, c=0).is_zero()
        assert _triple_root_sum(5, alpha, beta, c=Fraction(0)).is_zero()


def test_root_orbits_of_every_reduction_are_pinned(all_reductions):
    # orbits (coefficient, composition, orders, powers, member positions)
    # and leftover positions, for every reduction up to the weight cap and
    # for the weight-4 fixture, both sides
    h = hashlib.sha256()
    for ident in all_reductions + (weight4_fixture_identity(),):
        for side in (ident.lhs, ident.rhs):
            pos = {id(t): i for i, t in enumerate(side.terms)}
            orbits, leftover = root_orbits(side)
            for o in orbits:
                powers = [str(p) for p in o.powers]
                members = [pos[id(t)] for t in o.terms]
                h.update(f"{o.coeff}|{o.indices}|{o.orders}|{powers}|{members}\n".encode())
            h.update(f"{[pos[id(t)] for t in leftover]}\n".encode())
    assert h.hexdigest() == "9eaa6f524c31f55d1769d83cfc1d0f4f0f383c5748916f14c2e5e394834f28f3"


def test_coefficient_identities_are_pinned():
    # every (alpha, beta) split of every weight up to the cap
    from mplkit.serialize import identity_dumps

    h = hashlib.sha256()
    for n in range(3, 13):
        for a in range(1, n):
            h.update(identity_dumps(coefficient_identity(n, a, n - a)).encode())
    assert h.hexdigest() == "f41b5133afb6bf37feeef80d2a31b82d8000775393736566c480bafabd1417e2"


def test_reduce_li_convergence_safety_at_harness_radius():
    # every factor satisfies the suffix-product condition for |x|,|y| <= 0.75
    for (k, l) in ((2, 4), (3, 3)):
        check_convergence(reduce_li(k, l), 0.75)


# ---------------------------------------------------------------------------
# the weight-4 fixture


def test_fixture_weight_grading():
    fix = weight4_fixture_identity()
    assert fix.weight == 4
    for t in list(fix.lhs.terms) + list(fix.rhs.terms):
        assert t.weight == 4


def test_fixture_verifies_at_real_point():
    fix = weight4_fixture_identity()
    lv, lm = eval_expr(fix.lhs, {"x": 0.3, "y": 0.4}, 1e-12)
    rv, rm = eval_expr(fix.rhs, {"x": 0.3, "y": 0.4}, 1e-12)
    assert abs(lv - rv) / max(1.0, lm + rm) < 1e-9


def test_fixture_verifies_at_complex_points():
    fix = weight4_fixture_identity()
    report = verify_identity(
        fix, VerificationPlan(seed=2, point_count=10, radius=0.7, tolerance=1e-9)
    )
    assert report.passed


def test_root_terms_refuse_a_float_coefficient():
    with pytest.raises(TypeError, match=r"^exact rational required, got float 0\.1$"):
        _triple_root_sum(4, 1, 2, c=0.1)
