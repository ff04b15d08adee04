import re

import pytest

from mplkit.reduction import weight4_fixture_identity
from mplkit.symalg import ArgMonomial, Identity, li_expr
from mplkit.verify import (
    ConvergenceViolation,
    VerificationPlan,
    check_convergence,
    sample_points,
    verify_identity,
)

X = ArgMonomial.variable("x")


def trivial_identity():
    return Identity(
        li_expr([2], [X]), li_expr([2], [X]), weight=2, variables=frozenset({"x"})
    )


def test_sample_points_deterministic():
    plan = VerificationPlan(seed=9, point_count=15, radius=0.6)
    a = sample_points(plan, {"x", "y"})
    b = sample_points(plan, {"y", "x"})
    assert a == b
    c = sample_points(VerificationPlan(seed=10, point_count=15, radius=0.6), {"x", "y"})
    assert a != c


def test_sample_points_radius_and_floor():
    plan = VerificationPlan(seed=1, point_count=1000, radius=0.7)
    pts = sample_points(plan, {"x"})
    moduli = [abs(p["x"]) for p in pts]
    assert max(moduli) <= 0.7
    assert min(moduli) >= 0.05


def test_sample_points_real_mode():
    plan = VerificationPlan(seed=4, point_count=50, radius=0.5, allow_complex=False)
    for p in sample_points(plan, {"x"}):
        assert p["x"].imag == 0.0
        assert 0.05 <= abs(p["x"]) <= 0.5


def test_plan_validation():
    with pytest.raises(ValueError):
        VerificationPlan(radius=1.2)
    with pytest.raises(ValueError):
        # sampling rejects moduli below 0.05, so it could not end
        VerificationPlan(radius=0.04)
    with pytest.raises(ValueError):
        VerificationPlan(point_count=0)
    with pytest.raises(ValueError):
        VerificationPlan(tolerance=0.0)


@pytest.mark.parametrize(
    "field, value",
    [("tolerance", True), ("radius", True), ("radius", "0.7"), ("tolerance", "1e-9"), ("tolerance", None),
     ("radius", 0.7j)],
)
def test_plan_refuses_a_bool_or_non_real_radius_and_tolerance(field, value):
    # True would pass as tolerance 1; a string used to fail in a comparison naming no field
    message = "^" + re.escape(f"{field} must be a real number, got {value!r}") + "$"
    with pytest.raises(ValueError, match=message):
        VerificationPlan(**{field: value})


def test_plan_accepts_int_and_float_radius_and_tolerance():
    plan = VerificationPlan(radius=0.5, tolerance=1)
    assert (plan.radius, plan.tolerance) == (0.5, 1)


def test_trivial_identity_zero_residual():
    report = verify_identity(trivial_identity(), VerificationPlan(point_count=5))
    assert report.passed
    assert report.max_relative_residual == 0.0


def test_small_perturbation_fails_at_expected_scale():
    from fractions import Fraction

    # the perturbing term must share the identity weight (grading invariant)
    rhs = li_expr([2], [X]) + li_expr([2], [X], Fraction(1, 10**6))
    ident = Identity(
        li_expr([2], [X]), rhs, weight=2, variables=frozenset({"x"})
    )
    report = verify_identity(ident, VerificationPlan(point_count=10, tolerance=1e-9))
    assert not report.passed
    assert 1e-8 < report.max_relative_residual < 1e-5


def test_report_determinism():
    fix = weight4_fixture_identity()
    plan = VerificationPlan(seed=6, point_count=5)
    a = verify_identity(fix, plan)
    b = verify_identity(fix, plan)
    assert a == b


def test_convergence_precheck_rejects_unit_modulus():
    # Li_2(x/y): suffix product x * y^{-1} has a negative exponent
    bad = li_expr([2], [ArgMonomial.make({"x": 1, "y": -1})])
    ident = Identity(bad, bad, weight=2, variables=frozenset({"x", "y"}))
    with pytest.raises(ConvergenceViolation):
        verify_identity(ident, VerificationPlan(point_count=3))


def test_convergence_precheck_rejects_constant_argument():
    const = li_expr([2], [ArgMonomial.make({}, zeta_order=2, zeta_power=1)])
    ident = Identity(const, const, weight=2, variables=frozenset())
    with pytest.raises(ConvergenceViolation):
        check_convergence(ident, 0.7)


def test_precheck_passes_fixture_at_harness_radius():
    check_convergence(weight4_fixture_identity(), 0.75)


def test_tolerance_robustness_under_smaller_eval_target():
    # halving the evaluation target (via a tighter tolerance plan whose
    # eval budget shrinks accordingly) never flips the fixture's pass
    fix = weight4_fixture_identity()
    loose = verify_identity(fix, VerificationPlan(point_count=5, tolerance=1e-9))
    tight = verify_identity(fix, VerificationPlan(point_count=5, tolerance=5e-10))
    assert loose.passed and tight.passed
    assert abs(loose.max_relative_residual - tight.max_relative_residual) < 1e-9


def test_convergence_precheck_once_per_exponent_signature(monkeypatch):
    # a phase never changes a modulus, so a violation shows at the first
    # factor of its signature, and repeats of a passing one are not re-summed
    from fractions import Fraction

    from mplkit.symalg import Expr, Term, li_factor

    twisted = ArgMonomial(Fraction(1, 3), X.exponents)
    unit = ArgMonomial(Fraction(1, 2), ())
    lhs = Expr.from_terms([Term(1, (li_factor([2], [X]),)), Term(2, (li_factor([2], [twisted]),))])
    rhs = Expr.from_terms([Term(1, (li_factor([1, 1], [X, unit]),))])
    ident = Identity(lhs, lhs, weight=2, variables=frozenset({"x"}))
    degrees = []
    monkeypatch.setattr(
        "mplkit.verify._exact_float", lambda e, *where: degrees.append(e) or float(e)
    )
    check_convergence(ident, 0.7)
    assert degrees == [1]  # four factors, one signature (x,) of one slot
    bad = Identity(lhs, lhs + rhs, weight=2, variables=frozenset({"x"}))
    with pytest.raises(ConvergenceViolation, match=r"rhs factor Li_\(1,1\)\(x, -1\): .* slot 2"):
        check_convergence(bad, 0.7)


def test_reduce66_verifies_at_20_points():
    # weight 12, the weight cap: a (11,1) group of 37,400 columns
    from mplkit.reduction import reduce_li

    plan = VerificationPlan(seed=1, point_count=20, radius=0.7, tolerance=1e-9)
    report = verify_identity(reduce_li(6, 6), plan)
    assert report.passed and len(report.points) == 20


def test_reduce66_orbit_residual_within_1e8_of_lhs():
    # the orbit sums leave rounding far below |lhs|; by the term-by-term sum
    # the residual at weight 12 reached 14.6 in absolute terms
    from mplkit.reduction import reduce_li

    plan = VerificationPlan(seed=1, point_count=20, radius=0.7, tolerance=1e-9)
    report = verify_identity(reduce_li(6, 6), plan)
    assert max(p.residual / abs(p.lhs) for p in report.points) <= 1e-8


# every reduction up to the weight cap; at weights 11 and 12 the first, the
# middle and the last index split, as in the pinned weight-9 to 12 digest
POWER_CASES = [(k, n - k) for n in range(3, 11) for k in range(1, n)] + [
    (k, n - k) for n in (11, 12) for k in (1, n // 2, n - 1)
]


@pytest.mark.parametrize("kl", POWER_CASES, ids=[f"{k},{l}" for k, l in POWER_CASES])
def test_reduction_check_fails_on_a_wrong_identity(kl):
    # at the CLI plan defaults; with term-by-term masses the check passed on
    # every one of these mutations from weight 7 on
    import dataclasses

    from mplkit.reduction import reduce_li
    from mplkit.symalg import Expr, root_orbits

    identity = reduce_li(*kl)
    plan = VerificationPlan()
    assert verify_identity(identity, plan).passed
    orbits, _ = root_orbits(identity.rhs)
    dropped = max(orbits, key=lambda o: len(o.terms)).terms[0]  # breaks that orbit
    wrong = {
        "no lhs": dataclasses.replace(identity, lhs=Expr.zero()),
        "lhs doubled": dataclasses.replace(identity, lhs=identity.lhs.scale(2)),
        "rhs term dropped": dataclasses.replace(
            identity, rhs=Expr(tuple(t for t in identity.rhs.terms if t is not dropped))
        ),
    }
    for name, mutant in wrong.items():
        assert not verify_identity(mutant, plan).passed, name


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("name", ["seed", "point_count"])
def test_plan_integers_refuse_a_float_bool_or_string(name, value):
    message = "^" + re.escape(f"{name} must be an integer, got {value!r}") + "$"
    with pytest.raises(ValueError, match=message):
        VerificationPlan(**{name: value})
