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
