"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 1-5 emit files and reports through a shared builder; criterion 9
re-runs the builder and compares every emitted byte.  The exact artifacts
(identities and preimages) are also compared against the SHA-256 digests
pinned in artifact_digests.json, so a refactor cannot change them unnoticed.
"""

import cmath
import hashlib
import itertools
import math
import random
import time
from pathlib import Path

import pytest

from mplkit.coalgebra import GroupElement, construct_preimage, verify_preimage
from mplkit.coalgebra import (
    PolylogCombination,
    PolylogSymbol,
    distribution_contract,
    distribution_expand,
)
from mplkit.numeval import (
    Composition,
    EvalRequest,
    choose_cutoff,
    eval_li,
    series_value,
    suffix_moduli,
    tail_bound,
)
from mplkit.reduction import (
    build_reduction_matrix,
    build_weighted_sum,
    coefficient_identity,
    reduce_li,
    weight4_fixture_identity,
)
from mplkit.serialize import (
    generator_combination_dumps,
    identity_dumps,
    preimage_report_dumps,
    report_dumps,
)
from mplkit.symalg import ArgMonomial, eval_expr, li_expr
from mplkit.verify import VerificationPlan, verify_identity

from fractions import Fraction
import json


def _emit(status: bool, line: str) -> None:
    print(f"criterion {line}: {'pass' if status else 'FAIL'}")


def build_artifacts():
    """Run the generating/verifying workload of criteria 1-5 once.

    Returns (files, info): `files` maps artifact names to serialized bytes,
    `info` carries reports and timings for the per-criterion assertions.
    """
    files: dict[str, bytes] = {}
    info: dict = {}

    # -- criterion 1: the weight-4 fixture
    t0 = time.monotonic()
    fixture = weight4_fixture_identity()
    plan1 = VerificationPlan(seed=42, point_count=50, radius=0.7, tolerance=1e-9)
    report1 = verify_identity(fixture, plan1)
    info["c1"] = (report1, time.monotonic() - t0)
    files["fixture.json"] = identity_dumps(fixture).encode()
    files["fixture.report.json"] = report_dumps(report1).encode()

    # -- criterion 2: coefficient identities, orders t^1..t^6 (weights 3..8)
    t0 = time.monotonic()
    c2_reports = []
    for order in range(1, 7):
        n = order + 2
        for alpha, beta in ((1, 1), (1, 2), (2, 1), (2, 2)):
            ident = coefficient_identity(n, alpha, beta)
            plan = VerificationPlan(
                seed=42, point_count=10, radius=0.7, tolerance=1e-8
            )
            report = verify_identity(ident, plan)
            c2_reports.append((n, alpha, beta, report))
            stem = f"coefficient_n{n}_a{alpha}_b{beta}"
            files[f"{stem}.json"] = identity_dumps(ident).encode()
            files[f"{stem}.report.json"] = report_dumps(report).encode()
    info["c2"] = (c2_reports, time.monotonic() - t0)

    # -- criterion 3: reductions for every k + l = n, 3 <= n <= 6
    t0 = time.monotonic()
    c3_records = []
    for n in range(3, 7):
        for k in range(1, n):
            ident = reduce_li(k, n - k)
            heads = {
                f.indices.parts for t in ident.rhs.terms for f in t.factors
            }
            plan = VerificationPlan(
                seed=42, point_count=20, radius=0.7, tolerance=1e-8
            )
            report = verify_identity(ident, plan)
            c3_records.append((k, n - k, heads, report))
            stem = f"reduce_{k}_{n - k}"
            files[f"{stem}.json"] = identity_dumps(ident).encode()
            files[f"{stem}.report.json"] = report_dumps(report).encode()
    info["c3"] = (c3_records, time.monotonic() - t0)

    # -- criterion 5: preimages for every weight tuple, d <= 3, sum <= 8
    t0 = time.monotonic()
    c5_records = []
    gens = tuple(GroupElement.generator(f"a{i + 1}") for i in range(3))
    for d in (1, 2, 3):
        for tup in itertools.product(range(2, 9), repeat=d):
            if sum(tup) > 8:
                continue
            combo = construct_preimage(tup, gens[:d])
            report = verify_preimage(combo, tup, gens[:d])
            c5_records.append((tup, report))
            stem = "preimage_" + "_".join(str(w) for w in tup)
            files[f"{stem}.json"] = generator_combination_dumps(combo).encode()
            files[f"{stem}.report.json"] = preimage_report_dumps(report).encode()
    info["c5"] = (c5_records, time.monotonic() - t0)

    return files, info


@pytest.fixture(scope="module")
def first_run():
    return build_artifacts()


def test_criterion_1_fixture(first_run):
    _, info = first_run
    report, elapsed = info["c1"]
    ok = report.passed and elapsed < 10.0
    _emit(ok, f"1 (fixture, 50 points): max_rel={report.max_relative_residual:.3e} "
              f"in {elapsed:.2f}s")
    assert report.passed
    assert report.max_relative_residual < 1e-9
    assert elapsed < 10.0


def test_criterion_2_coefficient_identities(first_run):
    _, info = first_run
    reports, elapsed = info["c2"]
    worst = max(r.max_relative_residual for _, _, _, r in reports)
    ok = all(r.passed for _, _, _, r in reports) and elapsed < 60.0
    _emit(ok, f"2 (coefficient identities, orders 1..6): worst={worst:.3e} "
              f"in {elapsed:.2f}s")
    for n, alpha, beta, report in reports:
        assert report.passed, (n, alpha, beta, report.max_relative_residual)
        assert report.max_relative_residual < 1e-8
    assert elapsed < 60.0


def test_criterion_3_reductions(first_run):
    _, info = first_run
    records, elapsed = info["c3"]
    worst = max(r.max_relative_residual for _, _, _, r in records)
    ok = all(r.passed for _, _, _, r in records)
    _emit(ok, f"3 (reductions 3<=n<=6): worst={worst:.3e} in {elapsed:.2f}s")
    for k, l, heads, report in records:
        n = k + l
        assert heads <= {(n - 1, 1), (n,)}, (k, l, heads)
        assert report.passed, (k, l, report.max_relative_residual)
        assert report.max_relative_residual < 1e-8


def test_criterion_4_exact_linear_algebra():
    for n in range(3, 13):
        m = build_reduction_matrix(n)
        size = n - 1
        for i in range(size):
            for j in range(size):
                entry = sum(m.entries[i][t] * m.inverse[t][j] for t in range(size))
                assert entry == (1 if i == j else 0), (n, i, j)
    # the n=3 inverse reproduces the hand-solved 2x2 system numerically
    m3 = build_reduction_matrix(3)
    assert m3.inverse[0] == (Fraction(2, 3), Fraction(-1, 3))
    combo = build_weighted_sum(3, 1, 2).reduced_form.scale(
        Fraction(2, 3)
    ) + build_weighted_sum(3, 2, 1).reduced_form.scale(Fraction(-1, 3))
    target = li_expr(
        [1, 2], [ArgMonomial.variable("y"), ArgMonomial.variable("x")]
    )
    worst = 0.0
    for asg in ({"x": 0.4, "y": 0.3 + 0.2j}, {"x": -0.25 + 0.35j, "y": 0.55}):
        a, _ = eval_expr(combo, asg, 1e-12)
        b, _ = eval_expr(target, asg, 1e-12)
        worst = max(worst, abs(a - b))
    _emit(worst < 1e-9, f"4 (exact inverses n<=12, hand-solved n=3): "
                        f"numeric diff {worst:.3e}")
    assert worst < 1e-9


def test_criterion_5_preimages(first_run):
    _, info = first_run
    records, elapsed = info["c5"]
    ok = all(r.matched for _, r in records) and elapsed < 60.0
    _emit(ok, f"5 (preimages d<=3, n<=8): {len(records)} tuples, exact, "
              f"in {elapsed:.2f}s")
    assert len(records) == 32
    for tup, report in records:
        assert report.matched, (tup, str(report.residual))
        assert report.residual.is_zero()
    assert elapsed < 60.0


def test_criterion_6_distribution_relations():
    worst = 0.0
    for r in (2, 3):
        for n in range(2, 6):
            rng = random.Random(6000 + 10 * r + n)
            for _ in range(20):
                a = rng.uniform(0.1, 0.8) * cmath.exp(
                    1j * rng.uniform(0, 2 * math.pi)
                )
                lhs = eval_li(
                    EvalRequest(Composition((n,)), (a**r,), 1e-12)
                ).value
                rhs = r ** (n - 1) * sum(
                    eval_li(
                        EvalRequest(
                            Composition((n,)),
                            (cmath.exp(2j * math.pi * j / r) * a,),
                            1e-12,
                        )
                    ).value
                    for j in range(r)
                )
                worst = max(worst, abs(lhs - rhs))
    # symbolic round trips, exact
    b = GroupElement.generator("b")
    e2 = PolylogCombination.from_terms([(PolylogSymbol(4, b), Fraction(3, 5))])
    rt2 = distribution_contract(distribution_expand(e2, 2), 2)
    e3 = PolylogCombination.from_terms([(PolylogSymbol(3, b.power(3)), Fraction(1))])
    rt3 = distribution_contract(distribution_expand(e3, 3), 3)
    exact = rt2 == e2 and rt3 == e3
    _emit(worst < 1e-10 and exact,
          f"6 (distribution relations): numeric worst={worst:.3e}, "
          f"symbolic round-trip exact={exact}")
    assert worst < 1e-10
    assert exact


def test_criterion_7_stuffle_consistency():
    rng = random.Random(7007)
    worst_margin = -1.0
    for _ in range(20):
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
        allowance = combined + 1e-10
        worst_margin = max(worst_margin, residual - allowance)
        assert residual <= allowance, (k, l, residual, allowance)
    _emit(True, f"7 (stuffle, 20 seeded cases): worst margin {worst_margin:.3e}")


def test_criterion_8_truncation_certificates():
    rng = random.Random(8008)
    checked = 0
    while checked < 50:
        depth = rng.choice((1, 2, 3))
        parts = tuple(rng.randint(1, 3) for _ in range(depth))
        args = tuple(
            rng.uniform(0.1, 0.85) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(depth)
        )
        rho = max(suffix_moduli(args))
        if rho >= 0.9:
            continue
        comp = Composition(parts)
        target = 10 ** rng.uniform(-9, -6)
        m = choose_cutoff(comp, rho, target)
        v1 = series_value(comp, args, m)
        v2 = series_value(comp, args, 2 * m)
        bound = tail_bound(comp, rho, m)
        assert abs(v1 - v2) <= bound, (parts, args, m)
        checked += 1
    _emit(True, "8 (truncation certificates): 50 doubling checks within bounds")


def test_criterion_9_determinism(first_run):
    files_a, _ = first_run
    files_b, _ = build_artifacts()
    assert set(files_a) == set(files_b)
    diffs = [name for name in files_a if files_a[name] != files_b[name]]
    _emit(not diffs, f"9 (determinism): {len(files_a)} emitted files byte-identical")
    assert not diffs, diffs


def _is_exact_artifact(name: str) -> bool:
    """Identities and preimages are exact; only verification reports hold floats."""
    return name.startswith("preimage_") or not name.endswith(".report.json")


def test_exact_artifacts_match_pinned_digests(first_run):
    files, _ = first_run
    pinned = json.loads((Path(__file__).parent / "artifact_digests.json").read_text())
    got = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in files.items()
        if _is_exact_artifact(name)
    }
    assert sorted(got) == sorted(pinned)
    changed = sorted(name for name in pinned if got[name] != pinned[name])
    assert not changed, changed
