import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplkit import cli, numeval
from mplkit.cli import main
from mplkit.serialize import identity_loads
from mplkit.verify import VerificationPlan

from _mutations import mutated, mutations


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval


def test_eval_li2(capsys):
    import mpmath  # the "test" extra; an independent oracle, not a library dependency
    code, out, _ = run(capsys, "eval", "--indices", "2", "--args", "0.5", "--prec", "1e-14")
    assert code == 0
    assert "0.582240526465" in out
    lines = dict(line.split(":", 1) for line in out.splitlines())
    value = complex(lines["value"].replace(" ", ""))
    with mpmath.workdps(40):
        ref = complex(mpmath.polylog(2, mpmath.mpf(0.5)))
    assert abs(value - ref) <= float(lines["tail bound"])


def test_eval_li1(capsys):
    code, out, _ = run(capsys, "eval", "--indices", "1", "--args", "0.5")
    assert code == 0
    assert "0.69314718055994" in out


def test_eval_zero_argument(capsys):
    code, out, _ = run(capsys, "eval", "--indices", "3,1", "--args", "0,0.5")
    assert code == 0
    assert out.splitlines()[0].startswith("value:      0 ")


def test_eval_divergent_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--indices", "2", "--args", "1.5")
    assert code == 2
    assert "divergent" in err


def test_eval_li1_and_li2_share_the_domain_rule_at_the_boundary():
    # |x| is 0.99 to Python's abs and 0.9900000000000001 to numpy's SIMD abs
    # on x86-64 builds; Li_1 and Li_2 read the same modulus, so both commands
    # exit 2 there, and both print a value where numpy's abs reads 0.99
    x = "-0.6774488236435029+0.7219162633879598j"
    modulus = float(numeval.suffix_moduli([complex(x)])[0])
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    for indices in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "mplkit.cli", "eval", "--indices", indices, f"--args={x}"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if modulus > numeval.DEFAULT_RHO_MAX:
            assert proc.returncode == 2, (indices, proc.stdout)
            assert proc.stderr == (
                f"divergent request: suffix product |a_1...a_1| = {modulus!r} "
                "exceeds rho_max = 0.99\n"
            )
        else:
            assert proc.returncode == 0, (indices, proc.stderr)


def test_eval_cutoff_overflow_exit_3(capsys, monkeypatch):
    # the target needs M near 7e4 at rho 0.989, far above a 10^3 ceiling
    monkeypatch.setattr(numeval, "DEFAULT_MAX_CUTOFF", 10**3)
    code, _, err = run(capsys, "eval", "--indices", "2", "--args", "0.989", "--prec", "1e-320")
    assert code == 3
    assert "cutoff" in err


# ---------------------------------------------------------------------------
# reduce


def test_reduce_verify_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "li22.json"
    code, out, _ = run(
        capsys, "reduce", "--k", "2", "--l", "2", "--verify", "--out", str(out_file)
    )
    assert code == 0
    assert "pass" in out
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "identity" and doc["weight"] == 4


@pytest.mark.parametrize(
    "extra, max_cutoff, expected",
    [(["--tol", "5e-324"], None, 2), ([], 10, 3)],
    ids=["tolerance-too-small", "cutoff-overflow"],
)
def test_reduce_verify_failure_leaves_no_file(tmp_path, capsys, monkeypatch, extra, max_cutoff, expected):
    if max_cutoff is not None:
        monkeypatch.setattr(numeval, "DEFAULT_MAX_CUTOFF", max_cutoff)
    out_file = tmp_path / "li21.json"
    code, out, _ = run(
        capsys, "reduce", "--k", "2", "--l", "1", "--verify", "--out", str(out_file), *extra
    )
    assert code == expected and out == ""
    assert list(tmp_path.iterdir()) == []


def test_reduce_near_trivial(capsys):
    code, _, _ = run(capsys, "reduce", "--k", "3", "--l", "1")
    assert code == 0


def test_reduce_rejects_large_weight(capsys):
    code, _, err = run(capsys, "reduce", "--k", "7", "--l", "6")
    assert code == 2
    assert err == "error: need k, l >= 1 and k + l <= 12\n"


def test_reduce_verifies_at_the_weight_cap(tmp_path, capsys):
    out_file = tmp_path / "li66.json"
    code, out, _ = run(
        capsys, "reduce", "--k", "6", "--l", "6", "--verify", "--out", str(out_file)
    )
    assert code == 0
    assert "result:       pass" in out
    assert json.loads(out_file.read_text())["weight"] == 12


def test_reduce_rejects_small_weight(capsys):
    code, _, err = run(capsys, "reduce", "--k", "1", "--l", "1")
    assert code == 2
    assert err == "error: need weight >= 3, got 2\n"


def test_reduce_latex_heads(capsys):
    code, out, _ = run(capsys, "reduce", "--k", "1", "--l", "2", "--emit", "latex")
    assert code == 0
    rhs = out.split("=", 1)[1]
    heads = set(re.findall(r"\\Li_\{([0-9,]+)\}", rhs))
    assert heads == {"2,1", "3"}


# ---------------------------------------------------------------------------
# verify


def test_verify_fixture_file(tmp_path, capsys):
    from mplkit.reduction import weight4_fixture_identity
    from mplkit.serialize import identity_dumps

    path = tmp_path / "fixture.json"
    path.write_text(identity_dumps(weight4_fixture_identity()))
    code, out, _ = run(capsys, "verify", str(path), "--points", "10")
    assert code == 0
    assert "pass" in out


def test_verify_tampered_fixture_fails(tmp_path, capsys):
    from mplkit.reduction import weight4_fixture_identity
    from mplkit.serialize import identity_dumps

    doc = json.loads(identity_dumps(weight4_fixture_identity()))
    for term in doc["rhs"]:
        if term["coeff"] == {"num": "4", "den": "1"}:
            term["coeff"] = {"num": "5", "den": "1"}
            break
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--points", "10")
    assert code == 4
    assert "FAIL" in out


def test_verify_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "parse error" in err


def _fixture_doc():
    from mplkit.reduction import weight4_fixture_identity
    from mplkit.serialize import identity_dumps

    return json.loads(identity_dumps(weight4_fixture_identity()))


def _with_first_rhs(field, value):
    doc = _fixture_doc()
    doc["rhs"][0][field] = value
    return doc


def _with_first_monomial(field, value):
    doc = _fixture_doc()
    doc["rhs"][0]["factors"][0]["args"][0][field] = value
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "JSON object"),
        (_with_first_rhs("coeff", {"num": "1", "den": "0"}), "zero denominator"),
        (_with_first_rhs("coeff", 4), "rational"),
        (_with_first_rhs("factors", 4), "not iterable"),
        ({**_fixture_doc(), "schema_version": 2}, "unsupported schema_version 2"),
        (_with_first_monomial("exponents", [1]), "malformed identity document: 'list'"),
        ({**_fixture_doc(), "variables": ["x"]}, "uses undeclared variables ['y']"),
        ({**_fixture_doc(), "weight": float("inf")}, "cannot convert float infinity"),
        ({**_fixture_doc(), "variables": "xy"}, "list of variable names, got 'xy' at variables"),
        ({**_fixture_doc(), "variables": {"x": 1, "y": 2}}, "list of variable names"),
        ({**_fixture_doc(), "variables": ["x", "y", 1]}, "got 1 at variables[2]"),
    ],
    ids=[
        "top-level-list",
        "zero-denominator",
        "integer-coefficient",
        "integer-factors",
        "schema-version-2",
        "list-exponents",
        "undeclared-variable",
        "infinite-weight",
        "variables-string",
        "variables-object",
        "variables-non-string-item",
    ],
)
def test_verify_malformed_identity_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("parse error: ")
    assert message in err


def test_verify_non_integer_weight_exit_2(tmp_path, capsys):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({**_fixture_doc(), "weight": 4.9}))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == "parse error: value must be an integer, got 4.9 at weight\n"


def test_verify_huge_exponent_exit_2(tmp_path, capsys):
    # an exponent beyond the double range is an input fault, not a traceback
    doc = _fixture_doc()
    doc["rhs"][0]["factors"][0]["args"][0]["exponents"]["x"]["num"] = "1" + "0" * 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", str(path), "--report", str(report))
    assert code == 2 and out == ""
    assert err.startswith("error: exponent of x in the rhs suffix product from slot 1 ")
    assert "401-digit numerator, beyond the double range" in err
    assert not report.exists()


def test_verify_huge_coefficient_exit_2(tmp_path, capsys):
    # a coefficient beyond the double range is an input fault, like an exponent
    doc = _fixture_doc()
    doc["rhs"][0]["coeff"]["num"] = "1" + "0" * 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", str(path), "--report", str(report))
    assert code == 2 and out == ""
    assert err.startswith("error: coefficient of term (5")
    assert ") Li_(4)(x*y) has a 400-digit numerator, beyond the double range" in err
    assert not report.exists()


@pytest.mark.parametrize(
    "flags, message",
    [(("--points", "0"), "point_count"), (("--radius", "1.5"), "radius")],
    ids=["points-0", "radius-1.5"],
)
def test_invalid_plan_exit_2_without_output(tmp_path, capsys, flags, message):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_fixture_doc()))
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", str(path), "--report", str(report), *flags)
    assert code == 2 and message in err and out == ""
    assert not report.exists()

    out_file = tmp_path / "li21.json"
    code, out, err = run(
        capsys, "reduce", "--k", "2", "--l", "1", "--verify", "--out", str(out_file), *flags
    )
    assert code == 2 and message in err and out == ""
    assert not out_file.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fixture.json"]


def test_verify_reports_byte_identical(tmp_path, capsys):
    from mplkit.reduction import weight4_fixture_identity
    from mplkit.serialize import identity_dumps

    path = tmp_path / "fixture.json"
    path.write_text(identity_dumps(weight4_fixture_identity()))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for report in (r1, r2):
        code, _, _ = run(
            capsys,
            "verify", str(path),
            "--seed", "7", "--points", "20", "--radius", "0.6",
            "--report", str(report),
        )
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()


def _li21_file(directory):
    from mplkit.reduction import reduce_li
    from mplkit.serialize import identity_dumps

    path = os.path.join(directory, "li21.json")
    with open(path, "w") as handle:
        handle.write(identity_dumps(reduce_li(2, 1)))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "LI21", "--tol", "1e-322"),
        ("reduce", "--k", "2", "--l", "1", "--verify", "--tol", "5e-324"),
    ],
    ids=["verify", "reduce"],
)
def test_tolerance_below_factor_budget_exit_2(tmp_path, capsys, argv):
    # the per-factor budget underflows to 0.0
    path = _li21_file(tmp_path)
    code, _, err = run(capsys, *(path if a == "LI21" else a for a in argv))
    assert code == 2
    assert err.startswith("error: tolerance ") and "too small" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_verify_non_finite_tolerance_exit_2(tmp_path, capsys, tol):
    # an infinite tolerance would pass an identity whose lhs is doubled
    import dataclasses

    from mplkit.reduction import reduce_li
    from mplkit.serialize import identity_dumps

    identity = reduce_li(2, 1)
    path = tmp_path / "doubled.json"
    path.write_text(identity_dumps(dataclasses.replace(identity, lhs=identity.lhs.scale(2))))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 4 and "result:       FAIL" in out
    code, out, err = run(capsys, "verify", str(path), "--tol", tol)
    assert code == 2 and out == ""
    assert err == "error: tolerance must be positive and finite\n"


def test_verify_weight13_identity_exit_2(tmp_path, capsys):
    from mplkit.serialize import identity_dumps
    from mplkit.symalg import ArgMonomial, Identity, li_expr

    li13 = li_expr([13], [ArgMonomial.variable("x")])
    path = tmp_path / "li13.json"
    path.write_text(identity_dumps(Identity(li13, li13, 13, frozenset({"x"}))))
    code, out, err = run(capsys, "verify", str(path), "--points", "3")
    assert code == 2 and out == ""
    assert "weight 13 above cap 12" in err


def test_verify_cutoff_overflow_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(numeval, "DEFAULT_MAX_CUTOFF", 10)
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", _li21_file(tmp_path), "--report", str(report))
    assert code == 3
    assert err.startswith("cutoff overflow: ")
    assert not report.exists()


# ---------------------------------------------------------------------------
# exit-code properties

# each mixes any float with the valid range and its edges
_TOL = st.one_of(
    st.floats(), st.floats(0.0, 1e-3), st.sampled_from([0.0, 5e-324, 1e-322, 1e-300])
)
_RADIUS = st.one_of(st.floats(), st.floats(0.0, 1.0), st.sampled_from([0.05, 0.1, 0.99]))
_EXIT_CODES = {0, 2, 3, 4, 5}


def _main_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    indices=st.sampled_from(["1", "2", "2,1", "1,1,1", "13"]),
    args=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=3),
    prec=_TOL,
)
def test_eval_exit_code_property(indices, args, prec):
    code = _main_quietly(
        # the "=" form, because a value may start with "-"
        ["eval", f"--indices={indices}", f"--args={','.join(map(repr, args))}", f"--prec={prec!r}"]
    )
    assert code in _EXIT_CODES


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["verify", "reduce"]),
    tol=_TOL,
    radius=_RADIUS,
    points=st.integers(-1, 3),
    real=st.booleans(),
)
def test_verify_exit_code_property(command, tol, radius, points, real):
    from mplkit.reduction import reduce_li
    from mplkit.serialize import identity_dumps

    plan = [f"--tol={tol!r}", f"--radius={radius!r}", f"--points={points}"]
    plan += ["--real"] if real else []
    with tempfile.TemporaryDirectory() as directory:
        source = _li21_file(directory)
        out = os.path.join(directory, "out.json")
        if command == "verify":
            code = _main_quietly(["verify", source, "--report", out, *plan])
        else:
            code = _main_quietly(["reduce", "--k", "2", "--l", "1", "--verify", "--out", out, *plan])
        assert code in _EXIT_CODES
        assert sorted(os.listdir(directory)) in (["li21.json"], ["li21.json", "out.json"])
        if os.path.exists(out):
            # written whole, and only when verification ran to its end
            with open(out) as handle:
                text = handle.read()
            assert code in (0, 4)
            if command == "verify":
                assert json.loads(text)["pass"] == (code == 0)
            else:
                assert text == identity_dumps(reduce_li(2, 1))


_DOC = _fixture_doc()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutation=mutations(_DOC))
def test_mutated_identity_document(mutation):
    text = json.dumps(mutated(_DOC, mutation))
    try:
        identity_loads(text)
    except ValueError:
        pass
    with tempfile.TemporaryDirectory() as directory:
        source, out = os.path.join(directory, "doc.json"), os.path.join(directory, "report.json")
        with open(source, "w") as handle:
            handle.write(text)
        code = _main_quietly(["verify", source, "--report", out])
        assert code in _EXIT_CODES
        if code in (2, 3):
            assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# surject


def test_surject_22(tmp_path, capsys):
    out_file = tmp_path / "pre.json"
    code, out, _ = run(capsys, "surject", "--weights", "2,2", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert len(doc["terms"]) == 1
    assert doc["terms"][0]["coeff"] == {"num": "1", "den": "1"}


def test_surject_32_coefficients(capsys):
    code, out, _ = run(capsys, "surject", "--weights", "3,2")
    assert code == 0
    doc = json.loads(out.split("terms:")[0])
    coeffs = sorted(int(t["coeff"]["num"]) for t in doc["terms"])
    assert coeffs == [-1, 4, 4]
    assert "matched: True" in out


def test_surject_depth1(capsys):
    code, out, _ = run(capsys, "surject", "--weights", "2")
    assert code == 0
    doc = json.loads(out.split("terms:")[0])
    assert doc["terms"][0]["weight"] == 2 and doc["terms"][0]["depth"] == 1


def test_surject_infeasible_exit_2(capsys):
    code, _, err = run(capsys, "surject", "--weights", "1,3")
    assert code == 2
    assert "infeasible" in err


def test_surject_over_desk_scale(capsys):
    for weights in ("2,2,2,2,2", "4,4,5"):  # depth 5, weight 13
        code, _, err = run(capsys, "surject", "--weights", weights)
        assert code == 2
        assert "need depth <= 4 and total weight <= 12" in err


def test_surject_mismatch_prints_the_residual_exit_4(capsys, monkeypatch):
    construct, dropped = cli.construct_preimage, []

    def one_term_short(weights, args):
        p = construct(weights, args)
        dropped.append(p.terms[0][0])
        return type(p)(p.terms[1:])

    monkeypatch.setattr(cli, "construct_preimage", one_term_short)
    code, out, err = run(capsys, "surject", "--weights", "3,2")
    assert code == cli.EXIT_VERIFY_FAILED == 4
    assert "terms:   2" in out and "matched: False" in out
    assert re.search(r"^residual: .*\bLi_3\(a\d\) \(x\) Li_2\(a\d\)", err, re.M), err
    assert str(dropped[0]) == "Li_{3;1,1}(a1, a2)"


def test_surject_444(capsys):
    code, out, _ = run(capsys, "surject", "--weights", "4,4,4")
    assert code == 0
    assert "matched: True" in out
    assert "terms:   3937" in out


# ---------------------------------------------------------------------------
# output files that cannot be written


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--k", "2", "--l", "2", "--out", "{missing}"],
        ["surject", "--weights", "2,2", "--out", "{missing}"],
        ["surject", "--weights", "2,2", "--report", "{missing}"],
        ["verify", "{fixture}", "--points", "2", "--report", "{missing}"],
        ["reduce", "--k", "2", "--l", "1", "--out", "{directory}"],
        ["surject", "--weights", "2,2", "--out", "{written}", "--report", "{missing}"],
        ["surject", "--weights", "2,2", "--out", "{missing}", "--report", "{written}"],
    ],
    ids=[
        "reduce-out", "surject-out", "surject-report", "verify-report", "out-is-a-directory",
        "surject-report-after-out", "surject-out-after-report",
    ],
)
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    from mplkit.reduction import weight4_fixture_identity
    from mplkit.serialize import identity_dumps

    fixture, directory = tmp_path / "fixture.json", tmp_path / "dir"
    fixture.write_text(identity_dumps(weight4_fixture_identity()))
    directory.mkdir()
    missing = tmp_path / "missing" / "out.json"
    # a writable path: a failed write of the other file must not leave it behind
    paths = dict(missing=missing, fixture=fixture, directory=directory, written=tmp_path / "w.json")
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("cannot write: [Errno ") and err.count("\n") == 1
    assert "Traceback" not in err
    if "{missing}" in argv:
        assert str(missing) in err and ".mplkit-" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "fixture.json"]


# ---------------------------------------------------------------------------
# the environment sets nothing

_JUNK_ENV = {
    "MPLKIT_SEED": "abc",
    "MPLKIT_POINTS": "abc",
    "MPLKIT_RADIUS": "abc",
    "MPLKIT_TOL": "1e-30",
    "MPLKIT_PREC": "abc",
}


def test_env_defaults_overridden_by_flags(tmp_path, capsys, monkeypatch):
    # a set MPLKIT_POINTS changes nothing; the flag alone sets the count
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_fixture_doc()))
    monkeypatch.setenv("MPLKIT_POINTS", "3")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert f"points:       {VerificationPlan.point_count}" in out
    code, out, _ = run(capsys, "verify", str(path), "--points", "5")
    assert code == 0
    assert "points:       5" in out


def test_bad_env_value_is_parsed_only_by_its_flag(tmp_path, capsys, monkeypatch):
    # no flag reads the environment, so a junk value is never parsed
    for name, value in _JUNK_ENV.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "eval", "--indices", "2", "--args", "0.5")
    assert code == 0 and err == ""
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_fixture_doc()))
    for argv in (("verify", str(path)), ("reduce", "--k", "2", "--l", "1", "--verify")):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert "result:       pass" in out
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", str(path), "--seed", "abc"])
    assert exit_info.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


def test_junk_environment_leaves_every_command_unchanged(tmp_path):
    # in a fresh interpreter, all five variables set to junk: the same exit
    # code and the same stdout bytes as in an environment without them
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_fixture_doc()))
    clean = {k: v for k, v in os.environ.items() if not k.startswith("MPLKIT_")}
    clean["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    for argv in (["reduce", "--k", "2", "--l", "1", "--verify"], ["verify", str(path)]):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "mplkit.cli", *argv],
                env=env, capture_output=True, timeout=120,
            )
            for env in (clean, {**clean, **_JUNK_ENV})
        ]
        assert runs[0].returncode == runs[1].returncode == 0, runs[1].stderr
        assert runs[0].stdout == runs[1].stdout


def test_plan_defaults_are_verification_plan_defaults(monkeypatch):
    for name, value in _JUNK_ENV.items():
        monkeypatch.setenv(name, value)
    for argv in (["verify", "doc.json"], ["reduce", "--k", "2", "--l", "1"]):
        assert cli._plan_from_args(cli.build_parser().parse_args(argv)) == VerificationPlan()
    assert cli.build_parser().parse_args(["eval", "--indices", "2", "--args", "0.5"]).prec == 1e-12
