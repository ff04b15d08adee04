import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplkit import numeval
from mplkit.cli import main


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
    code, _, err = run(capsys, "reduce", "--k", "5", "--l", "4")
    assert code == 2
    assert "k + l <= 8" in err


def test_reduce_latex_heads(capsys):
    code, out, _ = run(capsys, "reduce", "--k", "1", "--l", "2", "--emit", "latex")
    assert code == 0
    import re

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


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "JSON object"),
        (_with_first_rhs("coeff", {"num": "1", "den": "0"}), "zero denominator"),
        (_with_first_rhs("coeff", 4), "rational"),
        (_with_first_rhs("factors", 4), "not iterable"),
        ({**_fixture_doc(), "schema_version": 2}, "unsupported schema_version 2"),
    ],
    ids=[
        "top-level-list",
        "zero-denominator",
        "integer-coefficient",
        "integer-factors",
        "schema-version-2",
    ],
)
def test_verify_malformed_identity_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("parse error: ")
    assert message in err


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
    code, _, _ = run(capsys, "surject", "--weights", "3,3,3")
    assert code == 2


# ---------------------------------------------------------------------------
# environment defaults


def test_env_defaults_overridden_by_flags(tmp_path, capsys, monkeypatch):
    from mplkit.reduction import weight4_fixture_identity
    from mplkit.serialize import identity_dumps

    path = tmp_path / "fixture.json"
    path.write_text(identity_dumps(weight4_fixture_identity()))
    monkeypatch.setenv("MPLKIT_POINTS", "3")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "points:       3" in out
    code, out, _ = run(capsys, "verify", str(path), "--points", "5")
    assert code == 0
    assert "points:       5" in out
