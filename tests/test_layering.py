"""The exact core runs without numpy, and every public name resolves.

numeval is the one module that imports numpy, and only in the functions that
build arrays: one point (`mplkit eval`) loads none.  The exact modules import
numeval only when a number is asked for, and the numeric names that symalg
and the package list are looked up in numeval on first use.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import mplkit
from mplkit import numeval, symalg

EXACT_MODULES = ("symalg", "coalgebra", "reduction", "serialize", "linalg", "verify", "cli")

# the numpy check of every stage runs in a fresh interpreter: this one has
# loaded numpy already
_PROBE = """
import json, sys
stages = []
def stage(name):
    stages.append([name, "numpy" in sys.modules])
for name in sys.argv[1:]:
    __import__("mplkit." + name)
    stage("import " + name)
from mplkit.cli import main
for argv in (["surject", "--weights", "2,2"], ["reduce", "--k", "2", "--l", "2"]):
    assert main(argv) == 0
    stage(" ".join(argv))
assert main(["eval", "--indices", "2", "--args", "0.5"]) == 0
stage("eval")
assert main(["reduce", "--k", "2", "--l", "1", "--verify"]) == 0
stage("reduce --k 2 --l 1 --verify")
print(json.dumps(stages), file=sys.stderr)
"""


def test_exact_commands_run_without_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mplkit.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *EXACT_MODULES],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stderr.splitlines()[-1])
    *exact, (last, loaded) = stages
    assert [name for name, _ in exact] == [
        *(f"import {m}" for m in EXACT_MODULES),
        "surject --weights 2,2",
        "reduce --k 2 --l 2",
        "eval",  # one point runs on Python scalars
    ]
    assert [name for name, numpy_loaded in exact if numpy_loaded] == []
    # the check sees numpy when it is there
    assert (last, loaded) == ("reduce --k 2 --l 1 --verify", True)


# the __all__ lists of the two modules whose code moved, as they were
# before it moved: each name still resolves where it did
_SYMALG_ALL = [
    "ArgMonomial", "BudgetUnderflow", "DepthCapExceeded", "Expr", "Identity", "MPLFactor",
    "Orbit", "Term", "UnboundVariable", "ZeroBase", "eval_expr", "eval_expr_batch",
    "li_expr", "li_factor", "normalize", "root_expand", "root_orbits", "stuffle_product",
]
_NUMEVAL_ALL = [
    "Composition", "CutoffOverflow", "DEFAULT_MAX_CUTOFF", "DEFAULT_RHO_MAX",
    "DivergentRequest", "EvalRequest", "EvalResult", "PoleProximity", "choose_cutoff",
    "eval_generating_series", "eval_li", "series_value_batch", "suffix_moduli", "tail_bound",
]


@pytest.mark.parametrize(
    "name", ["mplkit", *(f"mplkit.{m}" for m in EXACT_MODULES if m != "cli"), "mplkit.numeval"]
)
def test_every_listed_name_resolves(name):  # cli lists no names
    module = importlib.import_module(name)
    for attr in module.__all__:
        assert getattr(module, attr) is not None, attr
    if module is symalg:
        assert set(_SYMALG_ALL) <= set(module.__all__)
    if module is numeval:
        assert set(_NUMEVAL_ALL) <= set(module.__all__)


@pytest.mark.parametrize(
    "owner, name",
    [(symalg, "eval_expr"), (symalg, "eval_expr_batch"), *(
        (mplkit, n) for n in ("EvalRequest", "EvalResult", "choose_cutoff", "eval_expr",
                              "eval_generating_series", "eval_li", "tail_bound")
    )],
)
def test_numeric_names_are_numevals(owner, name):
    assert getattr(owner, name) is getattr(numeval, name)
    assert name in owner.__all__


@pytest.mark.parametrize(
    "name",
    ["Composition", "CutoffOverflow", "DEFAULT_MAX_CUTOFF", "DEFAULT_RHO_MAX", "DEPTH_CAP",
     "DivergentRequest", "WEIGHT_CAP"],
)
def test_shared_vocabulary_is_symalgs(name):
    assert getattr(numeval, name) is getattr(symalg, name)
    if name == "Composition":
        assert mplkit.Composition is symalg.Composition


def test_unknown_names_still_raise_attribute_error():
    for module in (mplkit, symalg):
        with pytest.raises(AttributeError, match="no attribute 'eval_nothing'"):
            module.eval_nothing
    from mplkit.symalg import eval_expr_batch  # a from-import goes through the lookup too

    assert eval_expr_batch is numeval.eval_expr_batch


def test_numpy_and_numeval_privates_stay_in_numeval():
    package = os.path.dirname(os.path.abspath(mplkit.__file__))
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py") or filename == "numeval.py":
            continue
        with open(os.path.join(package, filename)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "numpy" for a in node.names), filename
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "numpy", filename
                if node.module == "numeval":
                    assert not any(a.name.startswith("_") for a in node.names), filename
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id == "numeval" and node.attr.startswith("_")), filename


# The one integer rule is symalg._require_ints and the one rational rule
# symalg._as_fraction: a value a caller or a document hands in is read by
# them, by the serialize readers built on them, or by a constructor that
# calls them.  These are the only functions of the exact modules that may
# convert a value with int() or Fraction() alone.
CONVERSION_OWNERS = {("symalg", "_as_fraction"), ("serialize", "_int"), ("serialize", "_decimal")}


def _ad_hoc_conversions(node, function="<module>"):
    """(function, source) of each one-argument int() or Fraction() call below
    node, and of each call that is passed int or Fraction as a parse function.
    int(<comparison>), a literal int argument and Fraction(a, b) are no
    conversions of an outside value, and isinstance names types, not parsers."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _ad_hoc_conversions(child, child.name)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
            args = [*child.args, *(k.value for k in child.keywords)]
            if child.func.id in ("int", "Fraction") and len(args) == 1:
                (arg,) = args
                literal = isinstance(arg, ast.Constant) and type(arg.value) is int
                if not literal and not (child.func.id == "int" and isinstance(arg, ast.Compare)):
                    yield function, ast.unparse(child)
            if child.func.id not in ("isinstance", "issubclass") and any(
                isinstance(a, ast.Name) and a.id in ("int", "Fraction") for a in args
            ):
                yield function, ast.unparse(child)
        yield from _ad_hoc_conversions(child, function)


@pytest.mark.parametrize("module", ["symalg", "coalgebra", "reduction", "verify", "linalg", "serialize"])
def test_exact_inputs_are_converted_by_their_owners_only(module):
    path = os.path.join(os.path.dirname(os.path.abspath(mplkit.__file__)), f"{module}.py")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    found = [
        (function, source) for function, source in _ad_hoc_conversions(tree)
        if (module, function) not in CONVERSION_OWNERS
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("def f(p):\n    return int(p)", ["int(p)"]),
        ("def f(c):\n    return Fraction(c)", ["Fraction(c)"]),
        ("def f(d):\n    return _at('n', int, d['n'])", ["_at('n', int, d['n'])"]),
        ("def f(ps):\n    return list(map(Fraction, ps))", ["map(Fraction, ps)"]),
        ("def f(a, b, i, j):\n    return Fraction(a, b) + int(i == j) + Fraction(1)", []),
        ("def f(v):\n    return isinstance(v, int)", []),
    ],
)
def test_the_conversion_guard_sees_each_kind(source, flagged):
    assert [s for _, s in _ad_hoc_conversions(ast.parse(source))] == flagged
