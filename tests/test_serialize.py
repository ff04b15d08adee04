import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mplkit.coalgebra import (
    GeneratorCombination,
    GeneratorTerm,
    GroupElement,
    TensorElement,
    PolylogSymbol,
    cobracket_image,
    construct_preimage,
    verify_preimage,
)
from mplkit.reduction import reduce_li, weight4_fixture_identity
from mplkit.serialize import (
    _dumps,
    _tensor_element_tree,
    generator_combination_dumps,
    generator_combination_from_dict,
    generator_combination_loads,
    generator_combination_to_dict,
    identity_dumps,
    identity_from_dict,
    identity_loads,
    identity_to_dict,
    identity_to_latex,
    preimage_report_to_dict,
    report_dumps,
    tensor_element_from_dict,
    tensor_element_to_dict,
)
from mplkit.symalg import ArgMonomial, Expr, Identity, Term, li_factor
from mplkit.verify import VerificationPlan, verify_identity

from _mutations import mutated, mutations


def test_identity_round_trip_structural():
    ident = weight4_fixture_identity()
    text = identity_dumps(ident)
    back = identity_loads(text)
    assert back.lhs == ident.lhs
    assert back.rhs == ident.rhs
    assert back.weight == ident.weight
    assert back.variables == ident.variables
    assert identity_dumps(back) == text  # bit-exact second pass


def test_identity_round_trip_generated():
    ident = reduce_li(1, 3)
    text = identity_dumps(ident)
    assert identity_dumps(identity_loads(text)) == text


def test_identity_json_shape():
    d = json.loads(identity_dumps(weight4_fixture_identity()))
    assert d["schema_version"] == 1
    assert d["kind"] == "identity"
    assert d["weight"] == 4
    assert d["variables"] == ["x", "y"]
    term = d["lhs"][0]
    assert set(term) == {"coeff", "factors"}
    assert term["coeff"] == {"num": "1", "den": "1"}
    factor = term["factors"][0]
    assert factor["indices"] == [2, 2]
    mono = factor["args"][0]
    assert set(mono) == {"zeta_order", "zeta_pow", "exponents"}


def test_generator_combination_round_trip():
    gens = (GroupElement.generator("a1"), GroupElement.generator("a2"))
    combo = construct_preimage((3, 2), gens)
    text = generator_combination_dumps(combo)
    back = generator_combination_loads(text)
    assert back == combo
    assert generator_combination_dumps(back) == text


def test_tensor_element_round_trip():
    gens = (GroupElement.generator("a1"), GroupElement.generator("a2"))
    te = cobracket_image(construct_preimage((3, 2), gens))
    d = tensor_element_to_dict(te)
    assert tensor_element_from_dict(d) == te


_rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 4, 8]))


_GENERATORS = ("a1", "a2", "b")


@st.composite
def _group_elements(draw, names=_GENERATORS):
    phase = Fraction(draw(st.integers(0, 11)), draw(st.sampled_from([1, 2, 3, 4, 8])))
    exps = draw(st.dictionaries(st.sampled_from(names), _rationals, max_size=3))
    return GroupElement(phase, tuple(exps.items()))


@st.composite
def _generator_combinations(draw, names=_GENERATORS, coeffs=_rationals):
    depth = draw(st.integers(1, 3))
    weight = draw(st.integers(depth, 10))
    args = st.tuples(*[_group_elements(names)] * depth)
    terms = draw(st.lists(st.tuples(args, coeffs), max_size=6))
    return GeneratorCombination.from_terms((GeneratorTerm(weight, a), c) for a, c in terms)


@st.composite
def _tensor_elements(draw, names=_GENERATORS, coeffs=_rationals):
    weights = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    args = st.tuples(*[_group_elements(names)] * len(weights))
    terms = draw(st.lists(st.tuples(st.permutations(weights), args, coeffs), max_size=6))
    return TensorElement.from_terms(
        (tuple(PolylogSymbol(n, a) for n, a in zip(ns, xs)), c) for ns, xs, c in terms
    )


def _tensor_element_dumps(te) -> str:
    return json.dumps(tensor_element_to_dict(te), indent=2, sort_keys=True) + "\n"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_generator_combinations())
def test_generator_combination_round_trip_property(combo):
    text = generator_combination_dumps(combo)
    back = generator_combination_loads(text)
    assert back == combo
    assert generator_combination_dumps(back) == text


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_tensor_elements())
def test_tensor_element_round_trip_property(te):
    text = _tensor_element_dumps(te)
    back = tensor_element_from_dict(json.loads(text))
    assert back == te
    assert _tensor_element_dumps(back) == text


@pytest.mark.parametrize("version", [None, 0, 2, "1", True, 1.0])
def test_loaders_reject_other_schema_versions(version):
    gens = (GroupElement.generator("a1"), GroupElement.generator("a2"))
    combo = construct_preimage((3, 2), gens)
    docs = [
        (identity_from_dict, identity_to_dict(weight4_fixture_identity())),
        (generator_combination_from_dict, generator_combination_to_dict(combo)),
        (tensor_element_from_dict, tensor_element_to_dict(cobracket_image(combo))),
    ]
    for load, doc in docs:
        if version is None:
            del doc["schema_version"]
        else:
            doc["schema_version"] = version
        with pytest.raises(ValueError, match=re.escape(f"unsupported schema_version {version!r}")):
            load(doc)


_COMBO = construct_preimage(
    (3, 2), (GroupElement.generator("a1"), GroupElement.make({"a2": 1, "b": Fraction(1, 2)}))
)
_COMBO_DOC = generator_combination_to_dict(_COMBO)
_TENSOR_DOC = tensor_element_to_dict(cobracket_image(_COMBO))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutation=mutations(_COMBO_DOC))
def test_mutated_generator_combination_document(mutation):
    # like identity_loads: a malformed document raises ValueError and nothing else
    try:
        generator_combination_loads(json.dumps(mutated(_COMBO_DOC, mutation)))
    except ValueError:
        pass


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutation=mutations(_TENSOR_DOC))
def test_mutated_tensor_element_document(mutation):
    try:
        tensor_element_from_dict(mutated(_TENSOR_DOC, mutation))
    except ValueError:
        pass


_IDENTITY_DOC = identity_to_dict(weight4_fixture_identity())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutation=mutations(_IDENTITY_DOC))
def test_mutated_identity_dict(mutation):
    # the dict entry point guards its document like identity_loads
    try:
        identity_from_dict(mutated(_IDENTITY_DOC, mutation))
    except ValueError:
        pass


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutation=mutations(_COMBO_DOC))
def test_mutated_generator_combination_dict(mutation):
    try:
        generator_combination_from_dict(mutated(_COMBO_DOC, mutation))
    except ValueError:
        pass


def test_from_dict_faults_are_value_errors():
    with pytest.raises(ValueError, match=r"^malformed identity document: 'lhs'$"):
        identity_from_dict({"kind": "identity", "schema_version": 1})
    doc = mutated(_COMBO_DOC, ("replace", ("terms", 0, "args", 0, "exponents"), [1]))
    with pytest.raises(ValueError, match="malformed generator_combination document: 'list' object"):
        generator_combination_from_dict(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [
        (("rhs", 1, "coeff", "den"), "x", r"^invalid literal for int\(\) .* at rhs\[1\]\.coeff\.den$"),
        (("lhs", 0, "factors", 0, "indices", 1), 0, r"parts must be positive.* at lhs\[0\]\.factors\[0\]$"),
        (("rhs", 0, "factors", 0, "args", 0, "exponents", "x"), {"num": "1"},
         r"^malformed identity document: 'den' at rhs\[0\]\.factors\[0\]\.args\[0\]\.exponents\.x$"),
        (("weight",), float("inf"), r"cannot convert float infinity to integer at weight$"),
        (("variables",), "xy", r"^expected a list of variable names, got 'xy' at variables$"),
        (("variables",), {"x": 1, "y": 2}, r"^expected a list of variable names, .* at variables$"),
        (("variables",), ["x", "y", 1], r"^expected a variable name string, got 1 at variables\[2\]$"),
    ],
    ids=["den-not-an-integer", "zero-index", "no-den", "infinite-weight",
         "variables-string", "variables-object", "variables-non-string-item"],
)
def test_identity_loads_names_the_faulty_field(field, value, message):
    doc = mutated(_IDENTITY_DOC, ("replace", field, value))
    with pytest.raises(ValueError, match=message):
        identity_loads(json.dumps(doc))


def test_tensor_and_generator_loads_name_the_faulty_field():
    doc = mutated(_TENSOR_DOC, ("replace", ("terms", 1, "word", 0, "n"), "two"))
    with pytest.raises(ValueError, match=r" at terms\[1\]\.word\[0\]\.n$"):
        tensor_element_from_dict(doc)
    doc = mutated(_COMBO_DOC, ("replace", ("terms", 0, "args", 1, "zeta_order"), 0))
    with pytest.raises(ValueError, match=r"^zero denominator at terms\[0\]\.args\[1\]$"):
        generator_combination_from_dict(doc)


@pytest.mark.parametrize(
    "mutation, message",
    [
        (("replace", ("terms", 0, "args", 0, "exponents"), [1]), "'list' object"),
        (("drop", ("terms",), None), "'terms'"),
        (("replace", ("terms", 0, "weight"), float("inf")), "infinity"),
    ],
    ids=["list-exponents", "no-terms", "infinite-weight"],
)
def test_generator_combination_loads_faults_are_value_errors(mutation, message):
    with pytest.raises(ValueError, match="malformed generator_combination document: .*" + message):
        generator_combination_loads(json.dumps(mutated(_COMBO_DOC, mutation)))


@pytest.mark.parametrize(
    "mutation, message",
    [
        (("replace", ("terms", 0, "word", 0, "arg", "exponents"), [1]), "'list' object"),
        (("drop", ("terms",), None), "'terms'"),
        (("replace", ("terms", 0, "word"), None), "not iterable"),
    ],
    ids=["list-exponents", "no-terms", "null-word"],
)
def test_tensor_element_from_dict_faults_are_value_errors(mutation, message):
    with pytest.raises(ValueError, match="malformed tensor_element document: .*" + message):
        tensor_element_from_dict(mutated(_TENSOR_DOC, mutation))


_JSON_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", '"\\"', "\x00\x1f\x7f", "\b\f\n\r\t", "\u00e9\u20ac\U0001f600", "\u2028", "\ud800"]
)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-1)
    | st.floats()
    | _JSON_TEXT
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_JSON_TEXT, kids, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_JSON_TREES)
def test_dumps_is_json_dumps_indent2_sorted(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


# Canonical text of the term-carrying documents.  Names need JSON escapes or
# are non-ASCII, coefficients reach 30-45 digit numerators, monomials may carry
# no exponents, terms may be products, and sides or combinations may be empty.
_NAMES = ["x", "y", 'q"uote', "back\\slash", "tab\t", "été", "λ", " ", "\U0001f600"]
_BIG = st.integers(10**29, 10**45)
_COEFFS = st.builds(
    Fraction, st.integers(-9, 9) | _BIG | _BIG.map(lambda n: -n), st.integers(1, 8) | _BIG
)


def _canonical(text: str) -> bool:
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _split(draw, total: int, most: int) -> list[int]:
    """A random composition of total into at most `most` positive parts."""
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=most - 1)) if total > 1 else [])
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@st.composite
def _identities(draw):
    weight = draw(st.integers(1, 6))
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, unique=True))
    monomials = _group_elements(names).map(lambda g: ArgMonomial(g.phase, g.exponents))

    def term():
        factors = []
        for w in _split(draw, weight, 3):  # a product of up to three factors
            parts = _split(draw, w, 3)
            factors.append(li_factor(parts, [draw(monomials) for _ in parts]))
        return Term(draw(_COEFFS), tuple(factors))

    lhs, rhs = (Expr.from_terms([term() for _ in range(draw(st.integers(0, 4)))]) for _ in "lr")
    provenance = draw(st.sampled_from(["", "by hand", 'a "quoted" é \\ note']))
    return Identity(lhs, rhs, weight, frozenset(names), provenance)


_CORNER_IDENTITY = Identity(  # a product term, a monomial with no exponents, an empty side
    Expr.from_terms([
        Term(Fraction(-(10**31) - 7, 3), (
            li_factor([1], [ArgMonomial(Fraction(1, 3))]),
            li_factor([2, 1], [ArgMonomial.variable('q"uote'), ArgMonomial.make({"λ": -2})]),
        )),
    ]),
    Expr.zero(),
    4,
    frozenset({'q"uote', "λ"}),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_identities())
@example(_CORNER_IDENTITY)
def test_identity_text_is_canonical_and_round_trips(ident):
    text = identity_dumps(ident)
    assert _canonical(text)
    assert identity_loads(text) == ident
    assert identity_to_dict(ident) == json.loads(text)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_generator_combinations(_NAMES, _COEFFS))
@example(GeneratorCombination())
@example(GeneratorCombination.from_terms(  # an argument with no exponents
    [(GeneratorTerm(3, (GroupElement(Fraction(1, 8)),)), Fraction(10**35, 7))]
))
def test_generator_combination_text_is_canonical_and_round_trips(combo):
    text = generator_combination_dumps(combo)
    assert _canonical(text)
    assert generator_combination_loads(text) == combo
    assert generator_combination_to_dict(combo) == json.loads(text)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_tensor_elements(_NAMES, _COEFFS))
@example(TensorElement())
@example(TensorElement.from_terms(
    [((PolylogSymbol(2, GroupElement(Fraction(1, 2))),), Fraction(-(10**33)))]
))
def test_tensor_element_text_is_canonical_and_round_trips(te):
    text = _dumps(_tensor_element_tree(te, "\n"))
    assert _canonical(text)
    assert tensor_element_from_dict(json.loads(text)) == te
    assert tensor_element_to_dict(te) == json.loads(text)


def test_alternating_dumps_share_no_state():
    # fresh objects each call, so a memo kept across calls would meet reused ids
    texts = {(2, 2): set(), (3, 1): set()}
    for _ in range(3):
        for k, l in texts:
            ident = reduce_li(k, l)
            text = identity_dumps(ident)
            assert identity_loads(text) == ident
            texts[k, l].add(text)
            gens = (GroupElement.generator("a1"), GroupElement.generator("b"))
            combo = construct_preimage((k, l + 1), gens)
            assert generator_combination_loads(generator_combination_dumps(combo)) == combo
    assert all(len(v) == 1 for v in texts.values())
    assert texts[2, 2] != texts[3, 1]


def test_preimage_report_dict():
    gens = (GroupElement.generator("a1"),)
    report = verify_preimage(construct_preimage((4,), gens), (4,), gens)
    d = preimage_report_to_dict(report)
    assert d["matched"] is True
    assert d["residual"]["terms"] == []


def test_report_dumps_deterministic():
    ident = weight4_fixture_identity()
    plan = VerificationPlan(seed=3, point_count=4)
    a = report_dumps(verify_identity(ident, plan))
    b = report_dumps(verify_identity(ident, plan))
    assert a == b
    d = json.loads(a)
    assert d["pass"] is True
    # all numeric payloads are decimal strings
    assert isinstance(d["max_relative_residual"], str)
    assert isinstance(d["points"][0]["lhs"]["re"], str)


def test_latex_rendering():
    tex = identity_to_latex(weight4_fixture_identity())
    assert tex.startswith(r"\Li_{2,2}\left(x, y\right) =")
    assert r"\Li_{3,1}" in tex
    assert r"\frac{1}{2}" in tex
    assert r"\cdot" in tex  # the product term Li_1 * Li_3


def test_latex_monomial_forms():
    from mplkit.symalg import ArgMonomial, Identity, li_expr

    m = ArgMonomial.make({"x": Fraction(1, 2), "y": Fraction(-1, 2)}, 2, 1)
    e = li_expr([3, 1], [m, ArgMonomial.variable("y")])
    ident = Identity(e, e, weight=4, variables=frozenset({"x", "y"}))
    tex = identity_to_latex(ident)
    assert "x^{1/2}" in tex and "y^{-1/2}" in tex
    assert tex.count("-x^{1/2}") >= 1  # zeta_2 rendered as a sign


# ---------------------------------------------------------------------------
# exact fields: a float, bool or stray string is refused, never truncated


def _path(field) -> str:
    return ".".join(f"[{k}]" if isinstance(k, int) else k for k in field).replace(".[", "[")


# values that int() truncates (4.9) or reads (true as 1, "-1_0" as -10)
_EXACT_FIELD_PROBES = [
    (identity_from_dict, _IDENTITY_DOC, ("lhs", 0, "factors", 0, "indices", 0), 4.9),
    (identity_from_dict, _IDENTITY_DOC, ("weight",), 4.9),
    (identity_from_dict, _IDENTITY_DOC, ("rhs", 0, "factors", 0, "args", 0, "zeta_pow"), 1.9),
    (identity_from_dict, _IDENTITY_DOC, ("rhs", 0, "coeff", "den"), True),
    (identity_from_dict, _IDENTITY_DOC, ("rhs", 0, "coeff", "num"), -1.5),
    (identity_from_dict, _IDENTITY_DOC, ("rhs", 0, "coeff", "num"), "-1_0"),
    (generator_combination_from_dict, _COMBO_DOC, ("terms", 0, "weight"), 4.9),
    (generator_combination_from_dict, _COMBO_DOC, ("terms", 0, "args", 1, "zeta_pow"), 1.9),
    (generator_combination_from_dict, _COMBO_DOC, ("terms", 0, "coeff", "den"), True),
    (generator_combination_from_dict, _COMBO_DOC, ("terms", 0, "coeff", "num"), -1.5),
    (generator_combination_from_dict, _COMBO_DOC, ("terms", 0, "coeff", "num"), "-1_0"),
    (tensor_element_from_dict, _TENSOR_DOC, ("terms", 1, "word", 0, "n"), 2.7),
    (tensor_element_from_dict, _TENSOR_DOC, ("terms", 1, "word", 0, "arg", "zeta_pow"), 1.9),
    (tensor_element_from_dict, _TENSOR_DOC, ("terms", 1, "coeff", "den"), True),
    (tensor_element_from_dict, _TENSOR_DOC, ("terms", 1, "coeff", "num"), -1.5),
    (tensor_element_from_dict, _TENSOR_DOC, ("terms", 1, "coeff", "num"), "-1_0"),
    (tensor_element_from_dict, _TENSOR_DOC,
     ("terms", 1, "word", 0, "arg", "exponents", "a1", "den"), " 2"),
]


@pytest.mark.parametrize(
    "load, doc, field, value",
    _EXACT_FIELD_PROBES,
    ids=[f"{load.__name__}-{_path(field)}={value!r}" for load, _, field, value in _EXACT_FIELD_PROBES],
)
def test_loaders_refuse_inexact_fields(load, doc, field, value):
    message = "^" + re.escape(f"value must be an integer, got {value!r} at {_path(field)}") + "$"
    with pytest.raises(ValueError, match=message):
        load(json.loads(json.dumps(mutated(doc, ("replace", field, value)))))


def test_loaders_read_a_decimal_num_or_den_as_text_or_json_integer():
    for num, den in (("-006", "4"), (-6, 4), ("-3", 2)):
        doc = mutated(_COMBO_DOC, ("replace", ("terms", 0, "coeff"), {"num": num, "den": den}))
        assert generator_combination_from_dict(doc).terms[0][1] == Fraction(-3, 2)


def test_identity_weight_is_an_integer_and_the_fixture_bytes_stay():
    fixture = weight4_fixture_identity()
    with pytest.raises(ValueError, match=r"^weight must be an integer, got 4\.0$"):
        Identity(fixture.lhs, fixture.rhs, 4.0, fixture.variables)
    pinned = json.loads((Path(__file__).parent / "artifact_digests.json").read_text())
    digest = hashlib.sha256(identity_dumps(fixture).encode()).hexdigest()
    assert digest == pinned["fixture.json"]
