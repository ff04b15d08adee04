"""File formats: canonical JSON for identities, generator combinations,
tensor elements and verification reports, plus LaTeX rendering.

Rationals travel as decimal strings {num, den} in lowest terms so parsers
in any language can read them without integer-width assumptions; floats are
rendered as 17-significant-digit decimal strings.  Every document is byte
for byte `json.dumps(doc, indent=2, sort_keys=True)` and a newline, so equal
objects produce byte-identical files.  The records that carry terms (an
identity term with its factors, a generator term, a tensor word) are written
from text templates at their known indent, each monomial once per document;
`_write` writes the envelope around them and the verification reports.  The
*_to_dict functions parse that text, so each schema is written in one place.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping

from .coalgebra import (
    GeneratorCombination,
    GeneratorTerm,
    GroupElement,
    PolylogSymbol,
    PreimageReport,
    TensorElement,
)
from .symalg import ArgMonomial, Composition, Expr, Identity, MPLFactor, Term, _require_ints
from .verify import VerificationReport

__all__ = [
    "SCHEMA_VERSION",
    "format_float",
    "generator_combination_dumps",
    "generator_combination_from_dict",
    "generator_combination_loads",
    "generator_combination_to_dict",
    "identity_dumps",
    "identity_from_dict",
    "identity_loads",
    "identity_to_dict",
    "identity_to_latex",
    "preimage_report_dumps",
    "preimage_report_to_dict",
    "report_dumps",
    "report_to_dict",
    "tensor_element_from_dict",
    "tensor_element_to_dict",
]

SCHEMA_VERSION = 1


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` and a newline, byte for byte,
    without the stdlib's slow pure-Python indent encoder.  Keys must be strings."""
    out = io.StringIO()  # holds less than a list of every chunk
    _write(obj, "\n", out.write)
    out.write("\n")
    return out.getvalue()


class _Raw(str):
    """JSON text already rendered for its place in a document; `_write` emits it verbatim."""


def _write(obj, newline: str, emit) -> None:
    """Emit obj as JSON; newline is the line break and indent of its line."""
    if isinstance(obj, str):
        emit(obj if type(obj) is _Raw else _quote(obj))
    elif isinstance(obj, (dict, list, tuple)) and obj:
        keyed, inner = isinstance(obj, dict), newline + "  "
        for i, item in enumerate(sorted(obj) if keyed else obj):
            emit(("," if i else "{" if keyed else "[") + inner)
            if keyed:
                emit(_quote(item) + ": ")
            _write(obj[item] if keyed else item, inner, emit)
        emit(newline + ("}" if keyed else "]"))
    else:  # scalars, empty containers, and what json.dumps rejects
        emit(json.dumps(obj))


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _envelope(kind: str, fields: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def _complex_dict(z: complex) -> dict:
    return {"re": format_float(z.real), "im": format_float(z.imag)}


def _fraction_text(num: int, den: int, newline: str) -> str:
    inner = newline + "  "
    return f'{{{inner}"den": "{den}",{inner}"num": "{num}"{newline}}}'


def _join(items: list[str], newline: str, brackets: str = "[]") -> str:
    """A JSON list, or with brackets "{}" an object, of items already rendered
    for the line below the one at `newline`."""
    if not items:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _monomial_writer(newline: str):
    """m -> the text of monomial m, whose "{" ends the line at `newline`.  A
    writer serves one document, which keeps every m alive meanwhile, so its
    memo can key on id(m), and renders each monomial object once."""
    n1, n2 = newline + "  ", newline + "    "
    memo: dict[int, str] = {}

    def write(m: ArgMonomial) -> str:
        if (text := memo.get(id(m))) is None:
            num, den, key = m._k  # the phase and the exponents, as integers
            exps = _join([f"{_quote(v)}: {_fraction_text(n, d, n2)}" for v, n, d in key], n1, "{}")
            zeta = f'{n1}"zeta_order": {den},{n1}"zeta_pow": {num}{newline}}}'
            text = memo[id(m)] = f'{{{n1}"exponents": {exps},{zeta}'
        return text

    return write


_FAULTS = (ValueError, LookupError, TypeError, AttributeError, OverflowError)


class _Fault(ValueError):
    """A fault of a document: the exception raised on it and the path of the
    field that holds it, outermost segment first."""

    def __init__(self, cause: Exception, path: list[str]) -> None:
        super().__init__(cause, path)
        self.cause, self.path = cause, path


def _at(segment: str, parse, value):
    """parse(value), a fault of it located at `segment` of the enclosing field."""
    try:
        return parse(value)
    except _Fault as fault:
        raise _Fault(fault.cause, [segment, *fault.path]) from None
    except _FAULTS as exc:
        raise _Fault(exc, [segment]) from None


def _each(name: str, parse, items) -> list:
    """parse of every item of a list field, a fault located at name[i]."""
    return [_at(f"{name}[{i}]", parse, item) for i, item in enumerate(items)]


def _int(v) -> int:
    """A JSON integer.  A float or string that int() cannot read, as inf, raises int()'s fault."""
    if isinstance(v, (float, str)):
        int(v)  # for its fault alone: _require_ints refuses what it reads
    _require_ints(value=v)
    return v


def _decimal(v) -> int:
    """A num or den: a JSON integer, or a string of an optional "-" and ASCII digits."""
    if isinstance(v, str) and v.isascii() and v.removeprefix("-").isdigit():
        v = int(v)
    return _int(v)


def _ratio(num, den) -> Fraction:
    if den == 0:
        raise ValueError("zero denominator")
    return Fraction(num, den)


def _names(items) -> list[str]:
    """A JSON list of strings; a fault of an item is located at it, as `[2]`."""
    if not isinstance(items, list):
        raise ValueError(f"expected a list of variable names, got {items!r}")
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise _Fault(ValueError(f"expected a variable name string, got {item!r}"), [f"[{i}]"])
    return items


def _fraction_from(d: Mapping) -> Fraction:
    if not isinstance(d, Mapping):
        raise ValueError(f"expected a rational {{num, den}}, got {d!r}")
    return _ratio(_at("num", _decimal, d["num"]), _at("den", _decimal, d["den"]))


def _message(exc: Exception, kind: str) -> str:
    if isinstance(exc, ValueError):  # the loaders' own checks
        return str(exc)
    return f"malformed {kind} document: {exc}"


@contextlib.contextmanager
def _document(d, kind: str):
    """Check a parsed document's kind and schema version, then turn any fault
    of it into a ValueError, which names the path of the faulty field, as in
    `rhs[1].coeff.den`, when the fault is below the top level.  Every
    *_from_dict loader reads its document inside this guard."""
    if not isinstance(d, Mapping):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    if d.get("kind") != kind:
        raise ValueError(f"expected kind={kind!r}, got kind={d.get('kind')!r}")
    version = d.get("schema_version")  # None when missing
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    try:
        yield
    except _Fault as fault:
        path = ".".join(fault.path).replace(".[", "[")
        raise ValueError(f"{_message(fault.cause, kind)} at {path}") from None
    except (LookupError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(_message(exc, kind)) from None


def _monomial_from(d: Mapping, cls: type[ArgMonomial] = ArgMonomial) -> ArgMonomial:
    return cls(
        _ratio(_at("zeta_pow", _int, d["zeta_pow"]), _at("zeta_order", _int, d["zeta_order"])),
        tuple((v, _at(f"exponents.{v}", _fraction_from, e)) for v, e in d["exponents"].items()),
    )


def _factor_from(d: Mapping) -> MPLFactor:
    return MPLFactor(
        Composition(tuple(_each("indices", _int, d["indices"]))),
        tuple(_each("args", _monomial_from, d["args"])),
    )


def _term_from(d: Mapping) -> Term:
    return Term(
        _at("coeff", _fraction_from, d["coeff"]),
        tuple(_each("factors", _factor_from, d["factors"])),
    )


# ---------------------------------------------------------------------------
# identities


def identity_to_dict(identity: Identity) -> dict:
    return json.loads(identity_dumps(identity))


def identity_from_dict(d: Mapping) -> Identity:
    """Build an identity from its dict; any fault in it raises a ValueError."""
    with _document(d, "identity"):
        return Identity(
            Expr.from_terms(_each("lhs", _term_from, d["lhs"])),
            Expr.from_terms(_each("rhs", _term_from, d["rhs"])),
            weight=_at("weight", _int, d["weight"]),
            variables=frozenset(_at("variables", _names, d["variables"])),
            provenance=str(d.get("provenance", "")),
        )


def identity_dumps(identity: Identity) -> str:
    # the indents of a term's keys, of a factor's "{" and keys, and of its args and indices
    n6, n8, n10, n12 = ("\n" + " " * i for i in (6, 8, 10, 12))
    monomial, sep = _monomial_writer(n12), "," + n12

    def term(t: Term) -> str:
        factors = [
            f'{{{n10}"args": [{n12}{sep.join([monomial(a) for a in f.args])}{n10}],'
            f'{n10}"indices": [{n12}{sep.join(map(str, f.indices.parts))}{n10}]{n8}}}'
            for f in t.factors
        ]
        coeff = _fraction_text(*t.coeff.as_integer_ratio(), n6)
        return f'{{{n6}"coeff": {coeff},{n6}"factors": {_join(factors, n6)}\n    }}'

    return _dumps(_envelope("identity", {
        "weight": identity.weight,
        "variables": sorted(identity.variables),
        "lhs": _Raw(_join([term(t) for t in identity.lhs.terms], "\n  ")),
        "rhs": _Raw(_join([term(t) for t in identity.rhs.terms], "\n  ")),
        "provenance": identity.provenance,
    }))


def identity_loads(text: str) -> Identity:
    """Parse an identity document; any fault in it raises a ValueError."""
    return identity_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# generator combinations and tensor elements


def generator_combination_to_dict(c: GeneratorCombination) -> dict:
    return json.loads(generator_combination_dumps(c))


def _group_element_from(d: Mapping) -> GroupElement:
    return _monomial_from(d, GroupElement)


def _generator_term_from(d: Mapping) -> tuple[GeneratorTerm, Fraction]:
    args = _each("args", _group_element_from, d["args"])
    return (
        GeneratorTerm(_at("weight", _int, d["weight"]), tuple(args)),
        _at("coeff", _fraction_from, d["coeff"]),
    )


def generator_combination_from_dict(d: Mapping) -> GeneratorCombination:
    """Build a generator combination from its dict; any fault in it raises a ValueError."""
    with _document(d, "generator_combination"):
        return GeneratorCombination.from_terms(_each("terms", _generator_term_from, d["terms"]))


def generator_combination_dumps(c: GeneratorCombination) -> str:
    n6, n8 = "\n      ", "\n        "  # a term's keys, its args
    monomial, sep = _monomial_writer(n8), "," + n8
    terms = [
        f'{{{n6}"args": [{n8}{sep.join([monomial(a) for a in g.args])}{n6}],'
        f'{n6}"coeff": {_fraction_text(*q.as_integer_ratio(), n6)},'
        f'{n6}"depth": {g.depth},{n6}"weight": {g.weight}\n    }}'
        for g, q in c.terms
    ]
    return _dumps(_envelope("generator_combination", {"terms": _Raw(_join(terms, "\n  "))}))


def generator_combination_loads(text: str) -> GeneratorCombination:
    """Parse a generator combination document; any fault in it raises a ValueError."""
    return generator_combination_from_dict(json.loads(text))


def _tensor_element_tree(te: TensorElement, newline: str) -> dict:
    """te's document, its terms rendered for a document that opens at `newline`:
    a term's "{" and keys at n4 and n6, a symbol's at n8 and n10."""
    n4, n6, n8, n10 = (newline + " " * i for i in (4, 6, 8, 10))
    monomial = _monomial_writer(n10)

    def term(word: tuple[PolylogSymbol, ...], coeff: Fraction) -> str:
        symbols = [f'{{{n10}"arg": {monomial(s.arg)},{n10}"n": {s.n}{n8}}}' for s in word]
        q = _fraction_text(*coeff.as_integer_ratio(), n6)
        return f'{{{n6}"coeff": {q},{n6}"word": {_join(symbols, n6)}{n4}}}'

    terms = _join([term(w, coeff) for w, coeff in te.terms], newline + "  ")
    return _envelope("tensor_element", {"terms": _Raw(terms)})


def tensor_element_to_dict(te: TensorElement) -> dict:
    return json.loads(_dumps(_tensor_element_tree(te, "\n")))


def _symbol_from(d: Mapping) -> PolylogSymbol:
    return PolylogSymbol(_at("n", _int, d["n"]), _at("arg", _group_element_from, d["arg"]))


def _tensor_term_from(d: Mapping) -> tuple[tuple[PolylogSymbol, ...], Fraction]:
    return tuple(_each("word", _symbol_from, d["word"])), _at("coeff", _fraction_from, d["coeff"])


def tensor_element_from_dict(d: Mapping) -> TensorElement:
    """Build a tensor element from its dict; any fault in it raises a ValueError."""
    with _document(d, "tensor_element"):
        return TensorElement.from_terms(_each("terms", _tensor_term_from, d["terms"]))


def preimage_report_to_dict(report: PreimageReport) -> dict:
    return json.loads(preimage_report_dumps(report))


def preimage_report_dumps(report: PreimageReport) -> str:
    return _dumps(_envelope("preimage_report", {
        "matched": report.matched,
        "target": _tensor_element_tree(report.target, "\n  "),
        "image": _tensor_element_tree(report.image, "\n  "),
        "residual": _tensor_element_tree(report.residual, "\n  "),
    }))


# ---------------------------------------------------------------------------
# verification reports


def report_to_dict(report: VerificationReport) -> dict:
    plan = report.plan
    return _envelope("verification_report", {
        "plan": {
            "seed": plan.seed,
            "point_count": plan.point_count,
            "radius": format_float(plan.radius),
            "tolerance": format_float(plan.tolerance),
            "allow_complex": plan.allow_complex,
        },
        "points": [
            {
                "assignment": {v: _complex_dict(z) for v, z in sorted(p.assignment.items())},
                "lhs": _complex_dict(p.lhs),
                "rhs": _complex_dict(p.rhs),
                "residual": format_float(p.residual),
                "l1_mass": format_float(p.l1_mass),
                "relative_residual": format_float(p.relative_residual),
            }
            for p in report.points
        ],
        "max_relative_residual": format_float(report.max_relative_residual),
        "pass": report.passed,
    })


def report_dumps(report: VerificationReport) -> str:
    return _dumps(report_to_dict(report))


# ---------------------------------------------------------------------------
# LaTeX


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _monomial_latex(m: ArgMonomial) -> str:
    bits = [v if e == 1 else f"{v}^{{{e}}}" for v, e in m.exponents]  # e as n or n/d
    if m.phase == Fraction(1, 2):
        return "-" + (" ".join(bits) or "1")
    if m.phase != 0:
        bits.insert(0, rf"\zeta_{{{m.zeta_order}}}^{{{m.zeta_power}}}")
    return " ".join(bits) or "1"


def _factor_latex(f: MPLFactor) -> str:
    head = ",".join(str(i) for i in f.indices.parts)
    args = ", ".join(_monomial_latex(a) for a in f.args)
    return rf"\Li_{{{head}}}\left({args}\right)"


def _expr_latex(e: Expr) -> str:
    chunks = []
    for t in e.terms:
        body = r" \cdot ".join(_factor_latex(f) for f in t.factors)
        if t.factors and abs(t.coeff) == 1:
            piece = ("-" if t.coeff < 0 else "") + body
        else:
            piece = _frac_latex(t.coeff) + (r"\, " + body if t.factors else "")
        chunks.append(piece if not chunks or piece.startswith("-") else "+" + piece)
    return "".join(chunks) or "0"


def identity_to_latex(identity: Identity) -> str:
    return _expr_latex(identity.lhs) + " = " + _expr_latex(identity.rhs)
