"""File formats: canonical JSON for identities, generator combinations,
tensor elements and verification reports, plus LaTeX rendering.

Rationals travel as decimal strings {num, den} in lowest terms so parsers
in any language can read them without integer-width assumptions; floats are
rendered as 17-significant-digit decimal strings.  Serialization is
canonical (sorted keys, fixed indentation), so equal objects produce
byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .coalgebra import (
    GeneratorCombination,
    GeneratorTerm,
    GroupElement,
    PolylogSymbol,
    PreimageReport,
    TensorElement,
)
from .numeval import Composition
from .symalg import ArgMonomial, Expr, Identity, MPLFactor, Term
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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _complex_dict(z: complex) -> dict:
    return {"re": format_float(z.real), "im": format_float(z.imag)}


def _fraction_dict(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _ratio(num, den) -> Fraction:
    if int(den) == 0:
        raise ValueError("zero denominator")
    return Fraction(int(num), int(den))


def _fraction_from(d: Mapping) -> Fraction:
    if not isinstance(d, Mapping):
        raise ValueError(f"expected a rational {{num, den}}, got {d!r}")
    return _ratio(d["num"], d["den"])


def _check_kind(d, kind: str) -> None:
    if not isinstance(d, Mapping):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    if d.get("kind") != kind:
        raise ValueError(f"expected kind={kind!r}, got kind={d.get('kind')!r}")
    version = d.get("schema_version")  # None when missing
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )


def _monomial_dict(m: ArgMonomial) -> dict:
    return {
        "zeta_order": m.zeta_order,
        "zeta_pow": m.zeta_power,
        "exponents": {v: _fraction_dict(e) for v, e in m.exponents},
    }


def _monomial_from(cls: type[ArgMonomial], d: Mapping) -> ArgMonomial:
    return cls(
        _ratio(d["zeta_pow"], d["zeta_order"]),
        tuple((v, _fraction_from(e)) for v, e in d["exponents"].items()),
    )


def _term_dict(t: Term) -> dict:
    return {
        "coeff": _fraction_dict(t.coeff),
        "factors": [
            {
                "indices": list(f.indices.parts),
                "args": [_monomial_dict(a) for a in f.args],
            }
            for f in t.factors
        ],
    }


def _term_from(d: Mapping) -> Term:
    return Term(
        _fraction_from(d["coeff"]),
        tuple(
            MPLFactor(
                Composition(tuple(int(i) for i in f["indices"])),
                tuple(_monomial_from(ArgMonomial, a) for a in f["args"]),
            )
            for f in d["factors"]
        ),
    )


# ---------------------------------------------------------------------------
# identities


def identity_to_dict(identity: Identity) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "identity",
        "weight": identity.weight,
        "variables": sorted(identity.variables),
        "lhs": [_term_dict(t) for t in identity.lhs.terms],
        "rhs": [_term_dict(t) for t in identity.rhs.terms],
        "provenance": identity.provenance,
    }


def identity_from_dict(d: Mapping) -> Identity:
    _check_kind(d, "identity")
    return Identity(
        Expr.from_terms(_term_from(t) for t in d["lhs"]),
        Expr.from_terms(_term_from(t) for t in d["rhs"]),
        weight=int(d["weight"]),
        variables=frozenset(d["variables"]),
        provenance=str(d.get("provenance", "")),
    )


def identity_dumps(identity: Identity) -> str:
    return _dumps(identity_to_dict(identity))


def identity_loads(text: str) -> Identity:
    return identity_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# generator combinations and tensor elements


def generator_combination_to_dict(c: GeneratorCombination) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "generator_combination",
        "terms": [
            {
                "coeff": _fraction_dict(coeff),
                "weight": g.weight,
                "depth": g.depth,
                "args": [_monomial_dict(a) for a in g.args],
            }
            for g, coeff in c.terms
        ],
    }


def generator_combination_from_dict(d: Mapping) -> GeneratorCombination:
    _check_kind(d, "generator_combination")
    return GeneratorCombination.from_terms(
        (
            GeneratorTerm(
                int(t["weight"]),
                tuple(_monomial_from(GroupElement, a) for a in t["args"]),
            ),
            _fraction_from(t["coeff"]),
        )
        for t in d["terms"]
    )


def generator_combination_dumps(c: GeneratorCombination) -> str:
    return _dumps(generator_combination_to_dict(c))


def generator_combination_loads(text: str) -> GeneratorCombination:
    return generator_combination_from_dict(json.loads(text))


def tensor_element_to_dict(te: TensorElement) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "tensor_element",
        "terms": [
            {
                "coeff": _fraction_dict(coeff),
                "word": [
                    {"n": s.n, "arg": _monomial_dict(s.arg)} for s in word
                ],
            }
            for word, coeff in te.terms
        ],
    }


def tensor_element_from_dict(d: Mapping) -> TensorElement:
    _check_kind(d, "tensor_element")
    return TensorElement.from_terms(
        (
            tuple(
                PolylogSymbol(int(s["n"]), _monomial_from(GroupElement, s["arg"]))
                for s in t["word"]
            ),
            _fraction_from(t["coeff"]),
        )
        for t in d["terms"]
    )


def preimage_report_to_dict(report: PreimageReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "preimage_report",
        "matched": report.matched,
        "target": tensor_element_to_dict(report.target),
        "image": tensor_element_to_dict(report.image),
        "residual": tensor_element_to_dict(report.residual),
    }


def preimage_report_dumps(report: PreimageReport) -> str:
    return _dumps(preimage_report_to_dict(report))


# ---------------------------------------------------------------------------
# verification reports


def report_to_dict(report: VerificationReport) -> dict:
    plan = report.plan
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification_report",
        "plan": {
            "seed": plan.seed,
            "point_count": plan.point_count,
            "radius": format_float(plan.radius),
            "tolerance": format_float(plan.tolerance),
            "allow_complex": plan.allow_complex,
        },
        "points": [
            {
                "assignment": {
                    v: _complex_dict(z) for v, z in sorted(p.assignment.items())
                },
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
    }


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
    bits = []
    if m.phase == Fraction(1, 2):
        bits.append("-")
    elif m.phase != 0:
        bits.append(rf"\zeta_{{{m.zeta_order}}}^{{{m.zeta_power}}}")
    for v, e in m.exponents:
        if e == 1:
            bits.append(v)
        elif e.denominator == 1:
            bits.append(f"{v}^{{{e.numerator}}}")
        else:
            bits.append(f"{v}^{{{e.numerator}/{e.denominator}}}")
    if not bits or bits == ["-"]:
        bits.append("1")
    head = bits[0]
    rest = bits[1:]
    if head == "-":
        return "-" + " ".join(rest)
    return " ".join(bits)


def _factor_latex(f: MPLFactor) -> str:
    head = ",".join(str(i) for i in f.indices.parts)
    args = ", ".join(_monomial_latex(a) for a in f.args)
    return rf"\Li_{{{head}}}\left({args}\right)"


def _expr_latex(e: Expr) -> str:
    if not e.terms:
        return "0"
    chunks = []
    for t in e.terms:
        body = r" \cdot ".join(_factor_latex(f) for f in t.factors)
        coeff = t.coeff
        if not t.factors:
            piece = _frac_latex(coeff)
        elif coeff == 1:
            piece = body
        elif coeff == -1:
            piece = "-" + body
        else:
            piece = _frac_latex(coeff) + r"\, " + body
        chunks.append(piece)
    out = chunks[0]
    for piece in chunks[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out


def identity_to_latex(identity: Identity) -> str:
    return _expr_latex(identity.lhs) + " = " + _expr_latex(identity.rhs)
