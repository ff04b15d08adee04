"""Exact symbolic algebra of polylogarithm expressions.

Coefficients are exact rationals throughout; floating point enters only
when a monomial argument is instantiated at a concrete complex point.
Arguments are root-of-unity-twisted monomials with rational exponents in
named variables, which keeps canonical forms unique and equality decidable.
`ArgMonomial` is the one monomial class of the package: the coalgebra's
`GroupElement` is its subclass with 2-power exponent denominators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .numeval import DEPTH_CAP, Composition, DivergentRequest, _eval_columns

__all__ = [
    "ArgMonomial",
    "BudgetUnderflow",
    "DepthCapExceeded",
    "Expr",
    "Identity",
    "MPLFactor",
    "Term",
    "UnboundVariable",
    "ZeroBase",
    "eval_expr",
    "eval_expr_batch",
    "li_expr",
    "li_factor",
    "normalize",
    "rename_variables",
    "root_expand",
    "stuffle_product",
]


class UnboundVariable(KeyError):
    """A monomial references a variable missing from the assignment."""


class ZeroBase(ValueError):
    """A monomial variable was assigned zero."""


class BudgetUnderflow(ValueError):
    """An error target split over an expression's factors rounds to zero."""


class DepthCapExceeded(ValueError):
    """Combined depth of a quasi-shuffle product is above the desk cap."""


def _merge(pairs: Iterable[tuple[object, Fraction]]) -> list[tuple[object, Fraction]]:
    """Sum the coefficients of equal-key objects, drop zeros, sort by key.

    The one merge of the package: `Expr` terms, classical symbols and
    generators are keyed by `_key()`, tensor words by their symbols' keys.
    """
    acc: dict = {}  # sort key -> [object, coefficient]; keys are unique
    for obj, coeff in pairs:
        key = obj._key() if hasattr(obj, "_key") else tuple(w._key() for w in obj)
        if key in acc:
            acc[key][1] += coeff
        else:
            acc[key] = [obj, coeff]
    return [(obj, c) for _, (obj, c) in sorted(acc.items()) if c != 0]


def _as_fraction(v) -> Fraction:
    if isinstance(v, float):
        raise TypeError(f"exact rational required, got float {v!r}")
    return Fraction(v)


@dataclass(frozen=True)
class ArgMonomial:
    """zeta_N^j * prod_v v^{e_v} with rational exponents e_v.

    The root of unity is stored as its phase j/N reduced mod 1, so equal
    mathematical values have equal representations (zeta_4^2 == zeta_2^1).
    Instantiation uses the principal branch for every fractional power.
    The sort and hash key is built once, at construction.
    """

    phase: Fraction = Fraction(0)
    exponents: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self) -> None:
        phase = _as_fraction(self.phase) % 1
        exps = tuple(
            sorted((str(v), q) for v, e in self.exponents if (q := _as_fraction(e)) != 0)
        )
        names = [v for v, _ in exps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable in exponent map: {names}")
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "exponents", exps)
        # its hash is not stored, as str hashes vary by process
        key = tuple((v, e.numerator, e.denominator) for v, e in exps)
        object.__setattr__(self, "_k", (phase.numerator, phase.denominator, key))

    @classmethod
    def make(
        cls,
        exponents: Mapping[str, Fraction | int] | None = None,
        zeta_order: int = 1,
        zeta_power: int = 0,
    ) -> "ArgMonomial":
        if zeta_order < 1:
            raise ValueError("zeta_order must be a positive integer")
        return cls(
            Fraction(zeta_power, zeta_order),
            tuple((exponents or {}).items()),
        )

    @classmethod
    def variable(cls, name: str) -> "ArgMonomial":
        return cls.make({name: Fraction(1)})

    generator = variable

    @property
    def zeta_order(self) -> int:
        return self.phase.denominator

    @property
    def zeta_power(self) -> int:
        return self.phase.numerator

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.exponents)

    def exponent(self, name: str) -> Fraction:
        for v, e in self.exponents:
            if v == name:
                return e
        return Fraction(0)

    def __mul__(self, other: "ArgMonomial") -> "ArgMonomial":
        exps: dict[str, Fraction] = dict(self.exponents)
        for v, e in other.exponents:
            exps[v] = exps.get(v, Fraction(0)) + e
        return type(self)(self.phase + other.phase, tuple(exps.items()))

    def power(self, r: int) -> "ArgMonomial":
        return type(self)(self.phase * r, tuple((v, e * r) for v, e in self.exponents))

    def roots(self, s: int) -> list["ArgMonomial"]:
        """All 2^s monomials whose 2^s-th power is this one."""
        if s < 0:
            raise ValueError("root level must be nonnegative")
        scale = 2**s
        exps = tuple((v, e / scale) for v, e in self.exponents)
        return [type(self)((self.phase + j) / scale, exps) for j in range(scale)]

    def instantiate(self, assignment: Mapping[str, complex]) -> complex:
        """Numeric value with principal-branch fractional powers."""
        value = cmath.exp(2j * math.pi * float(self.phase))
        for var, e in self.exponents:
            try:
                base = complex(assignment[var])
            except KeyError:
                raise UnboundVariable(var) from None
            if base == 0:
                raise ZeroBase(f"variable {var} assigned zero")
            value *= cmath.exp(float(e) * cmath.log(base))
        return value

    def _key(self):
        return self._k

    def __hash__(self) -> int:
        return hash(self._k)

    def __str__(self) -> str:
        bits = []
        if self.phase == Fraction(1, 2):
            bits.append("-1")
        elif self.phase != 0:
            bits.append(f"zeta_{self.zeta_order}^{self.zeta_power}")
        for v, e in self.exponents:
            bits.append(v if e == 1 else f"{v}^{e}")
        return "*".join(bits) if bits else "1"


@dataclass(frozen=True)
class MPLFactor:
    """A single multiple-polylogarithm factor Li_indices(args)."""

    indices: Composition
    args: tuple[ArgMonomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.indices.depth:
            raise ValueError(
                f"{len(self.args)} arguments for depth {self.indices.depth}"
            )

    @property
    def weight(self) -> int:
        return self.indices.weight

    @property
    def depth(self) -> int:
        return self.indices.depth

    @property
    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.variables
        return out

    def _key(self):
        return (
            self.weight,
            self.depth,
            self.indices.parts,
            tuple(a._key() for a in self.args),
        )

    def __str__(self) -> str:
        return f"Li_{self.indices}({', '.join(str(a) for a in self.args)})"


def li_factor(parts: Sequence[int], args: Sequence[ArgMonomial]) -> MPLFactor:
    return MPLFactor(Composition(tuple(parts)), tuple(args))


@dataclass(frozen=True)
class Term:
    """coeff * product of factors; the factor multiset is kept sorted."""

    coeff: Fraction
    factors: tuple[MPLFactor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", _as_fraction(self.coeff))
        object.__setattr__(
            self, "factors", tuple(sorted(self.factors, key=MPLFactor._key))
        )

    @property
    def weight(self) -> int:
        return sum(f.weight for f in self.factors)

    @property
    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for f in self.factors:
            out |= f.variables
        return out

    def _key(self):
        return (self.weight, len(self.factors), tuple(f._key() for f in self.factors))

    def __str__(self) -> str:
        body = " * ".join(str(f) for f in self.factors) if self.factors else "1"
        return f"({self.coeff}) {body}"


@dataclass(frozen=True)
class Expr:
    """Normalized rational linear combination of products of factors."""

    terms: tuple[Term, ...] = ()

    @staticmethod
    def zero() -> "Expr":
        return Expr(())

    @staticmethod
    def from_terms(terms: Iterable[Term]) -> "Expr":
        return Expr(tuple(Term(c, t.factors) for t, c in _merge((t, t.coeff) for t in terms)))

    @staticmethod
    def single(
        coeff: Fraction | int, factors: Sequence[MPLFactor]
    ) -> "Expr":
        return Expr.from_terms([Term(Fraction(coeff), tuple(factors))])

    @property
    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for t in self.terms:
            out |= t.variables
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Expr") -> "Expr":
        return Expr.from_terms(self.terms + other.terms)

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __neg__(self) -> "Expr":
        return self.scale(-1)

    def scale(self, c: Fraction | int) -> "Expr":
        c = Fraction(c)
        if c == 0:
            return Expr.zero()
        return Expr(tuple(Term(c * t.coeff, t.factors) for t in self.terms))

    def __rmul__(self, c) -> "Expr":
        return self.scale(c)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms) if self.terms else "0"


def li_expr(
    parts: Sequence[int],
    args: Sequence[ArgMonomial],
    coeff: Fraction | int = 1,
) -> Expr:
    return Expr.single(Fraction(coeff), [li_factor(parts, args)])


def normalize(e: Expr) -> Expr:
    """Merge like terms, drop zeros, sort; idempotent and value-preserving."""
    return Expr.from_terms(e.terms)


def rename_variables(e: Expr, mapping: Mapping[str, str]) -> Expr:
    """Rename variables in every argument monomial (simultaneously)."""

    def ren_mono(m: ArgMonomial) -> ArgMonomial:
        return ArgMonomial(
            m.phase, tuple((mapping.get(v, v), x) for v, x in m.exponents)
        )

    return Expr.from_terms(
        Term(
            t.coeff,
            tuple(
                MPLFactor(f.indices, tuple(ren_mono(a) for a in f.args))
                for f in t.factors
            ),
        )
        for t in e.terms
    )


# ---------------------------------------------------------------------------
# numeric instantiation


def eval_expr_batch(
    e: Expr,
    assignments: Sequence[Mapping[str, complex]],
    target_error: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate an expression at several points; returns (values, l1 masses).

    The absolute truncation budget is split evenly: each factor evaluation
    targets target_error / (number of factor evaluations * max |coeff|).
    The distinct factors are grouped by composition, and each group, all
    its factors at all points, is one call of the evaluation entry that
    eval_li also uses: the same caps, suffix-product check, Li_1 closed
    form and cutoff rule, at one cutoff for the whole group.  A divergent
    column is reported with its term, factor and point.
    """
    npts = len(assignments)
    values = np.zeros(npts, dtype=np.complex128)
    masses = np.zeros(npts, dtype=np.float64)
    n_evals = sum(len(t.factors) for t in e.terms)
    if n_evals == 0:
        return values, masses
    max_coeff = max(abs(float(t.coeff)) for t in e.terms)
    per_factor = float(target_error) / (n_evals * max(max_coeff, 1e-300))
    if not per_factor > 0.0:
        raise BudgetUnderflow(
            f"error target {float(target_error):.3g} leaves a per-factor target of "
            f"{per_factor:.3g} over {n_evals} factor evaluations"
        )

    groups: dict[Composition, dict[MPLFactor, None]] = {}
    for term in e.terms:
        for factor in term.factors:
            groups.setdefault(factor.indices, {})[factor] = None
    monomial_values = {
        mono: np.array([mono.instantiate(asg) for asg in assignments], dtype=complex)
        for mono in dict.fromkeys(m for fs in groups.values() for f in fs for m in f.args)
    }
    results, row = {}, {}
    for indices, factors in groups.items():
        # one (depth, n_factors * npts) argument matrix per group, factor-major
        a = np.concatenate(
            [np.stack([monomial_values[m] for m in f.args]) for f in factors], axis=1
        )
        try:
            flat, _, _ = _eval_columns(indices, a, per_factor)
        except DivergentRequest as exc:
            factor = list(factors)[exc.column // npts]
            term = next(t for t in e.terms if factor in t.factors)
            raise DivergentRequest(
                f"term {term}: {factor}: {exc} at point {exc.column % npts}"
            ) from None
        results[indices] = flat.reshape(len(factors), npts)
        row.update((f, i) for i, f in enumerate(factors))

    for term in e.terms:
        tv = np.ones(npts, dtype=np.complex128)
        ta = np.ones(npts, dtype=np.float64)
        for factor in term.factors:
            fv = results[factor.indices][row[factor]]
            tv *= fv
            ta *= np.abs(fv)
        c = float(term.coeff)
        values += c * tv
        masses += abs(c) * ta
    return values, masses


def eval_expr(
    e: Expr,
    assignment: Mapping[str, complex],
    target_error: float,
) -> tuple[complex, float]:
    """Value and L1 mass of an expression at one point."""
    values, masses = eval_expr_batch(e, [assignment], target_error)
    return complex(values[0]), float(masses[0])


# ---------------------------------------------------------------------------
# quasi-shuffle product


def _chains(f: MPLFactor) -> tuple[tuple[int, ArgMonomial], ...]:
    return tuple(zip(f.indices.parts, f.args))


def _stuffle_chains(
    a: tuple[tuple[int, ArgMonomial], ...],
    b: tuple[tuple[int, ArgMonomial], ...],
) -> list[tuple[tuple[int, ArgMonomial], ...]]:
    if not a:
        return [b]
    if not b:
        return [a]
    out = []
    for chain in _stuffle_chains(a[:-1], b):
        out.append(chain + (a[-1],))
    for chain in _stuffle_chains(a, b[:-1]):
        out.append(chain + (b[-1],))
    (k, xa), (l, yb) = a[-1], b[-1]
    for chain in _stuffle_chains(a[:-1], b[:-1]):
        out.append(chain + ((k + l, xa * yb),))
    return out


def stuffle_product(f: MPLFactor, g: MPLFactor) -> Expr:
    """Quasi-shuffle expansion of the pointwise product of two factors.

    Interleaves the two index chains over the shared outermost-summation
    order, merging coincident indices; equal, as a function, to Li_f * Li_g
    on the common convergence domain.
    """
    if f.depth + g.depth > DEPTH_CAP:  # nothing deeper can be evaluated
        raise DepthCapExceeded(
            f"combined depth {f.depth + g.depth} above cap {DEPTH_CAP}"
        )
    terms = []
    for chain in _stuffle_chains(_chains(f), _chains(g)):
        parts = tuple(k for k, _ in chain)
        args = tuple(m for _, m in chain)
        terms.append(Term(Fraction(1), (li_factor(parts, args),)))
    return Expr.from_terms(terms)


# ---------------------------------------------------------------------------
# formal root expansion


def root_expand(e: Expr, variable: str, order: int) -> Expr:
    """Replace a variable by the sum of its `order` formal roots.

    Each term is substituted coherently: one branch index per term, summed
    over all branches, so the numeric value is independent of the branch
    convention used by instantiate.  Terms free of the variable are summed
    `order` times and so acquire multiplicity `order`.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order == 1:
        return normalize(e)

    def sub_mono(m: ArgMonomial, branch: int) -> ArgMonomial:
        p = m.exponent(variable)
        if p == 0:
            return m
        exps = dict(m.exponents)
        exps[variable] = p / order
        return ArgMonomial(m.phase + p * Fraction(branch, order), tuple(exps.items()))

    out = []
    for t in e.terms:
        for branch in range(order):
            out.append(
                Term(
                    t.coeff,
                    tuple(
                        MPLFactor(
                            f.indices, tuple(sub_mono(a, branch) for a in f.args)
                        )
                        for f in t.factors
                    ),
                )
            )
    return Expr.from_terms(out)


# ---------------------------------------------------------------------------
# identities


@dataclass(frozen=True)
class Identity:
    """A pair of expressions asserted equal, with display metadata."""

    lhs: Expr
    rhs: Expr
    weight: int
    variables: frozenset[str]
    provenance: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", frozenset(self.variables))
        for side, name in ((self.lhs, "lhs"), (self.rhs, "rhs")):
            for t in side.terms:
                if t.weight != self.weight:
                    raise ValueError(
                        f"{name} term {t} has weight {t.weight}, "
                        f"identity declares {self.weight}"
                    )
