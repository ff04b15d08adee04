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

from .numeval import (
    DEPTH_CAP,
    Composition,
    DivergentRequest,
    _check_moduli,
    _eval_columns,
    _orbit_series,
)

__all__ = [
    "ArgMonomial",
    "BudgetUnderflow",
    "DepthCapExceeded",
    "Expr",
    "Identity",
    "MPLFactor",
    "Orbit",
    "Term",
    "UnboundVariable",
    "ZeroBase",
    "eval_expr",
    "eval_expr_batch",
    "li_expr",
    "li_factor",
    "normalize",
    "root_expand",
    "root_orbits",
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
    if isinstance(v, Fraction):
        return v
    if isinstance(v, float):
        raise TypeError(f"exact rational required, got float {v!r}")
    return Fraction(v)


class _Keyed:
    """Compared, hashed and sorted by one key `_k`, which subclasses (frozen
    dataclasses with eq=False) build once, in `__post_init__`.  Equal means
    of the same type with equal keys."""

    def _key(self):
        return self._k

    def __hash__(self) -> int:
        return hash(self._k)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._k == self._k


@dataclass(frozen=True, eq=False)
class ArgMonomial(_Keyed):
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
        """Numeric value with principal-branch fractional powers; the bits of
        eval_expr_batch's monomial values, which come from the same helper."""
        return complex(_monomial_values([self], [assignment])[0, 0])

    def __str__(self) -> str:
        bits = []
        if self.phase == Fraction(1, 2):
            bits.append("-1")
        elif self.phase != 0:
            bits.append(f"zeta_{self.zeta_order}^{self.zeta_power}")
        for v, e in self.exponents:
            bits.append(v if e == 1 else f"{v}^{e}")
        return "*".join(bits) if bits else "1"


@dataclass(frozen=True, eq=False)
class MPLFactor(_Keyed):
    """A single multiple-polylogarithm factor Li_indices(args)."""

    indices: Composition
    args: tuple[ArgMonomial, ...]

    def __post_init__(self) -> None:
        args = tuple(self.args)
        object.__setattr__(self, "args", args)
        if len(args) != self.indices.depth:
            raise ValueError(f"{len(args)} arguments for depth {self.indices.depth}")
        parts = self.indices.parts
        key = (sum(parts), len(parts), parts, tuple(a._k for a in args))
        object.__setattr__(self, "_k", key)

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

    def __str__(self) -> str:
        return f"Li_{self.indices}({', '.join(str(a) for a in self.args)})"


def _exact_float(q: Fraction, what: str, *where) -> float:
    """An exact rational as a float.  One beyond the double range is a
    ValueError naming what it is: `what` formatted with `where`, only then."""
    try:
        return float(q)
    except OverflowError:
        raise ValueError(
            f"{what.format(*where)} has a {len(str(abs(q.numerator)))}-digit "
            "numerator, beyond the double range"
        ) from None


def _monomial_values(
    monomials: Sequence[ArgMonomial], assignments: Sequence[Mapping[str, complex]]
) -> np.ndarray:
    """(monomials, points) matrix of exp(2 pi i phase + sum_v e_v log v).

    The principal branch of every fractional power, as exp turns the sum into
    the product.  cmath.log of each variable at each point is taken once;
    each variable's term is added, elementwise, only to the monomials that
    use it.
    """
    names = sorted({v for m in monomials for v, _ in m.exponents})
    column = {v: i for i, v in enumerate(names)}
    exps = np.zeros((len(monomials), len(names)))
    for row, m in enumerate(monomials):
        for v, e in m.exponents:
            exps[row, column[v]] = _exact_float(e, "exponent of {} in an argument monomial", v)
    logs = np.empty((len(names), len(assignments)), dtype=np.complex128)
    for i, v in enumerate(names):
        for p, assignment in enumerate(assignments):
            try:
                base = complex(assignment[v])
            except KeyError:
                raise UnboundVariable(v) from None
            if base == 0:
                raise ZeroBase(f"variable {v} assigned zero")
            logs[i, p] = cmath.log(base)
    phases = np.array([float(m.phase) for m in monomials])
    z = np.empty((len(monomials), len(assignments)), dtype=np.complex128)
    z[...] = (2j * math.pi * phases)[:, None]
    term = np.empty_like(z)
    for i in range(len(names)):
        np.multiply(exps[:, i, None], logs[i], out=term)
        np.add(z, term, out=z, where=exps[:, i, None] != 0.0)
    return np.exp(z, out=z)


def li_factor(parts: Sequence[int], args: Sequence[ArgMonomial]) -> MPLFactor:
    return MPLFactor(Composition(tuple(parts)), tuple(args))


@dataclass(frozen=True)
class Term:
    """coeff * product of factors; the factor multiset is kept sorted.  The
    merge key, of the factors alone, is built once; equality adds coeff."""

    coeff: Fraction
    factors: tuple[MPLFactor, ...]

    def __post_init__(self) -> None:
        factors = tuple(sorted(self.factors, key=MPLFactor._key))
        object.__setattr__(self, "coeff", _as_fraction(self.coeff))
        object.__setattr__(self, "factors", factors)
        key = (sum(f.weight for f in factors), len(factors), tuple(f._k for f in factors))
        object.__setattr__(self, "_k", key)

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
        return self._k

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
        merged = _merge((t, t.coeff) for t in terms)
        return Expr(tuple(t if c == t.coeff else Term(c, t.factors) for t, c in merged))

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


# ---------------------------------------------------------------------------
# root-of-unity orbits


@dataclass(frozen=True)
class Orbit:
    """coeff * sum of Li_indices over a full root-of-unity orbit: its terms'
    suffix values a_k ... a_d run over zeta_k * w_k, zeta_k in mu_{N_k} and
    N_k = orders[k], one term for every tuple of roots.  `powers` holds
    W_k = w_k^{N_k}, the same monomial for every member."""

    coeff: Fraction
    indices: Composition
    orders: tuple[int, ...]
    powers: tuple[ArgMonomial, ...]
    terms: tuple[Term, ...]


def _coset_orders(rows: list[tuple]) -> tuple[int, ...] | None:
    """The orders N_k when the suffix phases of the argument-key rows, one
    row of `_k` keys per term, form a full coset of mu_N1 x ... x mu_Nd; else
    None.  Phases are integers mod the lcm of their denominators."""
    lcm = math.lcm(*{den for row in rows for _, den, _ in row})
    suffixes = set()
    for row in rows:
        s, suffix = 0, []
        for num, den, _ in reversed(row):
            s = (s + num * (lcm // den)) % lcm
            suffix.append(s)
        suffixes.add(tuple(suffix))  # s_d, ..., s_1
    if len(suffixes) != len(rows):
        return None
    base = next(iter(suffixes))
    orders = []
    for k in range(len(base)):
        n = len({s[k] for s in suffixes})
        if lcm % n or any((s[k] - base[k]) % (lcm // n) for s in suffixes):
            return None
        orders.append(n)
    return tuple(orders[::-1]) if math.prod(orders) == len(rows) else None


def root_orbits(e: Expr) -> tuple[list[Orbit], list[Term]]:
    """The full root-of-unity orbits of an expression, and its other terms.

    Single-factor terms of depth 1 or 2 are grouped by coefficient,
    composition and argument exponents; a group of two or more whose suffix
    phases form a full product coset is an orbit.  Every other term is left
    over, in expression order: partial groups, groups of one, product terms
    and depth 3 or more.
    """
    groups: dict[tuple, list[Term]] = {}
    for t in e.terms:
        if len(t.factors) == 1:
            _, depth, parts, args = t.factors[0]._k
            if depth <= 2:
                key = (t.coeff.numerator, t.coeff.denominator, parts, *[a[2] for a in args])
                groups.setdefault(key, []).append(t)
    orbits, taken = [], set()
    for members in groups.values():
        if len(members) < 2:
            continue
        orders = _coset_orders([t.factors[0]._k[3] for t in members])
        if orders is None:
            continue
        suffixes = list(members[0].factors[0].args)  # becomes w_k = a_k ... a_d
        for k in range(len(suffixes) - 2, -1, -1):
            suffixes[k] = suffixes[k] * suffixes[k + 1]
        powers = tuple(w.power(n) for w, n in zip(suffixes, orders))
        first = members[0]
        orbits.append(Orbit(first.coeff, first.factors[0].indices, orders, powers, tuple(members)))
        taken.update(map(id, members))
    return orbits, [t for t in e.terms if id(t) not in taken]


# ---------------------------------------------------------------------------
# numeric instantiation


def eval_expr_batch(
    e: Expr,
    assignments: Sequence[Mapping[str, complex]],
    target_error: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate an expression at several points; returns (values, masses).

    The full root-of-unity orbits of `root_orbits` come first, each summed
    as one series, so their roots of unity cancel before anything is
    rounded: a depth-1 orbit is the one term c N^(1-n) Li_n(W) of the
    distribution relation, a depth-2 orbit c N1 N2 times numeval's filtered
    double sum over (W1, W2).  The suffix-product check applies to every
    orbit at every point, at |w_k| = |W_k|^(1/N_k).

    The absolute truncation budget is split evenly over the depth-2 orbits
    and the factor evaluations of the other terms, the depth-1 orbits among
    them; each factor evaluation targets its share / max |coeff| of those
    terms.  Every distinct monomial is valued at every point by one helper
    call.  The distinct factors are grouped by composition, and each group,
    all its factors at all points, is one call of the evaluation entry that
    eval_li also uses: the same caps, suffix-product check, Li_1 closed
    form and cutoff rule, one cutoff for the group at its largest suffix
    modulus, which certifies every column in it.  A divergent column is
    reported with its term, factor and point.  The terms are then assembled
    at once: each term's factor rows (padded with a row of ones) multiplied,
    and the products summed with the coefficients.

    The mass at a point, the scale of the rounding in the value, is the sum
    of |coefficient x orbit value| over the orbits and of |coefficient| times
    the product of the factors' moduli over the other terms.
    """
    npts = len(assignments)
    orbits, leftover = root_orbits(e)
    pairs = [o for o in orbits if o.indices.depth == 2]
    terms = leftover + [  # the distribution relation
        Term(o.coeff / o.orders[0] ** (o.indices.weight - 1), (MPLFactor(o.indices, o.powers),))
        for o in orbits
        if o.indices.depth == 1
    ]
    n_evals = sum(len(t.factors) for t in terms) + len(pairs)
    values, masses = np.zeros(npts, dtype=np.complex128), np.zeros(npts)
    if n_evals == 0:
        return values, masses
    monomials: dict[ArgMonomial, int] = {}  # monomial -> row of its values
    for m in [m for t in terms for f in t.factors for m in f.args] + [
        m for o in pairs for m in o.powers
    ]:
        monomials.setdefault(m, len(monomials))
    monomial_values = _monomial_values(list(monomials), assignments)

    def located(exc: DivergentRequest, factor: MPLFactor, term: Term) -> DivergentRequest:
        return DivergentRequest(f"term {term}: {factor}: {exc} at point {exc.column % npts}")

    for o in orbits:  # |w_k| = |W_k|^(1/N_k)
        moduli = np.abs(monomial_values[[monomials[m] for m in o.powers]])
        try:
            _check_moduli(moduli ** (1.0 / np.array(o.orders))[:, None])
        except DivergentRequest as exc:
            raise located(exc, o.terms[0].factors[0], o.terms[0]) from None
    share = float(target_error) / n_evals
    for o in pairs:
        scale = _exact_float(o.coeff * math.prod(o.orders), "coefficient of term {}", o.terms[0])
        target = share / abs(scale)
        if not target > 0.0:
            raise BudgetUnderflow(
                f"error target {float(target_error):.3g} leaves a target of "
                f"{target:.3g} for the orbit of {o.terms[0]}"
            )
        powers = monomial_values[[monomials[m] for m in o.powers]]
        series, _ = _orbit_series(o.indices.parts, o.orders, powers, target)
        values += scale * series
        masses += np.abs(scale * series)
    if not terms:
        return values, masses

    try:
        coeffs = np.array([float(t.coeff) for t in terms])[:, None]
    except OverflowError:  # name the term; no call per term when all convert
        coeffs = np.array([_exact_float(t.coeff, "coefficient of term {}", t) for t in terms])
    max_coeff = float(np.abs(coeffs).max())
    per_factor = share / max(max_coeff, 1e-300)
    if not per_factor > 0.0:
        raise BudgetUnderflow(
            f"error target {float(target_error):.3g} leaves a per-factor target of "
            f"{per_factor:.3g} over {n_evals} factor evaluations"
        )

    groups: dict[Composition, dict[MPLFactor, None]] = {}
    for term in terms:
        for factor in term.factors:
            groups.setdefault(factor.indices, {})[factor] = None
    slots = {  # (depth, factors) matrix of monomial rows per group
        indices: np.array([[monomials[m] for m in f.args] for f in factors]).T
        for indices, factors in groups.items()
    }
    rows, row = [], {}  # factor values, a block per group; factor -> its row in them
    for indices, factors in groups.items():
        try:  # one (depth, n_factors * npts) argument matrix, factor-major, not kept
            flat, _, _ = _eval_columns(
                indices, monomial_values[slots[indices]].reshape(indices.depth, -1), per_factor
            )
        except DivergentRequest as exc:
            factor = list(factors)[exc.column // npts]
            raise located(exc, factor, next(t for t in terms if factor in t.factors)) from None
        row.update(zip(factors, range(len(row), len(row) + len(factors))))
        rows.append(flat.reshape(len(factors), npts))
    rows.append(np.ones((1, npts), dtype=np.complex128))

    factor_values = np.concatenate(rows)
    width = max(len(t.factors) for t in terms)
    index = np.full((len(terms), width), len(row))  # padded with the row of ones
    for i, term in enumerate(terms):
        index[i, : len(term.factors)] = [row[f] for f in term.factors]
    products = factor_values[index].prod(axis=1)
    factor_masses = np.abs(factor_values)[index].prod(axis=1)
    return (
        values + (coeffs * products).sum(axis=0),
        masses + (np.abs(coeffs) * factor_masses).sum(axis=0),
    )


def eval_expr(
    e: Expr,
    assignment: Mapping[str, complex],
    target_error: float,
) -> tuple[complex, float]:
    """Value and mass of an expression at one point, as eval_expr_batch."""
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
            used = {v for t in side.terms for f in t.factors for a in f.args
                    for v, _ in a.exponents}
            if not used <= self.variables:
                t = next(t for t in side.terms if not t.variables <= self.variables)
                undeclared = sorted(t.variables - self.variables)
                raise ValueError(f"{name} term {t} uses undeclared variables {undeclared}")
