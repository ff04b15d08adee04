"""Exact symbolic algebra of polylogarithm expressions.

Coefficients are exact rationals throughout.  Arguments are
root-of-unity-twisted monomials with rational exponents in named variables,
which keeps canonical forms unique and equality decidable.  `ArgMonomial` is
the one monomial class of the package: the coalgebra's `GroupElement` is its
subclass with 2-power exponent denominators.

No float code but `_exact_float` is here, and numpy is not loaded: the float
paths of `ArgMonomial.instantiate`, `eval_expr` and `eval_expr_batch` are
numeval's, imported on first use.  The vocabulary both share (`Composition`,
the caps, the constants, the evaluation errors) lives here; numeval re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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

DEFAULT_RHO_MAX = 0.99
DEFAULT_MAX_CUTOFF = 10**6

# Desk-scale caps; beyond these the double format and the cutoff ceiling
# give no useful accuracy guarantees.
DEPTH_CAP = 4
WEIGHT_CAP = 12


def __getattr__(name: str):
    if name in ("eval_expr", "eval_expr_batch"):  # numeval's; importing it loads numpy
        from . import numeval

        return getattr(numeval, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class DivergentRequest(ValueError):
    """Arguments violate the suffix-product convergence condition."""


class CutoffOverflow(RuntimeError):
    """No cutoff up to DEFAULT_MAX_CUTOFF meets the error target."""


@dataclass(frozen=True)
class Composition:
    """Index tuple (n_1, ..., n_d): weight is the sum, depth the length."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        _require_ints(**{f"parts[{i}]": p for i, p in enumerate(parts)})
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("composition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"composition parts must be positive, got {parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


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


def _require_ints(**params) -> None:
    """A ValueError naming the first parameter that is not an int."""
    for name, v in params.items():
        if type(v) is not int:  # bool and float included
            raise ValueError(f"{name} must be an integer, got {v!r}")


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (float, bool, str)):  # Fraction would read True as 1 and "0.1" as 1/10
        raise TypeError(f"exact rational required, got {type(v).__name__} {v!r}")
    return Fraction(v)


class _Keyed:
    """Sorted by one key `_k`, which subclasses (frozen dataclasses) build once,
    in `__post_init__`; with eq=False they are compared and hashed by it too:
    equal means of the same type with equal keys."""

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
        # its hash is not stored, as str hashes vary by process
        key = tuple((v, e.numerator, e.denominator) for v, e in exps)
        vars(self).update(phase=phase, exponents=exps, _k=(phase.numerator, phase.denominator, key))

    def _twists(self, order: int) -> list["ArgMonomial"]:
        """zeta_order^s * self for s < order, self of phase below 1/order: one exponent key."""
        (num, den, key), out = self._k, []
        for s in range(order):
            m, p = object.__new__(type(self)), Fraction(num * order + s * den, den * order)
            vars(m).update(phase=p, exponents=self.exponents, _k=(p.numerator, p.denominator, key))
            out.append(m)
        return out

    def _roots(self, r: int) -> list["ArgMonomial"]:
        """The r-th roots of self: the principal one, built and checked once, twisted."""
        return type(self)(self.phase / r, tuple((v, e / r) for v, e in self.exponents))._twists(r)

    @classmethod
    def make(
        cls,
        exponents: Mapping[str, Fraction | int] | None = None,
        zeta_order: int = 1,
        zeta_power: int = 0,
    ) -> "ArgMonomial":
        _require_ints(zeta_order=zeta_order, zeta_power=zeta_power)
        if zeta_order < 1:
            raise ValueError("zeta_order must be a positive integer")
        return cls(Fraction(zeta_power, zeta_order), tuple((exponents or {}).items()))

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
        _require_ints(r=r)
        return type(self)(self.phase * r, tuple((v, e * r) for v, e in self.exponents))

    def roots(self, s: int) -> list["ArgMonomial"]:
        """All 2^s monomials whose 2^s-th power is this one, from one principal root."""
        _require_ints(s=s)
        if s < 0:
            raise ValueError("root level must be nonnegative")
        return self._roots(2**s)

    def instantiate(self, assignment: Mapping[str, complex]) -> complex:
        """Numeric value with principal-branch fractional powers; the bits of
        eval_expr_batch's monomial values, which come from the same helper."""
        from .numeval import monomial_values

        return complex(monomial_values([self], [assignment])[0, 0])

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
        if len(args) != self.indices.depth:
            raise ValueError(f"{len(args)} arguments for depth {self.indices.depth}")
        parts = self.indices.parts
        key = (sum(parts), len(parts), parts, tuple(a._k for a in args))
        vars(self).update(args=args, _k=key)

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


def li_factor(parts: Sequence[int], args: Sequence[ArgMonomial]) -> MPLFactor:
    return MPLFactor(Composition(tuple(parts)), tuple(args))


@dataclass(frozen=True)
class Term(_Keyed):
    """coeff * product of factors; the factor multiset is kept sorted.  The
    merge key, of the factors alone, is built once; dataclass equality adds coeff."""

    coeff: Fraction
    factors: tuple[MPLFactor, ...]

    def __post_init__(self) -> None:
        factors = tuple(sorted(self.factors, key=MPLFactor._key))
        key = (sum(f.weight for f in factors), len(factors), tuple(f._k for f in factors))
        vars(self).update(coeff=_as_fraction(self.coeff), factors=factors, _k=key)

    @classmethod
    def _single(cls, coeff: Fraction, indices: Composition, args: tuple) -> "Term":
        """coeff * Li_indices(args), coeff a nonzero Fraction, built as it is."""
        f, t, parts = object.__new__(MPLFactor), object.__new__(cls), indices.parts
        key = (sum(parts), len(parts), parts, tuple([a._k for a in args]))
        vars(f).update(indices=indices, args=args, _k=key)
        vars(t).update(coeff=coeff, factors=(f,), _k=(key[0], 1, (key,)))
        return t

    @property
    def weight(self) -> int:
        return self._k[0]

    @property
    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for f in self.factors:
            out |= f.variables
        return out

    def __str__(self) -> str:
        body = " * ".join(str(f) for f in self.factors) if self.factors else "1"
        return f"({self.coeff}) {body}"


class _Sum:
    """Sum algebra of `Expr` and `Combination`, over their `terms`, `from_terms` and `scale`."""

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return self.from_terms(self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(-1)


@dataclass(frozen=True)
class Expr(_Sum):
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
    def single(coeff: Fraction | int, factors: Sequence[MPLFactor]) -> "Expr":
        return Expr.from_terms([Term(coeff, tuple(factors))])

    @property
    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for t in self.terms:
            out |= t.variables
        return out

    def __neg__(self) -> "Expr":
        return self.scale(-1)

    def scale(self, c: Fraction | int) -> "Expr":
        c = _as_fraction(c)
        if c == 0:
            return Expr.zero()
        return Expr(tuple(Term(c * t.coeff, t.factors) for t in self.terms))

    def __rmul__(self, c) -> "Expr":
        return self.scale(c)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms) if self.terms else "0"


def li_expr(parts: Sequence[int], args: Sequence[ArgMonomial], coeff: Fraction | int = 1) -> Expr:
    return Expr.single(coeff, [li_factor(parts, args)])


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
            if depth <= 2:  # one flat key; a depth-1 argument is both args[0] and args[-1]
                key = (t.coeff.numerator, t.coeff.denominator, parts, args[0][2], args[-1][2])
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
    _require_ints(order=order)
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
        _require_ints(weight=self.weight)
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
