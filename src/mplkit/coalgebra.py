"""Depth-graded symbol calculus: iterated images, distribution rewriting,
and the root-sum preimage construction.

A depth-d generator Li_{n-d;1,...,1}(a_1,...,a_d) maps to the sum over all
compositions n_1 + ... + n_d = n with every part >= 2 of the tensor word
Li_{n_1}(a_1) x ... x Li_{n_d}(a_d).  Replacing one slot argument by the sum
of its 2^s-th roots rescales each word by 2^{-s(m-1)} in that slot's weight
m, so an exact Vandermonde solve in the nodes 2^{-(m-1)} isolates any single
target word, slot by slot from the last one down.

Symbols span a free module; distribution relations are applied only through
explicit rewriting, never as an implicit quotient, so equality stays
decidable.  All coefficients are exact rationals.  One class, `Combination`,
holds every sum here: of classical symbols (`PolylogCombination`), of tensor
words (`TensorElement`) and of generators (`GeneratorCombination`); the three
names are aliases of it.  Arguments are `GroupElement`s, the `symalg`
monomials restricted to 2-power exponent denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .symalg import ArgMonomial, _merge

__all__ = [
    "Combination",
    "GeneratorCombination",
    "GeneratorTerm",
    "GroupElement",
    "InfeasibleWeights",
    "PolylogCombination",
    "PolylogSymbol",
    "PreimageReport",
    "RootCapExceeded",
    "TensorElement",
    "cobracket_image",
    "compositions_min2",
    "construct_preimage",
    "distribution_contract",
    "distribution_expand",
    "root_sum_generator",
    "tensor_distribution_contract",
    "verify_preimage",
]

DEFAULT_TERM_CAP = 2**12


class RootCapExceeded(RuntimeError):
    """Cumulative 2-power root expansion grew past DEFAULT_TERM_CAP terms."""


class InfeasibleWeights(ValueError):
    """A requested tensor word needs every slot weight to be at least 2."""


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class GroupElement(ArgMonomial):
    """Formal argument zeta * prod a_i^{e_i} over abstract generators.

    An `ArgMonomial` whose exponent denominators must be powers of 2 (the
    ground field is assumed quadratically closed, so 2-power roots always
    exist); the root of unity is unrestricted so third roots remain
    available for distribution tests.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        for v, e in self.exponents:
            if not _is_power_of_two(e.denominator):
                raise ValueError(
                    f"exponent {e} of {v} has a non-2-power denominator"
                )


@dataclass(frozen=True)
class PolylogSymbol:
    """Formal classical polylogarithm symbol of weight n >= 2."""

    n: int
    arg: GroupElement

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"symbol weight must be >= 2, got {self.n}")
        object.__setattr__(self, "_k", (self.n, self.arg._key()))

    def _key(self):
        return self._k

    def __hash__(self) -> int:
        return hash(self._k)

    def __str__(self) -> str:
        return f"Li_{self.n}({self.arg})"


Word = tuple[PolylogSymbol, ...]


@dataclass(frozen=True)
class GeneratorTerm:
    """Depth-d generator symbol Li_{n-d;1,...,1}(a_1, ..., a_d)."""

    weight: int
    args: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("generator needs depth at least 1")
        if self.weight < len(self.args):
            raise ValueError(
                f"weight {self.weight} below depth {len(self.args)}"
            )
        key = tuple(a._key() for a in self.args)
        object.__setattr__(self, "_k", (self.weight, len(self.args), key))

    @property
    def depth(self) -> int:
        return len(self.args)

    def _key(self):
        return self._k

    def __hash__(self) -> int:
        return hash(self._k)

    def __str__(self) -> str:
        head = f"{self.weight - self.depth};" + ",".join(["1"] * self.depth)
        return f"Li_{{{head}}}({', '.join(str(a) for a in self.args)})"


def _one_kind(objs: Iterable[object]) -> str:
    """The kind shared by all objs; a ValueError naming the kinds if they mix."""
    kinds = sorted({
        "tensor word" if isinstance(x, tuple)
        else "generator" if isinstance(x, GeneratorTerm) else "classical symbol"
        for x in objs
    })
    if len(kinds) > 1:
        raise ValueError(f"terms of different kinds in one combination: {' and '.join(kinds)}")
    return kinds[0]


def _shape(x) -> tuple[int, int] | None:
    """(length, weight) of a tensor word, (weight, depth) of a generator."""
    if isinstance(x, tuple):
        return len(x), sum(s.n for s in x)
    return (x.weight, x.depth) if isinstance(x, GeneratorTerm) else None


@dataclass(frozen=True)
class Combination:
    """Normalized rational combination of classical symbols, of tensor
    words (tuples of symbols) or of generators.

    Terms are merged on their `_key`, zeros dropped, and sorted by key.  A
    tensor element keeps one (length, weight), a generator combination one
    (weight, depth); classical symbols may mix weights.
    """

    terms: tuple[tuple[PolylogSymbol | Word | GeneratorTerm, Fraction], ...] = ()

    def __post_init__(self) -> None:
        shapes = {_shape(x) for x, _ in self.terms}
        if len(shapes) > 1:
            # kinds never share a shape: a symbol has none, and a word's weight
            # is at least twice its length while a generator's is at least its depth
            kind = _one_kind(x for x, _ in self.terms)
            combination = "tensor element" if kind == "tensor word" else "generator combination"
            raise ValueError(f"inhomogeneous {combination}: {sorted(shapes)}")

    @staticmethod
    def from_terms(pairs: Iterable[tuple[object, Fraction]]) -> "Combination":
        pairs = list(pairs)
        try:
            merged = _merge(pairs)
        except TypeError:  # keys of different kinds need not compare
            _one_kind(x for x, _ in pairs)
            raise
        return Combination(tuple(merged))

    @staticmethod
    def single(
        x: PolylogSymbol | Word | GeneratorTerm, coeff: Fraction | int = 1
    ) -> "Combination":
        return Combination.from_terms([(x, Fraction(coeff))])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Combination") -> "Combination":
        return Combination.from_terms(self.terms + other.terms)

    def __sub__(self, other: "Combination") -> "Combination":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "Combination":
        c = Fraction(c)
        return Combination.from_terms((x, c * q) for x, q in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c}) "
            + (" (x) ".join(map(str, x)) if isinstance(x, tuple) else str(x))
            for x, c in self.terms
        )


PolylogCombination = TensorElement = GeneratorCombination = Combination


# ---------------------------------------------------------------------------
# image of a generator


def compositions_min2(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ordered splittings of `total` into `parts` parts, each >= 2."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(2, total - 2 * (parts - 1) + 1):
        for rest in compositions_min2(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def cobracket_image(
    g: GeneratorTerm | GeneratorCombination,
) -> TensorElement:
    """Iterated-image tensor sum of a generator (or combination, linearly).

    For a single depth-d generator of weight n the image is the sum over
    compositions n_1 + ... + n_d = n with all n_i >= 2 of the word
    Li_{n_1}(a_1) x ... x Li_{n_d}(a_d); empty when n < 2d.
    """
    pairs = g.terms if isinstance(g, Combination) else ((g, Fraction(1)),)
    if not pairs:
        return Combination()
    comps = compositions_min2(pairs[0][0].weight, pairs[0][0].depth)  # homogeneous
    return Combination.from_terms(
        (tuple(PolylogSymbol(n, a) for n, a in zip(comp, term.args)), coeff)
        for term, coeff in pairs
        for comp in comps
    )


# ---------------------------------------------------------------------------
# distribution relations


def _contract(
    pairs: Iterable[tuple[Word, Fraction]], r: int
) -> list[tuple[Word, Fraction]]:
    if r < 1:
        raise ValueError("orbit order must be a positive integer")
    syms: list[PolylogSymbol] = []  # id -> symbol; ids maps symbol keys back to ids
    ids, orbits, orbit_of, powered = {}, {}, [], {}  # powered: id -> id of Li_n(arg^r)

    def intern(sym: PolylogSymbol) -> int:
        i = ids.setdefault(sym._key(), len(syms))
        if i == len(syms):
            syms.append(sym)
            p, q, exps = sym.arg._key()
            g = math.gcd(p * r, q)  # phase * r mod 1 is (p*r/g mod q/g) / (q/g)
            key = (sym.n, exps, p * r // g % (q // g), q // g)
            orbit_of.append(orbits.setdefault(key, len(orbits)))
        return i

    def merged(items) -> dict:
        acc: dict = {}
        for w, c in items:
            acc[w] = acc[w] + c if w in acc else c
        return {w: c for w, c in acc.items() if c}

    words = merged((tuple(map(intern, w)), c) for w, c in pairs)
    while True:
        before = words
        for slot in range(len(next(iter(words), ()))):
            groups: dict = {}
            for w, c in words.items():
                key = (w[:slot], w[slot + 1 :], orbit_of[w[slot]])
                groups.setdefault(key, []).append((w, c))
            out = []
            for members in groups.values():
                (w, c), i = members[0], members[0][0][slot]
                if len(members) != r or any(q != c for _, q in members):
                    out.extend(members)
                    continue
                if i not in powered:
                    powered[i] = intern(PolylogSymbol(syms[i].n, syms[i].arg.power(r)))
                w = w[:slot] + (powered[i],) + w[slot + 1 :]
                out.append((w, c * Fraction(1, r ** (syms[i].n - 1))))
            words = merged(out)
        if words == before:  # a collapse drops a word, or is the identity at r = 1
            return [(tuple(syms[i] for i in w), c) for w, c in words.items()]


def distribution_contract(e: PolylogCombination, r: int) -> PolylogCombination:
    """Collapse complete equal-coefficient root orbits, repeatedly.

    Each orbit {Li_n(zeta b) : zeta^r = 1} with common coefficient c becomes
    c * r^{1-n} * Li_n(b^r); partial orbits and orbits with unequal
    coefficients are left untouched.  This is the depth-1 case of
    `tensor_distribution_contract`, so a second call is a no-op.
    """
    return PolylogCombination.from_terms(
        (w[0], c) for w, c in _contract((((s,), c) for s, c in e.terms), r)
    )


def distribution_expand(e: PolylogCombination, r: int) -> PolylogCombination:
    """Rewrite each Li_n(b) as r^{n-1} * sum over the r-th roots of b.

    Inverse of contraction on complete orbits.  Raises ValueError when a
    root would need an exponent denominator that is not a power of 2.
    """
    if r < 1:
        raise ValueError("orbit order must be a positive integer")
    out: list[tuple[PolylogSymbol, Fraction]] = []
    for sym, coeff in e.terms:
        scale = coeff * Fraction(r ** (sym.n - 1))
        exps = tuple((v, x / r) for v, x in sym.arg.exponents)
        for j in range(r):
            root = GroupElement((sym.arg.phase + j) / r, exps)
            out.append((PolylogSymbol(sym.n, root), scale))
    return PolylogCombination.from_terms(out)


def tensor_distribution_contract(te: TensorElement, r: int) -> TensorElement:
    """Slot-wise orbit contraction on tensor words, iterated to a fixpoint.

    Slot by slot, words equal outside the slot whose slot symbols form a
    complete orbit with one coefficient collapse as in `distribution_contract`
    (its depth-1 case); equal words merge and zeros drop after every slot.
    The fixpoint runs on words of interned int symbol ids, each id mapped
    once to its orbit and to the id of its r-th power.  Which words collapse
    does not depend on term order, so words are sorted only for output.
    """
    return TensorElement.from_terms(_contract(te.terms, r))


# ---------------------------------------------------------------------------
# root sums and the preimage construction


def root_sum_generator(
    c: GeneratorCombination, slot: int, s: int
) -> GeneratorCombination:
    """Replace each term's slot argument by the sum of its 2^s-th roots."""
    if not c.terms:
        return c
    depth = c.terms[0][0].depth
    if not 1 <= slot <= depth:
        raise ValueError(f"slot must lie in 1..{depth}")
    if s < 0:
        raise ValueError("root level must be nonnegative")
    if len(c.terms) * 2**s > DEFAULT_TERM_CAP:
        raise RootCapExceeded(
            f"{len(c.terms)} * 2^{s} terms exceed the cap {DEFAULT_TERM_CAP}"
        )
    out = []
    for g, coeff in c.terms:
        for root in g.args[slot - 1].roots(s):
            args = g.args[: slot - 1] + (root,) + g.args[slot:]
            out.append((GeneratorTerm(g.weight, args), coeff))
    return GeneratorCombination.from_terms(out)


def _isolation_coefficients(domain: Sequence[int], target: int) -> dict[int, Fraction]:
    """Exact q_s with sum_s q_s * (2^{1-m})^s = [m == target] on the domain."""
    nodes = [Fraction(1, 2 ** (m - 1)) for m in domain]
    c = len(nodes)
    matrix = [[nodes[row] ** s for s in range(c)] for row in range(c)]
    rhs = [[Fraction(int(domain[row] == target))] for row in range(c)]
    solution = linalg.solve_exact(matrix, rhs)
    return {s: solution[s][0] for s in range(c) if solution[s][0] != 0}


def construct_preimage(
    weights: Sequence[int], args: Sequence[GroupElement]
) -> GeneratorCombination:
    """Generator combination whose contracted image is one tensor word.

    Slots are peeled from the last to the first: at slot j, the admissible
    slot weights m form the Vandermonde node set {2^{-(m-1)}}, root sums at
    levels s = 0..len-1 realize the powers of those nodes, and the exact
    solve isolates m = weights[j-1].
    """
    weights = tuple(int(w) for w in weights)
    if not weights:
        raise InfeasibleWeights("need at least one slot weight")
    if any(w < 2 for w in weights):
        raise InfeasibleWeights(f"every slot weight must be >= 2, got {weights}")
    if len(args) != len(weights):
        raise ValueError("one argument per slot weight required")
    n = sum(weights)
    d = len(weights)
    combo = GeneratorCombination.single(GeneratorTerm(n, tuple(args)))
    remaining = n
    for slot in range(d, 0, -1):
        if slot == 1:
            domain: list[int] = [remaining]
        else:
            domain = list(range(2, remaining - 2 * (slot - 1) + 1))
        target = weights[slot - 1]
        if len(domain) == 1:
            remaining -= target
            continue
        coeffs = _isolation_coefficients(domain, target)
        combo = GeneratorCombination.from_terms(
            (g, q * c)
            for s, q in sorted(coeffs.items())
            for g, c in root_sum_generator(combo, slot, s).terms
        )
        if len(combo.terms) > DEFAULT_TERM_CAP:
            raise RootCapExceeded(
                f"{len(combo.terms)} terms exceed the cap {DEFAULT_TERM_CAP}"
            )
        remaining -= target
    return combo


@dataclass(frozen=True)
class PreimageReport:
    """Outcome of the exact image check for a constructed preimage."""

    target: TensorElement
    image: TensorElement
    residual: TensorElement

    @property
    def matched(self) -> bool:
        return self.residual.is_zero()


def verify_preimage(
    p: GeneratorCombination,
    weights: Sequence[int],
    args: Sequence[GroupElement],
) -> PreimageReport:
    """Exact check: image of p, contracted at 2-power orbits, equals the word
    Li_{w_1}(a_1) x ... x Li_{w_d}(a_d).  Failure shows up as a nonzero
    residual in the report, never as an exception.
    """
    word = tuple(
        PolylogSymbol(int(w), a) for w, a in zip(weights, args)
    )
    target = TensorElement.single(word)
    image = tensor_distribution_contract(cobracket_image(p), 2)
    return PreimageReport(target, image, image - target)
