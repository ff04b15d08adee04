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

import contextlib
import gc
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .symalg import ArgMonomial, _Keyed, _merge

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


@dataclass(frozen=True, eq=False)
class PolylogSymbol(_Keyed):
    """Formal classical polylogarithm symbol of weight n >= 2."""

    n: int
    arg: GroupElement

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"symbol weight must be >= 2, got {self.n}")
        object.__setattr__(self, "_k", (self.n, self.arg._k))

    def __str__(self) -> str:
        return f"Li_{self.n}({self.arg})"


Word = tuple[PolylogSymbol, ...]


@dataclass(frozen=True, eq=False)
class GeneratorTerm(_Keyed):
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
        key = tuple(a._k for a in self.args)
        object.__setattr__(self, "_k", (self.weight, len(self.args), key))

    @property
    def depth(self) -> int:
        return len(self.args)

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

    The words need no merge: once the generators are merged (a cheap step
    that also covers a hand-built combination repeating one), distinct
    generators of one weight and depth differ in some argument, and so in
    every word they give, while one generator's words differ in their slot
    weights.  Each word is emitted once and sorted on an integer key that
    orders like its symbol key: the digits n_1, rank_1, ..., n_d, rank_d of
    one mixed-radix number, rank_j being the place of the slot-j argument
    among the sorted distinct slot-j arguments.  The n digits come from the
    composition and the rank digits from the generator, so a word's key is
    the sum of one integer of each.
    """
    if isinstance(g, Combination):
        pairs = Combination.from_terms(g.terms).terms
    else:
        pairs = ((g, Fraction(1)),)
    if not pairs:
        return Combination()
    weight, depth = pairs[0][0].weight, pairs[0][0].depth  # homogeneous
    comps = compositions_min2(weight, depth)
    if not comps:
        return Combination()
    slot_weights = range(2, weight - 2 * (depth - 1) + 1)  # the n_j of any slot
    tables, radices = [], []  # per slot: argument key -> (rank, n -> symbol)
    for j in range(depth):
        args = {term.args[j]._k: term.args[j] for term, _ in pairs}
        tables.append({
            k: (rank, {n: PolylogSymbol(n, args[k]) for n in slot_weights})
            for rank, k in enumerate(sorted(args))
        })
        radices += [slot_weights.stop, len(args)]
    places = [math.prod(radices[i + 1 :]) for i in range(2 * depth)]
    comp_keys = [sum(n * places[2 * j] for j, n in enumerate(comp)) for comp in comps]
    words, keys = [], []
    for term, coeff in pairs:
        ranked = [tables[j][a._k] for j, a in enumerate(term.args)]
        base = sum(rank * places[2 * j + 1] for j, (rank, _) in enumerate(ranked))
        symbols = [by_weight for _, by_weight in ranked]
        for comp, key in zip(comps, comp_keys):
            words.append((tuple(map(dict.__getitem__, symbols, comp)), coeff))
            keys.append(base + key)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return Combination(tuple([words[i] for i in order]))


# ---------------------------------------------------------------------------
# distribution relations


def _power_key(key: tuple, r: int) -> tuple:
    """Key of Li_n(b^r) from the key (n, (p, q, ((v, num, den), ...))) of Li_n(b):
    phase p*r/q mod 1 and exponents num*r/den, in lowest terms."""
    n, (p, q, exps) = key
    g = math.gcd(p * r, q)
    exps = tuple((v, num * r // (h := math.gcd(num * r, den)), den // h) for v, num, den in exps)
    return n, (p * r // g % (q // g), q // g, exps)


def _symbol_from_key(key: tuple) -> PolylogSymbol:
    n, (p, q, exps) = key
    arg = GroupElement(Fraction(p, q), tuple((v, Fraction(a, b)) for v, a, b in exps))
    return PolylogSymbol(n, arg)


def _lowest(num: int, k: int, r: int) -> tuple[int, int]:
    """The one form (num, k) of the value num / (D * r**k): r divided out of
    num while k > 0, so equal values have equal pairs (zero is (0, 0))."""
    while k and num % r == 0:
        num, k = num // r, k - 1
    return num, k


def _contract(pairs: Iterable[tuple[Word, Fraction]], r: int) -> list[tuple[Word, Fraction]]:
    """The fixpoint of `tensor_distribution_contract` as merged, unsorted
    (word, coeff) pairs.

    Words are tuples of int symbol ids.  Two symbols share an orbit exactly
    when their r-th powers agree, so a slot groups its words under the word
    with that slot's id replaced by the id of its power, which is also the
    collapsed word.  A coefficient is an int pair (num, k) standing for
    num / (D * r**k), D the lcm of the input denominators, in the one form
    `_lowest` gives: a collapse at weight n adds n - 1 to k, a sum aligns
    the two k, and equal pairs are equal coefficients.  A slot pass groups
    only the words whose slot symbol has all r orbit partners among the
    slot's symbols, takes out the members of complete equal-coefficient
    orbits and adds their collapsed words; the fixpoint is reached once a
    pass over every slot, since the last collapse, found none.  Symbols and
    coefficients are converted once per object, by `id`, which `pairs`
    keeps valid by holding them.
    """
    if r < 1:
        raise ValueError("orbit order must be a positive integer")
    pairs = list(pairs)
    objects = {id(s): s for w, _ in pairs for s in w}  # each symbol object once
    table = {s._k: s for s in objects.values()}  # symbol key -> symbol
    keys = list(table)  # id -> symbol key
    ids = {k: i for i, k in enumerate(keys)}
    of_object = {o: ids[s._k] for o, s in objects.items()}
    powers: dict[int, int] = {}  # id -> id of its r-th power

    def power(i: int) -> int:  # the power's key is interned on first use
        if i not in powers:
            key = _power_key(keys[i], r)
            powers[i] = ids.setdefault(key, len(keys))
            if powers[i] == len(keys):
                keys.append(key)
        return powers[i]

    coeffs = {id(c): c for _, c in pairs}.values()  # each coefficient object once
    den = math.lcm(*{c.denominator for c in coeffs})
    scaled = {id(c): (c.numerator * (den // c.denominator), 0) for c in coeffs}
    words: dict[tuple[int, ...], tuple[int, int]] = {}

    def add(w: tuple[int, ...], c: tuple[int, int]) -> None:
        if w in words:
            (a, i), (b, j) = words[w], c
            k = max(i, j)
            c = _lowest(a * r ** (k - i) + b * r ** (k - j), k, r)
        if c[0]:
            words[w] = c
        else:
            words.pop(w, None)

    for w, c in pairs:
        add(tuple(map(of_object.__getitem__, map(id, w))), scaled[id(c)])
    depth = len(next(iter(words), ()))
    slot, unchanged = 0, 0  # consecutive slot passes without a collapse
    while r > 1 and unchanged < depth:  # at r = 1 every collapse is the identity
        orbits: dict = {}  # power id -> the slot ids present with that power
        for i in {w[slot] for w in words}:
            orbits.setdefault(power(i), []).append(i)
        full = {i for members in orbits.values() if len(members) == r for i in members}
        groups: dict = {}  # word with its slot id replaced by the orbit -> members
        for w in words:
            if w[slot] in full:  # only these can lie in a complete orbit
                groups.setdefault(w[:slot] + (powers[w[slot]],) + w[slot + 1 :], []).append(w)
        collapsed = []
        for up, members in groups.items():
            if len(members) == r:
                c = words[members[0]]
                for w in members[1:]:
                    if words[w] != c:
                        break
                else:
                    collapsed.append((up, _lowest(c[0], c[1] + keys[up[slot]][0] - 1, r)))
                    for w in members:
                        del words[w]
        for up, c in collapsed:
            add(up, c)
        unchanged = 0 if collapsed else unchanged + 1
        slot = (slot + 1) % depth

    def symbol(i: int) -> PolylogSymbol:  # a power made by a collapse is built here
        return table.get(keys[i]) or table.setdefault(keys[i], _symbol_from_key(keys[i]))

    return [(tuple(map(symbol, w)), Fraction(num, den * r**k)) for w, (num, k) in words.items()]


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
    The fixpoint runs on integers only: words are tuples of int symbol ids,
    each mapped once to the id of its r-th power, computed from the symbol
    key; coefficients are int pairs (num, k) for num / (D * r**k) over one
    denominator D, normalised so that equal pairs are equal values.  Only
    the output words get `Fraction` coefficients, and only symbols new to
    the output are built.  Which words collapse does not depend on term
    order, so words are sorted only for output, by the merge.
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
    remaining = sum(weights)
    combo = GeneratorCombination.single(GeneratorTerm(remaining, tuple(args)))
    for slot in range(len(weights), 1, -1):  # slot 1 keeps the weight that remains
        domain = list(range(2, remaining - 2 * (slot - 1) + 1))
        target = weights[slot - 1]
        remaining -= target
        if len(domain) == 1:
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
    with _gc_paused():
        image = tensor_distribution_contract(cobracket_image(p), 2)
    return PreimageReport(target, image, image - target)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its state on exit.

    The image and its contraction build only acyclic objects, by the
    hundred thousand at weight 12, and each collection the allocations
    trigger walks all of them again: at weight 12 that is about half the
    time of the check.  Reference counting still frees everything.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
