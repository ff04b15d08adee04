"""Depth-graded symbol calculus: iterated images, distribution rewriting,
and the root-sum preimage construction.

A depth-d generator Li_{n-d;1,...,1}(a_1,...,a_d) maps to the sum over all
compositions n_1 + ... + n_d = n with every part >= 2 of the tensor word
Li_{n_1}(a_1) x ... x Li_{n_d}(a_d).  Summing one slot argument over its
2^s-th roots rescales each word by 2^{-s(m-1)} in that slot's weight m, so the
closed-form inverse of the Vandermonde matrix in the nodes 2^{-(m-1)} weighs
the levels s to keep one weight; slot by slot, a preimage is a product grid.

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
from itertools import chain, product
from typing import Iterable, Sequence

from .symalg import ArgMonomial, _Keyed, _Sum, _as_fraction, _merge, _require_ints

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
            if e.denominator & (e.denominator - 1):  # a Fraction's denominator is positive
                raise ValueError(f"exponent {e} of {v} has a non-2-power denominator")


@dataclass(frozen=True, eq=False)
class PolylogSymbol(_Keyed):
    """Formal classical polylogarithm symbol of weight n >= 2."""

    n: int
    arg: GroupElement

    def __post_init__(self) -> None:
        if type(self.n) is not int:  # checked inline: the preimage path builds many
            _require_ints(n=self.n)
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
        if type(self.weight) is not int:
            _require_ints(weight=self.weight)
        if not self.args:
            raise ValueError("generator needs depth at least 1")
        if self.weight < len(self.args):
            raise ValueError(f"weight {self.weight} below depth {len(self.args)}")
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
class Combination(_Sum):
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
    def single(x: PolylogSymbol | Word | GeneratorTerm, coeff: Fraction | int = 1) -> "Combination":
        return Combination.from_terms([(x, _as_fraction(coeff))])

    def scale(self, c: Fraction | int) -> "Combination":
        c = _as_fraction(c)
        return Combination.from_terms((x, c * q) for x, q in self.terms)

    def __str__(self) -> str:
        return " + ".join(f"({c}) " + (" (x) ".join(map(str, x)) if isinstance(x, tuple) else str(x))
                          for x, c in self.terms) or "0"


PolylogCombination = TensorElement = GeneratorCombination = Combination


# ---------------------------------------------------------------------------
# image of a generator


def compositions_min2(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ordered splittings of `total` into `parts` parts, each >= 2."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(first,) + rest for first in range(2, total - 2 * (parts - 1) + 1)
            for rest in compositions_min2(total - first, parts - 1)]


def _generator_pairs(g: GeneratorTerm | GeneratorCombination) -> tuple:
    """Merged (generator, coeff) pairs, also of a hand-built combination; terms of
    generators with nonzero coefficients and increasing keys are merged already."""
    if not isinstance(g, Combination):
        return ((g, Fraction(1)),)
    t = g.terms
    merged = all(type(x) is GeneratorTerm and c for x, c in t) and all(
        a[0]._k < b[0]._k for a, b in zip(t, t[1:]))
    return t if merged else Combination.from_terms(t).terms


def _image(pairs: Sequence[tuple[GeneratorTerm, object]], ids: "_Ids") -> dict:
    """The image of merged (generator, c) pairs as {argument-id tuple:
    {composition: c}}, building no symbol or word: each generator holds c at
    every composition of its weight.  No two tuples coincide, as distinct
    generators differ in some argument.  Arguments take ids in key order,
    so with a fresh `ids` id words order like word keys."""
    if not (comps := pairs and compositions_min2(pairs[0][0].weight, pairs[0][0].depth)):
        return {}  # no generator, or weight below twice the depth (pairs are homogeneous)
    arg = {k: ids.arg(k, a) for k, a in sorted({a._k: a for g, _ in pairs for a in g.args}.items())}
    return {tuple([arg[a._k] for a in g.args]): dict.fromkeys(comps, c) for g, c in pairs}


def _words(terms: dict) -> list:
    """The (id word, c) pairs of {argument-id tuple: {composition: c}}; the
    symbol Li_n(b) has the id n * _ARGS + the id of b, one int per symbol."""
    top = max(map(max, chain.from_iterable(terms.values())), default=0)
    rows = {a: [n * _ARGS + a for n in range(top + 1)] for a in set(chain.from_iterable(terms))}
    return [(tuple(map(list.__getitem__, by_n, ns)), c) for t, m in terms.items()
            for by_n in ([rows[a] for a in t],) for ns, c in m.items()]


def cobracket_image(g: GeneratorTerm | GeneratorCombination) -> TensorElement:
    """Iterated-image tensor sum of a generator (or combination, linearly).

    For a single depth-d generator of weight n the image is the sum over
    compositions n_1 + ... + n_d = n with all n_i >= 2 of the word
    Li_{n_1}(a_1) x ... x Li_{n_d}(a_d); empty when n < 2d.  The words come
    from the enumeration `verify_preimage` contracts, each once, sorted on
    their id words, and each symbol Li_n(a) is built once per call.
    """
    ids = _Ids()
    with _gc_paused():  # as in verify_preimage: many acyclic tuples, no cycles
        words = sorted(_words(_image(_generator_pairs(g), ids)))
        return Combination(tuple([(tuple(map(ids.symbol, w)), c) for w, c in words]))


# ---------------------------------------------------------------------------
# distribution relations


def _power_key(key: tuple, r: int) -> tuple:
    """Key of b^r from the key (p, q, ((v, num, den), ...)) of b: phase
    p*r/q mod 1 and exponents num*r/den, in lowest terms."""
    p, q, exps = key
    g = math.gcd(p * r, q)
    exps = tuple((v, num * r // (h := math.gcd(num * r, den)), den // h) for v, num, den in exps)
    return p * r // g % (q // g), q // g, exps


def _symbol_from_key(key: tuple) -> PolylogSymbol:
    n, (p, q, exps) = key
    arg = GroupElement(Fraction(p, q), tuple((v, Fraction(a, b)) for v, a, b in exps))
    return PolylogSymbol(n, arg)


_ARGS = 2**40  # the id of a symbol Li_n(b) is n * _ARGS + the id of b


class _Ids:
    """Arguments as int ids, given in the order first seen; symbol ids (see
    `_words`) order like symbol keys when argument ids order like argument
    keys.  An argument's r-th power is worked out once, from its key;
    symbols are built for output only, each once."""

    def __init__(self) -> None:
        self.keys: list = []  # argument id -> key
        self.ids: dict = {}  # argument key -> id
        self.elements: list = []  # argument id -> its GroupElement, None for a power
        self.powers: dict = {}  # argument id -> id of its r-th power
        self.symbols: dict = {}  # symbol id -> PolylogSymbol

    def arg(self, key: tuple, element: GroupElement | None = None) -> int:
        a = self.ids.setdefault(key, len(self.keys))
        if a == len(self.keys):
            self.keys.append(key)
            self.elements.append(element)
        return a

    def power(self, a: int, r: int) -> int:
        """The id of the r-th power of argument a."""
        if a not in self.powers:
            self.powers[a] = self.arg(_power_key(self.keys[a], r))
        return self.powers[a]

    def symbol(self, i: int) -> PolylogSymbol:
        if i not in self.symbols:
            n, a = divmod(i, _ARGS)
            arg = self.elements[a]  # None for a power, whose symbol its key builds
            self.symbols[i] = PolylogSymbol(n, arg) if arg else _symbol_from_key((n, self.keys[a]))
        return self.symbols[i]


def _lowest(num: int, k: int, r: int) -> tuple[int, int]:
    """The one form (num, k) of the value num / (D * r**k): r divided out of
    num while k > 0, so equal values have equal pairs (zero is (0, 0))."""
    while k and num % r == 0:
        num, k = num // r, k - 1
    return num, k


def _collapse(hit: dict, slot: int, r: int) -> dict:
    """{ns: (num, k)} times r^{1-n}, n = ns[slot], in `_lowest` form; at r = 2 the
    power of 2 in num is its lowest set bit z (-1 at num = 0), with no call per item."""
    if r != 2:
        return {ns: _lowest(num, k + ns[slot] - 1, r) for ns, (num, k) in hit.items()}
    return {ns: (num >> z, k - z) if 0 <= z <= k else (num >> k, 0)
            for ns, (num, k) in hit.items()
            for k in [k + ns[slot] - 1] for z in [(num & -num).bit_length() - 1]}


def _add(terms: dict, t: tuple, by_ns: dict, r: int) -> None:
    """terms[t] += by_ns per composition; zeros drop, and t once its map is empty."""
    old = terms.setdefault(t, by_ns)
    if old is not by_ns:
        for ns, c in by_ns.items():
            if ns in old:
                (a, i), (b, j) = old[ns], c
                k = max(i, j)
                c = _lowest(a * r ** (k - i) + b * r ** (k - j), k, r)
            if c[0]:
                old[ns] = c
            else:
                del old[ns]
        if not old:
            del terms[t]


def _scaled(pairs: Sequence[tuple[object, Fraction]]) -> tuple[int, list]:
    """D, the lcm of the denominators, and each (x, c) as (x, (c * D, 0))."""
    den = math.lcm(*{c.denominator for _, c in pairs})
    return den, [(x, (c.numerator * (den // c.denominator), 0)) for x, c in pairs]


def _contract(terms: dict, ids: _Ids, r: int) -> None:
    """The fixpoint of `tensor_distribution_contract`, in place, for r >= 1.

    Terms are {argument-id tuple t: {composition ns: (num, k)}}, the word
    Li_{ns_1}(t_1) x ... x Li_{ns_d}(t_d) at each (t, ns).  A collapse keeps
    every n_j and `_add` merges only equal words, so each composition sees
    the slot passes it would see alone, and a pass with no collapse in it
    leaves it unchanged: one grouping of the tuples serves them all.  Two
    arguments share an orbit exactly when their r-th powers agree, so a
    slot groups its tuples under the tuple with that slot's id replaced by
    the id of its power, the collapsed tuple; a group of r collapses each
    composition that all r hold with one coefficient.  A coefficient
    (num, k) stands for num / (D * r**k), D one common denominator, in the
    one form `_lowest` gives: a collapse at weight n adds n - 1 to k, a sum
    aligns the two k, and equal pairs are equal coefficients.  A pass scans
    only if some slot argument has all r orbit partners in the slot and
    adds its collapsed maps after the scan; a round of passes without a
    collapse ends the fixpoint.
    """
    depth = len(next(iter(terms), ()))
    slot, unchanged = 0, 0  # consecutive slot passes without a collapse
    while r > 1 and unchanged < depth:  # at r = 1 every collapse is the identity
        powers = {a: ids.power(a, r) for a in {t[slot] for t in terms}}
        orbits: dict = {}  # power id -> the slot ids present with that power
        for a, up in powers.items():
            orbits.setdefault(up, []).append(a)
        full = {a for members in orbits.values() if len(members) == r for a in members}
        groups: dict = {}  # tuple with its slot id replaced by the orbit -> members
        for t in terms if full else ():
            if t[slot] in full:  # only these can lie in a complete orbit
                groups.setdefault(t[:slot] + (powers[t[slot]],) + t[slot + 1 :], []).append(t)
        collapsed = []
        for up, members in groups.items():
            if len(members) < r:
                continue
            maps = [terms[t] for t in members]  # equal maps: every composition collapses
            hit = maps[0] if maps.count(maps[0]) == r else {
                ns: c for ns, c in maps[0].items() if all(m.get(ns) == c for m in maps)}
            for t, m in zip(members, maps):
                if len(m) == len(hit):  # all of t collapses
                    del terms[t]
                else:
                    for ns in hit:
                        del m[ns]
            if hit:
                collapsed.append((up, _collapse(hit, slot, r)))
        for up, by_ns in collapsed:
            _add(terms, up, by_ns, r)
        unchanged = 0 if collapsed else unchanged + 1
        slot = (slot + 1) % depth


def _contracted(terms: dict, ids: _Ids, den: int, r: int) -> list[tuple[Word, Fraction]]:
    """The merged, unsorted (word, coeff) pairs of the contracted terms."""
    _contract(terms, ids, r)
    return [(tuple(map(ids.symbol, w)), Fraction(num, den * r**k)) for w, (num, k) in _words(terms)]


def _contract_terms(pairs: Iterable[tuple[Word, Fraction]], r: int) -> list[tuple[Word, Fraction]]:
    _require_ints(r=r)
    if r < 1:
        raise ValueError("orbit order must be a positive integer")
    ids, terms = _Ids(), {}
    den, pairs = _scaled([(w, c) for w, c in pairs if c])
    for w, c in pairs:
        _add(terms, tuple([ids.arg(s.arg._k, s.arg) for s in w]), {tuple([s.n for s in w]): c}, r)
    return _contracted(terms, ids, den, r)


def distribution_contract(e: PolylogCombination, r: int) -> PolylogCombination:
    """Collapse complete equal-coefficient root orbits, repeatedly.

    Each orbit {Li_n(zeta b) : zeta^r = 1} with common coefficient c becomes
    c * r^{1-n} * Li_n(b^r); partial orbits and orbits with unequal
    coefficients are left untouched.  This is the depth-1 case of
    `tensor_distribution_contract`, so a second call is a no-op.
    """
    return PolylogCombination.from_terms(
        (w[0], c) for w, c in _contract_terms((((s,), c) for s, c in e.terms), r)
    )


def distribution_expand(e: PolylogCombination, r: int) -> PolylogCombination:
    """Rewrite each Li_n(b) as r^{n-1} * sum over the r-th roots of b.

    Inverse of contraction on complete orbits.  Raises ValueError when a
    root would need an exponent denominator that is not a power of 2.
    """
    _require_ints(r=r)
    if r < 1:
        raise ValueError("orbit order must be a positive integer")
    return PolylogCombination.from_terms((PolylogSymbol(sym.n, root), coeff * r ** (sym.n - 1))
                                         for sym, coeff in e.terms for root in sym.arg._roots(r))


def tensor_distribution_contract(te: TensorElement, r: int) -> TensorElement:
    """Slot-wise orbit contraction on tensor words, iterated to a fixpoint.

    Slot by slot, words equal outside the slot whose slot symbols form a
    complete orbit with one coefficient collapse as in `distribution_contract`
    (its depth-1 case); equal words merge and zeros drop after every slot.
    The symbols are interned as int ids and the fixpoint, `_contract`, runs
    on integers only; the output words get their symbols and `Fraction`s
    back, and are sorted by the merge.
    """
    return TensorElement.from_terms(_contract_terms(te.terms, r))


# ---------------------------------------------------------------------------
# root sums and the preimage construction


def root_sum_generator(c: GeneratorCombination, slot: int, s: int) -> GeneratorCombination:
    """Replace each term's slot argument by the sum of its 2^s-th roots,
    worked out once per distinct slot argument."""
    _require_ints(slot=slot, s=s)
    if not c.terms:
        return c
    depth = c.terms[0][0].depth
    if not 1 <= slot <= depth:
        raise ValueError(f"slot must lie in 1..{depth}")
    if s < 0:
        raise ValueError("root level must be nonnegative")
    if len(c.terms) * 2**s > DEFAULT_TERM_CAP:
        raise RootCapExceeded(f"{len(c.terms)} * 2^{s} terms exceed the cap {DEFAULT_TERM_CAP}")
    out, roots = [], {}  # slot argument -> its roots
    for g, coeff in c.terms:
        a = g.args[slot - 1]
        for root in roots.get(a) or roots.setdefault(a, a.roots(s)):
            args = g.args[: slot - 1] + (root,) + g.args[slot:]
            out.append((GeneratorTerm(g.weight, args), coeff))
    return GeneratorCombination.from_terms(out)


def _isolation_coefficients(top: int, target: int) -> dict[int, Fraction]:
    """Exact q_s with sum_s q_s * (2^{1-m})^s = [m == target] for m = 2..top, c nodes:
    the target's Lagrange basis polynomial prod_{m != target} (2^{m-1} x - 1)
    times 2^{(target-1)(c-1)} / prod_{m != target} (2^{m-1} - 2^{target-1})."""
    poly, den = [1], 1  # ascending powers of x
    for m in range(2, top + 1):
        if m != target:
            poly = [2 ** (m - 1) * b - a for a, b in zip(poly + [0], [0] + poly)]
            den *= 2 ** (m - 1) - 2 ** (target - 1)
    num = 2 ** ((target - 1) * (top - 2))
    return {s: Fraction(a * num, den) for s, a in enumerate(poly) if a}


def construct_preimage(weights: Sequence[int], args: Sequence[GroupElement]) -> GeneratorCombination:
    """Generator combination whose contracted image is one tensor word.

    The product grid of the slots: slot 1 holds a_1, slot j >= 2 each root b
    of a_j with c_j(b), the sum of q_s over the levels s whose 2^s-th roots
    include b, where the q_s isolate weights[j-1] among the slot weights m
    (nodes 2^{-(m-1)}).  A generator's coefficient is the product of its
    slots' c_j, and with every column sorted by key so is the grid.  The cap
    is checked from the last slot down, before each level and per column.
    """
    weights = tuple(weights)
    _require_ints(**{f"weights[{i}]": w for i, w in enumerate(weights)})
    if not weights:
        raise InfeasibleWeights("need at least one slot weight")
    if any(w < 2 for w in weights):
        raise InfeasibleWeights(f"every slot weight must be >= 2, got {weights}")
    if len(args) != len(weights):
        raise ValueError("one argument per slot weight required")
    weight, depth, size = sum(weights), len(weights), 1
    keys, roots, coeffs = [(args[0]._k,)], [(args[0],)], []  # slot 1, then slots d..2
    for slot in range(depth, 1, -1):  # slot 1 keeps the weight the others leave
        levels = _isolation_coefficients(sum(weights[:slot]) - 2 * (slot - 1), weights[slot - 1])
        if over := [s for s in levels if size * 2**s > DEFAULT_TERM_CAP]:  # the first level over
            raise RootCapExceeded(f"{size} * 2^{over[0]} terms exceed the cap {DEFAULT_TERM_CAP}")
        column: dict = {}  # root key -> [root, c_j(root)]
        for s, q in levels.items():
            for b in args[slot - 1].roots(s):
                column[b._k] = [b, column[b._k][1] + q] if b._k in column else [b, q]
        # never empty: the top level's q is nonzero, and some top root is in no lower level
        k, b, c = zip(*sorted((k, b, c) for k, (b, c) in column.items() if c))
        keys[1:1], roots[1:1], coeffs[:0] = [k], [b], [c]
        if (size := size * len(k)) > DEFAULT_TERM_CAP:
            raise RootCapExceeded(f"{size} terms exceed the cap {DEFAULT_TERM_CAP}")
    terms, coeffs = [], coeffs or [(Fraction(1),)]  # depth 1: slot 1's coefficient
    for key, parts, cs in zip(product(*keys), product(*roots), product(*coeffs)):
        g = object.__new__(GeneratorTerm)  # fields set as __init__ sets them, unchecked
        object.__setattr__(g, "weight", weight)  # not through vars(g), which would
        object.__setattr__(g, "args", parts)  # give each generator a dict of its own
        object.__setattr__(g, "_k", (weight, depth, key))
        terms.append((g, math.prod(cs[1:], start=cs[0])))
    return GeneratorCombination(tuple(terms))


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
    p: GeneratorCombination, weights: Sequence[int], args: Sequence[GroupElement]
) -> PreimageReport:
    """Exact check: image of p, contracted at 2-power orbits, equals the word
    Li_{w_1}(a_1) x ... x Li_{w_d}(a_d).  Only a failed check is a nonzero
    residual; ValueError marks inputs that describe no check: weights not ints
    >= 2, not one argument per weight, or p of another depth, or of another
    weight at or above twice its depth (below it, p's image is empty).  Only
    the contracted words get symbols.
    """
    _require_ints(**{f"weights[{i}]": w for i, w in enumerate(weights)})
    if len(args) != len(weights):
        raise ValueError("one argument per slot weight required")
    target = TensorElement.single(tuple(PolylogSymbol(w, a) for w, a in zip(weights, args)))
    pairs = _generator_pairs(p)
    if pairs and pairs[0][0].depth != len(weights):
        raise ValueError(f"preimage of depth {pairs[0][0].depth} for {len(weights)} slot weights")
    weight = pairs[0][0].weight if pairs else sum(weights)
    if weight != sum(weights) and weight >= 2 * len(weights):  # below it, the image is empty
        raise ValueError(f"preimage of weight {weight} for slot weights summing to {sum(weights)}")
    with _gc_paused():
        ids = _Ids()
        den, pairs = _scaled(pairs)
        image = TensorElement.from_terms(_contracted(_image(pairs, ids), ids, den, 2))
    return PreimageReport(target, image, image - target)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its state on exit.

    The check allocates acyclic tuples by the hundred thousand at weight 12,
    and each collection they trigger walks all of them again.  Reference
    counting still frees everything.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
