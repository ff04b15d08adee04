"""Constructive reduction of depth-2 polylogarithms to Li_{n-1,1} and Li_n.

The route: for parameters (alpha, beta) with gamma = alpha + beta, the
triple root sum over X^alpha = x, Y^beta = y, Z^gamma = xy of weighted
Li_{n-1,1} factors equals the weighted depth-2 sum

    sum_{k+l=n} Li_{k,l}(y, x) (-alpha)^{k-1} beta^{l-1}

plus a classical term (beta^{n-1}/gamma) Li_n(xy).  Running alpha = i,
beta = n - i for i = 1..n-1 produces n-1 such probe combinations; the
coefficient matrix ((-i)^{k-1} (n-i)^{n-k-1}) is of Vandermonde type and
is inverted exactly, which isolates each individual Li_{k,l}.  reduce_li
builds that combination in one pass, in the names it is emitted with (x
and y swapped, so it reads Li_{k,l}(x, y)): each term built once, sorted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import SingularMatrix
from .symalg import (
    ArgMonomial,
    Composition,
    Expr,
    Identity,
    Term,
    _as_fraction,
    _require_ints,
    li_expr,
    li_factor,
)

__all__ = [
    "ReductionMatrix",
    "SingularMatrix",
    "WeightTooSmall",
    "WeightedDepthTwoSum",
    "build_reduction_matrix",
    "build_weighted_sum",
    "coefficient_identity",
    "reduce_li",
    "weight4_fixture_identity",
]


class WeightTooSmall(ValueError):
    """The reduction needs total weight at least 3."""


def _root_terms(n: int, alpha: int, beta: int, x: str, y: str, c: Fraction | int) -> list[Term]:
    """The weighted Li_{n-1,1} sum over all root triples (X, Y, Z), times c.

    X, Y and Z run over the alpha-th roots of x, the beta-th roots of y and the gamma-th
    roots of xy.  Each summand is Li_{n-1,1}(U/V, V) for a root pair (U, V) = (X, Y), (Z, Y)
    or (Z, X), with the third root's count and c in its coefficient.  No two share a key:
    each is built once, from keys already canonical, and none is merged; none for c = 0.
    """
    _require_ints(n=n, alpha=alpha, beta=beta)
    if n < 3:
        raise WeightTooSmall(f"need weight >= 3, got {n}")
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive integers")
    gamma, c = alpha + beta, _as_fraction(c)
    ea, eb, eg = Fraction(1, alpha), Fraction(1, beta), Fraction(1, gamma)
    x_roots = ArgMonomial.variable(x)._roots(alpha)
    y_roots = ArgMonomial.variable(y)._roots(beta)
    pairs = (  # coefficient times multiplicity, exponents of U/V, count of U, roots V
        (c * (alpha * beta) ** (n - 2), {x: ea, y: -eb}, alpha, y_roots),
        (-c * (gamma * beta) ** (n - 2), {x: eg, y: eg - eb}, gamma, y_roots),
        (c * (-gamma * alpha) ** (n - 2), {x: eg - ea, y: eg}, gamma, x_roots),
    )
    top, terms = Composition((n - 1, 1)), []
    for coeff, exps, nu, vs in pairs if c else ():
        # U = zeta_nu^i u, V = zeta_nv^j v: U/V has phase s/lcm(nu, nv), s = i lcm/nu - j lcm/nv
        lcm = math.lcm(nu, len(vs))
        uvs, du, dv = ArgMonomial.make(exps)._twists(lcm), lcm // nu, lcm // len(vs)
        for i in range(nu):
            for j, v in enumerate(vs):
                terms.append(Term._single(coeff, top, (uvs[(i * du - j * dv) % lcm], v)))
    return terms


def _triple_root_sum(n: int, alpha: int, beta: int, c: Fraction | int = 1) -> Expr:
    """`_root_terms` in x and y as an expression, its terms sorted once."""
    return Expr(tuple(sorted(_root_terms(n, alpha, beta, "x", "y", c), key=Term._key)))


def _depth2_probe(n: int, alpha: int, beta: int) -> list[Term]:
    """The terms of sum_{k+l=n, k,l>0} Li_{k,l}(y, x) (-alpha)^{k-1} beta^{l-1}."""
    y = ArgMonomial.variable("y")
    x = ArgMonomial.variable("x")
    return [
        Term((-alpha) ** (k - 1) * beta ** (n - k - 1), (li_factor([k, n - k], [y, x]),))
        for k in range(1, n)
    ]


def _classical_term(n: int, alpha: int, beta: int, c: Fraction | int = 1) -> Term:
    """c (beta^{n-1}/gamma) Li_n(xy)."""
    xy = ArgMonomial.make({"x": 1, "y": 1})
    return Term(c * Fraction(beta ** (n - 1), alpha + beta), (li_factor([n], [xy]),))


def coefficient_identity(n: int, alpha: int, beta: int) -> Identity:
    """The weight-n coefficient identity for root parameters (alpha, beta).

    LHS: the triple root sum of Li_{n-1,1} factors.  RHS: the depth-2
    probe combination plus (beta^{n-1}/gamma) Li_n(xy).  All argument
    monomials have exponent denominators dividing lcm(alpha, beta, gamma).
    """
    lhs = _triple_root_sum(n, alpha, beta)  # checks n, alpha and beta
    rhs = Expr.from_terms([*_depth2_probe(n, alpha, beta), _classical_term(n, alpha, beta)])
    return Identity(
        lhs,
        rhs,
        weight=n,
        variables=frozenset({"x", "y"}),
        provenance=(
            f"coefficient identity at weight {n}, parameters "
            f"alpha={alpha}, beta={beta}, gamma={alpha + beta}"
        ),
    )


@dataclass(frozen=True)
class WeightedDepthTwoSum:
    """One probe combination together with its two equivalent forms.

    depth2_form is the defining weighted sum of Li_{k,l}(y, x); reduced_form
    carries only Li_{n-1,1} and Li_n factors and equals it as a function.
    """

    n: int
    alpha: int
    beta: int
    depth2_form: Expr
    reduced_form: Expr


def build_weighted_sum(n: int, alpha: int, beta: int) -> WeightedDepthTwoSum:
    triple = _root_terms(n, alpha, beta, "x", "y", 1)  # checks n, alpha and beta
    reduced = Expr.from_terms([*triple, _classical_term(n, alpha, beta, -1)])
    depth2 = Expr.from_terms(_depth2_probe(n, alpha, beta))
    return WeightedDepthTwoSum(n, alpha, beta, depth2, reduced)


@dataclass(frozen=True)
class ReductionMatrix:
    """Probe coefficient matrix M[i][k] = (-i)^{k-1} (n-i)^{n-k-1} and its
    exact inverse (both (n-1) x (n-1), i, k = 1..n-1)."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]
    inverse: tuple[tuple[Fraction, ...], ...]


def build_reduction_matrix(n: int) -> ReductionMatrix:
    _require_ints(n=n)
    if n < 3:
        raise WeightTooSmall(f"need weight >= 3, got {n}")
    entries = [
        [Fraction((-i) ** (k - 1) * (n - i) ** (n - k - 1), 1) for k in range(1, n)]
        for i in range(1, n)
    ]
    inverse = linalg.invert_exact(entries)
    return ReductionMatrix(
        n,
        tuple(tuple(row) for row in entries),
        tuple(tuple(row) for row in inverse),
    )


def reduce_li(k: int, l: int) -> Identity:
    """Identity expressing Li_{k,l}(x, y) through Li_{n-1,1} and Li_n only.

    The row of the inverse probe matrix belonging to index k recombines the
    reduced forms of probes i = 1..n-1, each built with x and y swapped, as
    the probes carry arguments (y, x).  Their root orders differ, so no two
    share a root term: only the classical terms Li_n(xy) are merged, and the
    right side is sorted once.
    """
    _require_ints(k=k, l=l)
    n = k + l
    if k < 1 or l < 1:
        raise ValueError("indices must be positive")
    mat = build_reduction_matrix(n)  # raises WeightTooSmall below weight 3
    terms, classical = [], []
    for i, c in enumerate(mat.inverse[k - 1], 1):  # a zero entry adds no term
        terms += _root_terms(n, i, n - i, "y", "x", c)
        classical.append(_classical_term(n, i, n - i, -c))
    terms += Expr.from_terms(classical).terms
    terms.sort(key=Term._key)
    lhs = li_expr([k, l], [ArgMonomial.variable("x"), ArgMonomial.variable("y")])
    return Identity(
        lhs,
        Expr(tuple(terms)),
        weight=n,
        variables=frozenset({"x", "y"}),
        provenance=(
            f"reduction of Li_({k},{l}) via the inverse probe matrix at weight {n}; "
            "probes are defined with arguments (y, x) and the emitted identity "
            "swaps the variable names back to (x, y)"
        ),
    )


def weight4_fixture_identity() -> Identity:
    """The hand-checked weight-4 reduction of Li_{2,2}(x, y) to Li_{3,1} terms.

    Serves as the regression fixture for the whole pipeline; the generated
    weight-4 identity need not match it term by term, but both must verify
    numerically.
    """
    half = Fraction(1, 2)
    x = ArgMonomial.variable("x")
    y = ArgMonomial.variable("y")
    sqrt_ratio_xy = ArgMonomial.make({"x": half, "y": -half})           # sqrt(x)/sqrt(y)
    neg_sqrt_ratio_xy = ArgMonomial.make({"x": half, "y": -half}, 2, 1)  # -sqrt(x)/sqrt(y)
    sqrt_ratio_yx = ArgMonomial.make({"y": half, "x": -half})
    neg_sqrt_ratio_yx = ArgMonomial.make({"y": half, "x": -half}, 2, 1)
    y_over_x = ArgMonomial.make({"y": 1, "x": -1})
    xy = ArgMonomial.make({"x": 1, "y": 1})

    rhs = (
        li_expr([3, 1], [neg_sqrt_ratio_xy, y], -4)
        + li_expr([3, 1], [sqrt_ratio_xy, y], -4)
        + li_expr([3, 1], [neg_sqrt_ratio_yx, x], 4)
        + li_expr([3, 1], [sqrt_ratio_yx, x], 4)
        + li_expr([3, 1], [x, y], 1)
        + li_expr([3, 1], [y, x], -1)
        + li_expr([3, 1], [y_over_x, x], -1)
        + li_expr([4], [xy], Fraction(-1, 2))
        + Expr.single(1, [li_factor([1], [x]), li_factor([3], [y])])
    )
    lhs = li_expr([2, 2], [x, y])
    return Identity(
        lhs,
        rhs,
        weight=4,
        variables=frozenset({"x", "y"}),
        provenance="weight-4 depth-2 reference identity (regression fixture)",
    )
