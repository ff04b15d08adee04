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
and y swapped, so it reads Li_{k,l}(x, y)): each term once, merged once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import SingularMatrix
from .symalg import (
    ArgMonomial,
    Composition,
    Expr,
    Identity,
    MPLFactor,
    Term,
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


def _mono(exps: dict[str, Fraction], phase: Fraction = Fraction(0)) -> ArgMonomial:
    return ArgMonomial(phase, tuple(exps.items()))


def _triple_root_sum(
    n: int, alpha: int, beta: int, x: str = "x", y: str = "y", c: Fraction | int = 1
) -> Expr:
    """Weighted Li_{n-1,1} sum over all root triples (X, Y, Z), times c.

    X runs over the alpha-th roots of x, Y over the beta-th roots of y and
    Z over the gamma-th roots of xy, x and y being the variable names given.
    Each summand is Li_{n-1,1}(U/V, V) for one root pair (U, V) = (X, Y),
    (Z, Y) or (Z, X), so the sum runs over those pairs and the count gamma,
    alpha or beta of the third root is folded into the pair's coefficient,
    and so is c.  Each root monomial and each term is built once.
    """
    if n < 3:
        raise WeightTooSmall(f"need weight >= 3, got {n}")
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive integers")
    gamma = alpha + beta
    ea, eb, eg = Fraction(1, alpha), Fraction(1, beta), Fraction(1, gamma)
    x_roots = {p: _mono({x: ea}, p) for p in (Fraction(i, alpha) for i in range(alpha))}
    y_roots = {p: _mono({y: eb}, p) for p in (Fraction(j, beta) for j in range(beta))}
    z_phases = [Fraction(k, gamma) for k in range(gamma)]  # Z is never a V: no monomial
    pairs = (  # coefficient times multiplicity, exponents of U/V, phases of U, roots V by phase
        (c * (alpha * beta) ** (n - 2), {x: ea, y: -eb}, x_roots, y_roots),
        (-c * (gamma * beta) ** (n - 2), {x: eg, y: eg - eb}, z_phases, y_roots),
        (c * (-gamma * alpha) ** (n - 2), {x: eg - ea, y: eg}, z_phases, x_roots),
    )
    top = Composition((n - 1, 1))
    return Expr.from_terms(
        Term(coeff, (MPLFactor(top, (_mono(exps, pu - pv), v)),))
        for coeff, exps, us, vs in pairs
        for pu in us
        for pv, v in vs.items()
    )


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
    xy = _mono({"x": Fraction(1), "y": Fraction(1)})
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
    triple = _triple_root_sum(n, alpha, beta)  # checks n, alpha and beta
    reduced = Expr.from_terms([*triple.terms, _classical_term(n, alpha, beta, -1)])
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
    if n < 3:
        raise WeightTooSmall(f"need weight >= 3, got {n}")
    entries = [
        [Fraction((-i) ** (k - 1) * (n - i) ** (n - k - 1)) for k in range(1, n)]
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
    reduced forms of probes i = 1..n-1.  The probes carry arguments (y, x),
    so each is built with x and y swapped: its triple root sum, already
    scaled by its row entry, then its classical term.  All the terms are
    merged once more, across probes.
    """
    n = k + l
    if k < 1 or l < 1:
        raise ValueError("indices must be positive")
    mat = build_reduction_matrix(n)  # raises WeightTooSmall below weight 3
    terms = []
    for i, c in enumerate(mat.inverse[k - 1], 1):
        if c != 0:
            terms += _triple_root_sum(n, i, n - i, "y", "x", c).terms
            terms.append(_classical_term(n, i, n - i, -c))
    lhs = li_expr([k, l], [ArgMonomial.variable("x"), ArgMonomial.variable("y")])
    return Identity(
        lhs,
        Expr.from_terms(terms),
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
    one = Fraction(1)
    x = ArgMonomial.variable("x")
    y = ArgMonomial.variable("y")
    sqrt_ratio_xy = _mono({"x": half, "y": -half})            # sqrt(x)/sqrt(y)
    neg_sqrt_ratio_xy = _mono({"x": half, "y": -half}, half)  # -sqrt(x)/sqrt(y)
    sqrt_ratio_yx = _mono({"y": half, "x": -half})
    neg_sqrt_ratio_yx = _mono({"y": half, "x": -half}, half)
    y_over_x = _mono({"y": one, "x": -one})
    xy = _mono({"x": one, "y": one})

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
