"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (literal nested loops, no prefix
sums, no closed forms) so it shares no code path with the library.  The
one exception is `series_scalar_reference`, the generic level loop of the
library's recurrence, which pins the bits of its kernel at every column.
"""

from __future__ import annotations


def li_direct(parts, args, cutoff):
    """Nested-loop truncation of the defining series, O(cutoff^depth)."""
    d = len(parts)
    args = [complex(a) for a in args]

    def rec(level, start, acc):
        if level == d:
            return acc
        total = 0j
        for m in range(start + 1, cutoff + 1):
            total += rec(level + 1, m, acc * args[level] ** m / m ** parts[level])
        return total

    return rec(0, 0, 1.0 + 0j)


def series_scalar_reference(parts, col, cutoff):
    """The suffix-scaled prefix-sum recurrence at one point as a generic
    level loop on Python complex scalars, 1/m^n recomputed at every step:
    the bits `series_value_batch` must reproduce at each column."""
    d = len(parts)
    bs = [0j] * (d + 1) + [1.0 + 0.0j]  # bs[k] = a_k * ... * a_d; bs[d+1] = 1
    for k in range(d, 0, -1):
        bs[k] = complex(col[k - 1]) * bs[k + 1]
    cs = [1.0 + 0.0j] + [0.0j] * d  # C_0(0) = 1
    for m in range(1, cutoff + 1):
        fm = float(m)
        for k in range(d, 0, -1):
            scale = 1.0 / fm ** parts[k - 1]
            cs[k] = cs[k] * bs[k + 1] + bs[k] * scale * cs[k - 1]
        cs[0] *= bs[1]
    return cs[d]


def generating_direct(x, y, t1, t2, cutoff):
    """Literal double sum over m, n > 0 with m + n <= cutoff."""
    total = 0j
    for m in range(1, cutoff):
        for n in range(1, cutoff - m + 1):
            total += x**m * y**n / ((m - t1) * (m + n - t2))
    return total


def compositions_brute(total, parts, minimum):
    """All ordered splittings by exhaustive product filtering."""
    import itertools

    out = []
    for tup in itertools.product(range(minimum, total + 1), repeat=parts):
        if sum(tup) == total:
            out.append(tup)
    return out


def tensor_contract_reference(te, r):
    """Slot-wise orbit contraction, re-normalized by a sorted `from_terms`
    after every slot: the straightforward form of the fixpoint that
    `tensor_distribution_contract` computes on interned ids."""
    from fractions import Fraction

    from mplkit.coalgebra import PolylogSymbol, TensorElement

    if r == 1 or te.is_zero():
        return te
    depth = len(te.terms[0][0])
    terms = list(te.terms)
    changed = True
    while changed:
        changed = False
        for slot in range(depth):
            groups = {}
            for word, coeff in terms:
                sym = word[slot]
                rest = tuple(w._key() for i, w in enumerate(word) if i != slot)
                key = (rest, sym.n, sym.arg.exponents, (sym.arg.phase * r) % 1)
                groups.setdefault(key, []).append((word, coeff))
            new_terms = []
            for members in groups.values():
                coeffs = {c for _, c in members}
                if len(members) == r and len(coeffs) == 1:
                    word0, c = members[0]
                    sym0 = word0[slot]
                    new_sym = PolylogSymbol(sym0.n, sym0.arg.power(r))
                    new_word = word0[:slot] + (new_sym,) + word0[slot + 1 :]
                    new_terms.append((new_word, c * Fraction(1, r ** (sym0.n - 1))))
                    changed = True
                else:
                    new_terms.extend(members)
            terms = list(TensorElement.from_terms(new_terms).terms)
    return TensorElement.from_terms(terms)


def image_reference(pairs):
    """The tensor element of the (generator, coeff) pairs, repeats allowed:
    every word of every composition, from `compositions_brute`, merged and
    sorted by one `from_terms`."""
    from mplkit.coalgebra import PolylogSymbol, TensorElement

    return TensorElement.from_terms(
        (tuple(PolylogSymbol(n, a) for n, a in zip(comp, g.args)), coeff)
        for g, coeff in pairs
        for comp in compositions_brute(g.weight, g.depth, 2)
    )


def triple_root_sum_reference(n, alpha, beta):
    """The weighted Li_{n-1,1} sum as a literal loop over all alpha * beta *
    gamma root triples (X, Y, Z), three summands per triple."""
    from fractions import Fraction

    from mplkit.symalg import ArgMonomial, Expr, Term, li_factor

    def mono(exps, phase):
        return ArgMonomial(phase, tuple(exps.items()))

    gamma = alpha + beta
    c_xy = Fraction((alpha * beta) ** (n - 2), gamma)
    c_zy = -Fraction((gamma * beta) ** (n - 2), alpha)
    c_zx = Fraction((-gamma * alpha) ** (n - 2), beta)
    ea, eb, eg = Fraction(1, alpha), Fraction(1, beta), Fraction(1, gamma)
    terms = []
    for i in range(alpha):
        for j in range(beta):
            for k in range(gamma):
                pa, pb, pg = Fraction(i, alpha), Fraction(j, beta), Fraction(k, gamma)
                x_root, y_root = mono({"x": ea}, pa), mono({"y": eb}, pb)
                x_over_y = mono({"x": ea, "y": -eb}, pa - pb)
                z_over_y = mono({"x": eg, "y": eg - eb}, pg - pb)
                z_over_x = mono({"x": eg - ea, "y": eg}, pg - pa)
                terms.append(Term(c_xy, (li_factor([n - 1, 1], [x_over_y, y_root]),)))
                terms.append(Term(c_zy, (li_factor([n - 1, 1], [z_over_y, y_root]),)))
                terms.append(Term(c_zx, (li_factor([n - 1, 1], [z_over_x, x_root]),)))
    return Expr.from_terms(terms)


def monomial_mp(m, assignment):
    """An ArgMonomial's principal-branch value in mpmath at the working
    precision: exp(2 pi i phase + sum_v e_v log v)."""
    import mpmath

    z = 2j * mpmath.pi * mpmath.mpf(m.phase.numerator) / m.phase.denominator
    for v, e in m.exponents:
        z += mpmath.mpf(e.numerator) / e.denominator * mpmath.log(mpmath.mpc(assignment[v]))
    return mpmath.exp(z)


def expr_mp(e, assignment, cutoff, dps=30):
    """Sum of an expression's single-factor terms of depth 1 or 2, term by
    term in mpmath at dps digits: each series truncated at outermost index
    `cutoff`, the inner sum carried along the outer loop."""
    import mpmath

    with mpmath.workdps(dps):
        total = mpmath.mpc(0)
        for t in e.terms:
            (f,) = t.factors
            args = [monomial_mp(a, assignment) for a in f.args]
            parts = f.indices.parts
            value, inner = mpmath.mpc(0), mpmath.mpc(0)
            for m in range(1, cutoff + 1):
                if len(parts) == 1:
                    value += args[0] ** m / mpmath.mpf(m) ** parts[0]
                else:  # inner = sum_{m1 < m} a1^m1 / m1^p1
                    value += inner * args[1] ** m / mpmath.mpf(m) ** parts[1]
                    inner += args[0] ** m / mpmath.mpf(m) ** parts[0]
            total += mpmath.mpf(t.coeff.numerator) / t.coeff.denominator * value
        return complex(total)


def orbit_series_direct(parts, orders, w1, w2, cutoff):
    """sum over 1 <= q1, q2 <= cutoff of W1^q1 W2^q2 / ((N1 q1)^a (N1 q1 + N2 q2)^b),
    as a literal double loop."""
    (a, b), (n1, n2) = parts, orders
    total = 0j
    for q1 in range(1, cutoff + 1):
        for q2 in range(1, cutoff + 1):
            total += w1**q1 * w2**q2 / ((n1 * q1) ** a * (n1 * q1 + n2 * q2) ** b)
    return total


def roots_reference(m, r):
    """The r-th roots of a monomial, each built on its own through the
    constructor from the per-root formula phase (phase + j) / r, j = 0..r-1."""
    return [type(m)((m.phase + j) / r, tuple((v, e / r) for v, e in m.exponents)) for j in range(r)]


def isolation_reference(domain, target):
    """The q_s of `construct_preimage`'s slot step by a generic exact solve of
    the Vandermonde system sum_s q_s * (2^{1-m})^s = [m == target]."""
    from fractions import Fraction

    from mplkit import linalg

    nodes = [Fraction(1, 2 ** (m - 1)) for m in domain]
    matrix = [[x**s for s in range(len(nodes))] for x in nodes]
    solution = linalg.solve_exact(matrix, [[int(m == target)] for m in domain])
    return {s: row[0] for s, row in enumerate(solution) if row[0] != 0}


def preimage_reference(weights, args):
    """The preimage built level by level: slots from the last down, each
    level's `root_sum_generator` scaled by its solved q_s, all levels merged
    by one `from_terms` per slot, with the term cap checked as it grows."""
    from mplkit.coalgebra import (
        DEFAULT_TERM_CAP,
        GeneratorCombination,
        GeneratorTerm,
        RootCapExceeded,
        root_sum_generator,
    )

    remaining = sum(weights)
    combo = GeneratorCombination.single(GeneratorTerm(remaining, tuple(args)))
    for slot in range(len(weights), 1, -1):
        domain = list(range(2, remaining - 2 * (slot - 1) + 1))
        target = weights[slot - 1]
        remaining -= target
        if len(domain) == 1:
            continue
        coeffs = isolation_reference(domain, target)
        combo = GeneratorCombination.from_terms(
            (g, q * c)
            for s, q in sorted(coeffs.items())
            for g, c in root_sum_generator(combo, slot, s).terms
        )
        if len(combo.terms) > DEFAULT_TERM_CAP:
            raise RootCapExceeded(f"{len(combo.terms)} terms exceed the cap {DEFAULT_TERM_CAP}")
    return combo
