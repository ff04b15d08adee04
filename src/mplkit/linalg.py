"""Exact linear solves by one fraction-free (Bareiss) Gauss-Jordan pass."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .symalg import _as_fraction

__all__ = ["SingularMatrix", "invert_exact", "solve_exact"]


class SingularMatrix(ArithmeticError):
    """The matrix has no inverse; treated as a fatal internal error here."""


def _clear_rows(matrix: Sequence[Sequence], rhs: Sequence[Sequence]) -> list[list[int]]:
    """The rows [A | B], each scaled by its denominator lcm to integers."""
    rows = []
    for arow, brow in zip(matrix, rhs):
        fr = [_as_fraction(v) for v in (*arow, *brow)]
        mult = math.lcm(*(v.denominator for v in fr))
        rows.append([v.numerator * (mult // v.denominator) for v in fr])
    return rows


def solve_exact(
    matrix: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Sequence[Fraction | int]],
) -> list[list[Fraction]]:
    """Solve A X = B exactly; B and X are lists of rows of one width.
    Raises SingularMatrix when A has no inverse.

    Bareiss' fraction-free scheme, eliminating above and below each pivot:
    on the integral rows [A | B] every intermediate entry is a minor, so
    each `// prev` is exact.  The pass turns A into d * I, d the last pivot,
    so each solution entry is one Fraction(b, d); the columns left of the
    pivot, zero but for each row's diagonal, are not carried along.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("rhs must have one row per matrix row")
    if len({len(row) for row in rhs}) > 1:
        raise ValueError("rhs rows must all have the same width")
    rows = _clear_rows(matrix, rhs)

    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix(f"no pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        tail = rows[col][col:]
        pivot = tail[0]
        for r, row in enumerate(rows):
            if r != col:
                factor = row[col]
                row[col:] = [(pivot * v - factor * p) // prev for v, p in zip(row[col:], tail)]
        prev = pivot
    return [[Fraction(v, prev) for v in row[n:]] for row in rows]


def invert_exact(matrix: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    n = len(matrix)
    return solve_exact(matrix, [[int(i == j) for j in range(n)] for i in range(n)])
