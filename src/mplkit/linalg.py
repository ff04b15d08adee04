"""Exact linear solves via fraction-free (Bareiss) Gaussian elimination."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = ["SingularMatrix", "invert_exact", "solve_exact"]


class SingularMatrix(ArithmeticError):
    """The matrix has no inverse; treated as a fatal internal error here."""


def _clear_rows(
    matrix: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Sequence[Fraction | int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Scale each row by its denominator lcm so elimination stays integral."""
    a_rows, b_rows = [], []
    for arow, brow in zip(matrix, rhs):
        fr = [Fraction(v) for v in arow] + [Fraction(v) for v in brow]
        mult = math.lcm(*(v.denominator for v in fr))
        ints = [int(v * mult) for v in fr]
        a_rows.append(ints[: len(arow)])
        b_rows.append(ints[len(arow):])
    return a_rows, b_rows


def solve_exact(
    matrix: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Sequence[Fraction | int]],
) -> list[list[Fraction]]:
    """Solve A X = B exactly; B is given and returned column-major-free
    (list of rows).  Raises SingularMatrix when A has no inverse.

    Forward elimination is Bareiss' fraction-free scheme: after clearing
    denominators all intermediate entries are integers (subdeterminants),
    so no rational arithmetic happens until back substitution.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("rhs must have one row per matrix row")
    width = len(rhs[0]) if n else 0
    a, b = _clear_rows(matrix, rhs)

    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix(f"no pivot in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col]
            for c in range(col, n):
                a[r][c] = (pivot * a[r][c] - factor * a[col][c]) // prev
            for c in range(width):
                b[r][c] = (pivot * b[r][c] - factor * b[col][c]) // prev
        prev = pivot

    x = [[Fraction(0)] * width for _ in range(n)]
    for r in range(n - 1, -1, -1):
        for c in range(width):
            s = Fraction(b[r][c])
            for k in range(r + 1, n):
                s -= a[r][k] * x[k][c]
            x[r][c] = s / a[r][r]
    return x


def invert_exact(matrix: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    n = len(matrix)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return solve_exact(matrix, eye)
