from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mplkit.linalg import SingularMatrix, invert_exact, solve_exact


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(Fraction(a[i][t]) * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def test_invert_small():
    m = [[2, -1], [1, -2]]
    inv = invert_exact(m)
    assert inv == [
        [Fraction(2, 3), Fraction(-1, 3)],
        [Fraction(1, 3), Fraction(-2, 3)],
    ]


def test_inverse_roundtrip_with_fractions():
    m = [
        [Fraction(1, 2), Fraction(1, 3), 0],
        [1, Fraction(-2, 7), 4],
        [0, 5, Fraction(9, 11)],
    ]
    inv = invert_exact(m)
    prod = matmul(m, inv)
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert prod == eye


def test_solve_vandermonde():
    nodes = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    matrix = [[x**s for s in range(3)] for x in nodes]
    rhs = [[Fraction(1)], [Fraction(0)], [Fraction(0)]]
    sol = solve_exact(matrix, rhs)
    for row, x in zip(matrix, nodes):
        value = sum(c * q[0] for c, q in zip(row, sol))
        assert value == (1 if x == Fraction(1, 2) else 0)


def test_singular_detected():
    with pytest.raises(SingularMatrix):
        invert_exact([[1, 2], [2, 4]])


def test_pivoting_handles_zero_leading_entry():
    m = [[0, 1], [1, 0]]
    assert invert_exact(m) == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]


def test_rhs_rows_of_unequal_width_are_refused():
    for rhs in ([[1], [3, 4]], [[1, 2], [3]]):  # a long row, a short row
        with pytest.raises(ValueError, match="^rhs rows must all have the same width$"):
            solve_exact([[1, 0], [0, 1]], rhs)


def test_float_entries_are_refused():
    with pytest.raises(TypeError, match="exact rational required, got float 0.1"):
        solve_exact([[0.1]], [[1]])
    with pytest.raises(TypeError, match="exact rational required, got float 0.5"):
        solve_exact([[1]], [[0.5]])
    with pytest.raises(TypeError, match="exact rational required, got float 2.0"):
        invert_exact([[2.0]])


def test_zero_by_zero_and_zero_width():
    assert solve_exact([], []) == []
    assert solve_exact([[2, 1], [1, 1]], [[], []]) == [[], []]


# ---------------------------------------------------------------------------
# properties on small rational matrices

_ENTRY = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _nonsingular(draw):
    """P L U with L unit lower and U upper triangular on a nonzero diagonal;
    every nonsingular matrix has this form, so the strategy reaches them all."""
    n = draw(st.integers(1, 5))
    low = [[Fraction(int(i == j)) if j >= i else draw(_ENTRY) for j in range(n)] for i in range(n)]
    up = [
        [draw(_ENTRY.filter(bool)) if j == i else draw(_ENTRY) if j > i else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    return draw(st.permutations(matmul(low, up)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_nonsingular(), st.data())
def test_solve_and_invert_are_exact(a, data):
    n = len(a)
    b = data.draw(st.lists(st.lists(_ENTRY, min_size=2, max_size=2), min_size=n, max_size=n))
    assert matmul(a, solve_exact(a, b)) == b
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert matmul(invert_exact(a), a) == eye


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n),
        st.integers(0, n - 1),
        st.integers(1, n - 1),
    )
))
def test_repeated_row_is_singular(case):
    rows, i, shift = case
    rows[(i + shift) % len(rows)] = list(rows[i])  # a copy of row i in another row
    with pytest.raises(SingularMatrix):
        invert_exact(rows)
    with pytest.raises(SingularMatrix):
        solve_exact(rows, [[Fraction(1)] for _ in rows])
