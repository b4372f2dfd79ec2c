"""Exact linear algebra over the rationals.

Rank and determinant come from one elimination, Bareiss fraction-free
elimination on integer matrices (rational input is cleared row by row),
so every intermediate division is exact and the result is the true rank
over Q, independent of any floating threshold.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _clear_rows(matrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    rows = []
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
        rows.append([int(f * mult) for f in fracs])
    return rows


def _bareiss(m: list[list[int]]) -> tuple[int, int, int]:
    """Bareiss elimination of integer rows in place.

    Returns (rank, swap_sign, last_pivot); for a square matrix of full
    rank, swap_sign * last_pivot is its determinant.
    """
    if not m or not m[0]:
        return 0, 1, 1
    nrows, ncols = len(m), len(m[0])
    rank = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank, sign, prev


def rational_rank(matrix) -> int:
    """Rank over Q of a matrix of Fractions / ints (list of rows)."""
    return _bareiss(_clear_rows(matrix))[0]


def integer_determinant(matrix) -> int:
    """Exact determinant of a square integer matrix."""
    m = [[int(x) for x in row] for row in matrix]
    rank, sign, last_pivot = _bareiss(m)
    return sign * last_pivot if rank == len(m) else 0


def fraction_from_string(s) -> Fraction:
    """Parse "p/q" / "p" / int into an exact Fraction (floats rejected)."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s.strip())
    raise TypeError(f"cannot parse {s!r} as an exact rational")
