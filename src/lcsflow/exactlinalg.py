"""Exact linear algebra over the rationals.

Rank certified mod 2^31 - 1, Bareiss when the mod-p rank is deficient;
determinant by Bareiss.

For every prime p, rank mod p <= rank over Q, so a rank mod PRIME equal
to min(rows, cols) is the rank over Q: a nonzero r-minor mod p is a unit
in Z_(p), hence nonzero.  Every other case, and any entry whose
denominator vanishes mod PRIME, goes to Bareiss fraction-free
elimination on integer matrices (rational input is cleared row by row),
whose intermediate divisions are all exact.  Either way the result is
the true rank over Q, independent of any floating threshold.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

# Residues stay below 2^31, so every product of two fits in int64.
PRIME = 2**31 - 1


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


def _residues(matrix, ncols: int) -> np.ndarray | None:
    """The matrix mod PRIME as int64, or None if a denominator vanishes."""
    a = np.zeros((len(matrix), ncols), dtype=np.int64)
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x:
                f = Fraction(x)
                if f.denominator % PRIME == 0:
                    return None
                a[i, j] = f.numerator * pow(f.denominator, -1, PRIME) % PRIME
    return a


def _rank_mod_p(a: np.ndarray) -> int:
    """Rank of a residue matrix over Z/PRIME, by elimination in place."""
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), -1, PRIME) % PRIME
        below = rank + 1 + np.flatnonzero(a[rank + 1:, col])
        if below.size:
            a[below, col:] = (a[below, col:]
                              - a[below, col, None] * a[rank, col:]) % PRIME
        rank += 1
    return rank


def rational_rank(matrix) -> int:
    """Rank over Q of a matrix of Fractions / ints (list of rows)."""
    ncols = len(matrix[0]) if matrix else 0
    full = min(len(matrix), ncols)
    a = _residues(matrix, ncols)
    if a is not None and _rank_mod_p(a) == full:
        return full
    return _bareiss(_clear_rows(matrix))[0]


def integer_determinant(matrix) -> int:
    """Exact determinant of a square integer matrix."""
    m = [[int(x) for x in row] for row in matrix]
    rank, sign, last_pivot = _bareiss(m)
    return sign * last_pivot if rank == len(m) else 0
