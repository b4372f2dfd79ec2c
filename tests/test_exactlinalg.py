"""Exact rational rank / determinant helpers."""

from fractions import Fraction

import numpy as np
import pytest

from lcsflow.exactlinalg import (
    fraction_from_string,
    integer_determinant,
    rational_rank,
)


def test_rank_hand_cases():
    assert rational_rank([]) == 0
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 2], [3, 4]]) == 2
    # rational entries that a float threshold would misjudge
    m = [
        [Fraction(1, 3), Fraction(1, 6)],
        [Fraction(2, 3), Fraction(1, 3)],
    ]
    assert rational_rank(m) == 1


def test_rank_matches_numpy_on_random_integer_matrices():
    rng = np.random.default_rng(31)
    for _ in range(40):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        r = int(rng.integers(0, min(rows, cols) + 1))
        # build a matrix of known rank r from small integer factors
        a = rng.integers(-3, 4, size=(rows, r))
        b = rng.integers(-3, 4, size=(r, cols))
        m = (a @ b).tolist()
        expected = np.linalg.matrix_rank(np.array(m, dtype=float)) if r else 0
        got = rational_rank(m)
        assert got == expected


def test_determinant_hand_and_random():
    assert integer_determinant([]) == 1
    assert integer_determinant([[7]]) == 7
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    assert integer_determinant([[2, 0], [0, 3]]) == 6
    # needs a pivot swap partway through
    assert integer_determinant([[1, 2, 3], [2, 4, 7], [0, 1, 1]]) == -1
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = rng.integers(-4, 5, size=(n, n))
        got = integer_determinant(m.tolist())
        expected = round(float(np.linalg.det(m.astype(float))))
        assert got == expected
        assert (got == 0) == (rational_rank(m.tolist()) < n)
    # rank-deficient squares: thin products n x r times r x n, r < n
    for _ in range(40):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n))
        thin = (rng.integers(-4, 5, size=(n, r)) @ rng.integers(-4, 5, size=(r, n))).tolist()
        assert rational_rank(thin) < n
        assert integer_determinant(thin) == 0
    # multiplicativity, exactly, on entries too large for a float det
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = rng.integers(-50, 51, size=(n, n)).astype(object)
        b = rng.integers(-50, 51, size=(n, n)).astype(object)
        det_ab = integer_determinant((a @ b).tolist())
        det_a, det_b = integer_determinant(a.tolist()), integer_determinant(b.tolist())
        assert det_ab == det_a * det_b
        assert (det_ab == 0) == (rational_rank((a @ b).tolist()) < n)


def test_fraction_parsing():
    assert fraction_from_string("3/7") == Fraction(3, 7)
    assert fraction_from_string("-2") == Fraction(-2)
    assert fraction_from_string(" 5/10 ") == Fraction(1, 2)
    assert fraction_from_string(4) == Fraction(4)
    assert fraction_from_string(Fraction(9, 4)) == Fraction(9, 4)
    with pytest.raises(TypeError):
        fraction_from_string(0.5)
    with pytest.raises(ZeroDivisionError):
        fraction_from_string("1/0")
