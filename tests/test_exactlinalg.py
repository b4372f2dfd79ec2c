"""Exact rational rank / determinant helpers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcsflow import exactlinalg
from lcsflow.exactlinalg import (
    PRIME,
    _bareiss,
    _clear_rows,
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


def _bareiss_rank(m):
    return _bareiss(_clear_rows(m))[0]


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Count the calls rational_rank makes to the Bareiss fallback."""
    calls = []

    def counted(m):
        calls.append(m)
        return _bareiss(m)

    monkeypatch.setattr(exactlinalg, "_bareiss", counted)
    return calls


@pytest.mark.parametrize("m, rank", [
    ([[PRIME]], 1),
    ([[1, 0], [0, PRIME]], 2),
    ([[1, 2], [3, 6 + PRIME]], 2),
    ([[Fraction(1, PRIME)]], 1),
    ([[Fraction(1, PRIME), 1], [0, 1]], 2),
    ([[Fraction(1, 2 * PRIME), 1], [1, 2 * PRIME]], 1),
], ids=["p", "diag_1_p", "minor_p", "inverse_p", "inverse_p_2x2", "rank_1_p"])
def test_ranks_the_prime_cannot_see_fall_back_to_bareiss(m, rank, bareiss_calls):
    # full rank over Q but singular mod p, or a denominator that vanishes
    # mod p: the modular rank certifies nothing, so Bareiss decides
    assert rational_rank(m) == _bareiss_rank(m) == rank
    assert len(bareiss_calls) == 1


@pytest.mark.parametrize("m, rank", [
    ([[10**40, 1], [1, 0]], 2),
    ([[10**40, 10**41], [1, 10]], 1),
    ([[Fraction(10**40, 3), Fraction(1, 10**30)], [Fraction(-7, 11), 0]], 2),
], ids=["big_full", "big_deficient", "big_fractions"])
def test_entries_beyond_int64_give_the_bareiss_rank(m, rank, bareiss_calls):
    assert rational_rank(m) == _bareiss_rank(m) == rank
    # only a deficient modular rank reaches the fallback
    assert len(bareiss_calls) == (rank < min(len(m), len(m[0])))


def test_a_full_modular_rank_is_returned_without_bareiss(bareiss_calls):
    assert rational_rank([[1, 2, 3], [4, 5, 6]]) == 2
    assert rational_rank([[Fraction(1, 3)], [Fraction(-2, 7)], [0]]) == 1
    assert rational_rank([]) == 0
    assert not bareiss_calls
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert len(bareiss_calls) == 1


_entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)


@st.composite
def _products(draw, deficient: bool):
    """B @ C with B rows x inner, C inner x cols.

    deficient: inner < min(rows, cols), so the rank is at most inner and
    the modular rank cannot certify it.  Otherwise B has a unit
    lower-triangular top block and C an upper-triangular left block with
    nonzero diagonal, so the product has rank min(rows, cols) and the
    certificate decides.
    """
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if deficient:
        inner = draw(st.integers(0, min(rows, cols) - 1))
        b = draw(st.lists(st.lists(_entries, min_size=inner, max_size=inner),
                          min_size=rows, max_size=rows))
        c = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
    else:
        inner = min(rows, cols)
        b = [[int(i == j) if i <= j else draw(_entries) for j in range(inner)]
             for i in range(rows)]
        c = [[draw(_entries.filter(bool)) if i == j else 0 if j < i else draw(_entries)
              for j in range(cols)] for i in range(inner)]
    m = [[sum(b[i][k] * c[k][j] for k in range(inner))
          for j in range(cols)] for i in range(rows)]
    return m, inner


@given(_products(deficient=True))
def test_rank_matches_bareiss_on_thin_products(case):
    m, inner = case
    assert rational_rank(m) == _bareiss_rank(m) <= inner


@given(_products(deficient=False))
def test_rank_matches_bareiss_on_full_rank_products(case):
    m, inner = case
    assert rational_rank(m) == _bareiss_rank(m) == inner


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
