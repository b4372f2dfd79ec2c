"""Twisted Betti numbers of torus mapping tori via the Wang model.

For the mapping torus of A acting on T^n, a rank-one local system is
pinned by a positive weight t0 on the base circle, and degree-k twisted
cohomology is built from the fixed spaces of t0 times the induced map on
fiber cohomology: b_k = null(t0 L_k - I) + null(t0 L_{k-1} - I) with
L_k the k-th exterior power of A^T.  These dims alternate to 0 for any
nullities, so chi = 0 and the example identity b2 = b1 + b3 - b0 - b4
(the same alternating sum) hold by construction and check no nullity.
Rational t0 is handled by the exact ranks of `exactlinalg` (certified
mod 2^31 - 1, with Bareiss elimination as the fallback); float t0 goes
through an SVD with a fixed relative threshold that refuses to guess
near the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .exactlinalg import integer_determinant, rational_rank
from .simplicial import TwistedBettiResult

SVD_NULL_THRESHOLD = 1e-9
SVD_AMBIGUOUS_BAND = (1e-11, 1e-7)


class SingularThresholdAmbiguous(ArithmeticError):
    """A relative singular value landed too close to the null cutoff."""


class WrongDimension(ValueError):
    """Result does not have degrees 0..4."""


def exterior_power(matrix, k: int) -> list[list[int]]:
    """k-th exterior power of an integer matrix, entries as exact minors.

    Rows and columns are indexed by lex-sorted k-element subsets; the
    (I, J) entry is the minor on rows I and columns J.  k = 0 gives the
    1x1 identity.
    """
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if k < 0 or k > n:
        raise ValueError(f"exterior power degree {k} out of range 0..{n}")
    if k == 0:
        return [[1]]
    subsets = list(combinations(range(n), k))
    out = []
    for rows in subsets:
        out.append(
            [
                integer_determinant([[m[i][j] for j in cols] for i in rows])
                for cols in subsets
            ]
        )
    return out


def _nullity_rational(lk, t0: Fraction) -> int:
    d = len(lk)
    mat = [
        [t0 * lk[i][j] - (1 if i == j else 0) for j in range(d)]
        for i in range(d)
    ]
    return d - rational_rank(mat)


def _nullity_float(lk, t0: float) -> int:
    arr = t0 * np.asarray(lk, dtype=float) - np.eye(len(lk))
    s = np.linalg.svd(arr, compute_uv=False)
    smax = s.max()
    if smax == 0.0:
        return len(lk)
    rel = s / smax
    lo, hi = SVD_AMBIGUOUS_BAND
    bad = rel[(rel > lo) & (rel < hi)]
    if bad.size:
        raise SingularThresholdAmbiguous(
            f"relative singular value {bad[0]:.3e} inside ({lo:g}, {hi:g}); "
            "cannot classify null space reliably"
        )
    return int(np.count_nonzero(rel < SVD_NULL_THRESHOLD))


def mapping_torus_betti(matrix, t0) -> TwistedBettiResult:
    """Twisted Betti numbers of the mapping torus of an integer matrix.

    The one check of its input (ValueError): matrix must be invertible
    over the integers (|det| = 1) and t0 a positive base-circle weight.
    Fraction/int/"p/q" strings are computed exactly, finite floats via
    thresholded SVD (SingularThresholdAmbiguous when a singular value is
    too close to the cutoff to call) if t0 L_k fits in floats.
    """
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if abs(integer_determinant(m)) != 1:
        raise ValueError("matrix is not invertible over the integers")
    exact = not isinstance(t0, float)
    t0_val = Fraction(t0) if exact else float(t0)
    if not 0 < t0_val < np.inf:
        raise ValueError(f"t0 must be positive and finite, got {t0_val}")
    at = [list(col) for col in zip(*m)]
    powers = [exterior_power(at, k) for k in range(n + 1)]
    if exact:
        nullities = [_nullity_rational(lk, t0_val) for lk in powers]
    else:
        big = max(abs(x) for lk in powers for row in lk for x in row)
        if Fraction(t0_val) * big > np.finfo(float).max:
            raise ValueError("t0 times an exterior power of the matrix "
                             "overflows a float; give t0 exactly")
        nullities = [_nullity_float(lk, t0_val) for lk in powers]

    dims = tuple(
        (nullities[k] if k <= n else 0) + (nullities[k - 1] if k >= 1 else 0)
        for k in range(n + 2)
    )
    return TwistedBettiResult(
        dims=dims,
        chi=0,
        trivial_system=(t0_val == 1),
    )


@dataclass
class ExampleInequalityVerdict:
    """Outcome of the 4-manifold middle-degree lower-bound check."""

    dims: tuple[int, ...]
    chi_is_zero: bool
    identity_holds: bool
    hypotheses_met: bool
    b2_at_least_two: bool


def example_inequality_check(result: TwistedBettiResult) -> ExampleInequalityVerdict:
    """Check b2 = b1 + b3 - b0 - b4 on a 4-dimensional chi = 0 result.

    When additionally b0 = b4 = 0 and b1, b3 >= 1, the identity forces
    b2 >= 2; the verdict records whether that conclusion applies.
    Results with chi != 0 are rejected (identity not asserted); results
    without degrees 0..4 raise WrongDimension.
    """
    if len(result.dims) != 5:
        raise WrongDimension(
            f"need degrees 0..4, got {len(result.dims)} dimensions"
        )
    b0, b1, b2, b3, b4 = result.dims
    chi_is_zero = result.chi == 0 and result.euler_alternating_sum == 0
    identity = chi_is_zero and b2 == b1 + b3 - b0 - b4
    hypotheses = chi_is_zero and b0 == 0 and b4 == 0 and b1 >= 1 and b3 >= 1
    return ExampleInequalityVerdict(result.dims, chi_is_zero, identity,
                                    hypotheses, identity and hypotheses)


def hyperbolic_example() -> tuple[list[list[int]], float]:
    """Hyperbolic T^3 mapping torus probe: companion matrix of x^3 - x^2 - 1.

    The weight 1/lambda (lambda the real root) pins the expanding
    eigenline, giving dims (0, 1, 1, 0, 0).
    """
    a = [[0, 0, 1], [1, 0, 0], [0, 1, 1]]
    lam = max(np.roots([1, -1, 0, -1]).real)
    return a, 1.0 / float(lam)


def toral_product_example() -> tuple[list[list[int]], float]:
    """Cat-map times circle probe with weight at the small eigenvalue.

    Eigenvalue 1 of the third factor doubles the middle fixed spaces,
    giving dims (0, 1, 2, 1, 0) -- the case where the middle-degree
    bound b2 >= 2 is actually triggered.
    """
    a = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
    return a, float((3.0 - np.sqrt(5.0)) / 2.0)
