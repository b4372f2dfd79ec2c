"""Mapping-torus twisted Betti numbers from exterior powers of the monodromy."""

from fractions import Fraction

import numpy as np
import pytest

from lcsflow.mapping_torus import (
    SingularThresholdAmbiguous,
    WrongDimension,
    example_inequality_check,
    exterior_power,
    hyperbolic_example,
    mapping_torus_betti,
    toral_product_example,
)
from lcsflow.simplicial import TwistedBettiResult


def test_exterior_power_small_cases():
    a = [[1, 2], [3, 4]]
    assert exterior_power(a, 0) == [[1]]
    assert exterior_power(a, 1) == a
    assert exterior_power(a, 2) == [[-2]]  # the determinant
    with pytest.raises(ValueError):
        exterior_power(a, 3)
    with pytest.raises(ValueError):
        exterior_power([[1, 2, 3], [4, 5, 6]], 1)


def test_exterior_power_is_multiplicative():
    rng = np.random.default_rng(50)
    for _ in range(10):
        a = rng.integers(-3, 4, size=(4, 4))
        b = rng.integers(-3, 4, size=(4, 4))
        for k in (2, 3):
            lhs = np.array(exterior_power((a @ b).tolist(), k))
            rhs = np.array(exterior_power(a.tolist(), k)) @ np.array(
                exterior_power(b.tolist(), k)
            )
            assert np.array_equal(lhs, rhs)


def test_trivial_monodromy_gives_torus_betti():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    res = mapping_torus_betti(eye, Fraction(1))
    # T^3 x S^1 = T^4
    assert res.dims == (1, 4, 6, 4, 1)
    assert res.trivial_system
    assert res.euler_alternating_sum == 0
    # any weight != 1 on the circle kills everything
    res2 = mapping_torus_betti(eye, Fraction(3, 2))
    assert res2.dims == (0, 0, 0, 0, 0)


def test_cat_map_exact_weight_one():
    cat = [[2, 1], [1, 1]]
    res = mapping_torus_betti(cat, 1)
    # fixed vectors: only multiples of nothing in deg 1 (A - I invertible),
    # but deg 0 and deg 2 are fixed, so (1, 1, 1, 1)
    assert res.dims == (1, 1, 1, 1)
    assert res.euler_alternating_sum == 0


def test_string_and_fraction_weights_agree():
    a = [[0, 0, 1], [1, 0, 0], [0, 1, 1]]
    assert mapping_torus_betti(a, "2/3").dims == mapping_torus_betti(a, Fraction(2, 3)).dims


def test_hyperbolic_example_dims_and_conclusion():
    a, t0 = hyperbolic_example()
    res = mapping_torus_betti(a, t0)
    assert res.dims == (0, 1, 1, 0, 0)
    verdict = example_inequality_check(res)
    assert verdict.identity_holds
    # b3 = 0: the b2 >= 2 hypotheses do not apply here
    assert not verdict.hypotheses_met
    assert not verdict.b2_at_least_two


def test_toral_product_example_triggers_middle_bound():
    a, t0 = toral_product_example()
    res = mapping_torus_betti(a, t0)
    assert res.dims == (0, 1, 2, 1, 0)
    verdict = example_inequality_check(res)
    assert verdict.identity_holds
    assert verdict.hypotheses_met
    assert verdict.b2_at_least_two
    assert res.dims[2] >= 2


def test_wrong_dimension_rejected():
    res = mapping_torus_betti([[2, 1], [1, 1]], 1)
    with pytest.raises(WrongDimension):
        example_inequality_check(res)


def test_nonzero_chi_result_not_asserted():
    fake = TwistedBettiResult(dims=(1, 0, 0, 0, 0), chi=1)
    verdict = example_inequality_check(fake)
    assert not verdict.chi_is_zero
    assert not verdict.identity_holds


def test_non_unimodular_matrix_rejected():
    with pytest.raises(ValueError):
        mapping_torus_betti([[2, 0], [0, 1]], 1)
    with pytest.raises(ValueError):
        mapping_torus_betti([[1, 0], [0, 1]], Fraction(-1))


def test_float_weight_near_eigenvalue_refuses_to_guess():
    a = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
    lam_small = (3.0 - np.sqrt(5.0)) / 2.0
    # nudge the weight just off the eigenvalue: relative singular value
    # lands inside the ambiguity band and the SVD path must refuse
    with pytest.raises(SingularThresholdAmbiguous):
        mapping_torus_betti(a, lam_small * (1.0 + 1e-9))


def test_float_and_exact_agree_away_from_spectrum():
    a = [[0, 0, 1], [1, 0, 0], [0, 1, 1]]
    assert mapping_torus_betti(a, 0.37).dims == mapping_torus_betti(a, Fraction(37, 100)).dims
    assert mapping_torus_betti(a, 1.0).dims == mapping_torus_betti(a, 1).dims
