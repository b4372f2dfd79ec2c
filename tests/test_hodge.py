"""Per-mode twisted Hodge decomposition and the primitive solver."""

import numpy as np
import pytest

from lcsflow.forms import (
    DiffForm,
    GridSpec,
    form_from_components,
    l2_inner,
    random_band_limited,
)
from lcsflow.twisted import (
    d_theta,
    d_theta_star,
    hodge_decompose,
    solve_primitive,
)

THETAS_4 = [
    np.zeros(4),
    np.array([0.0, 0.0, 0.0, 1.0]),
    np.array([0.7, -0.2, 1.3, 0.05]),
]


def test_decomposition_reconstructs_and_is_orthogonal():
    rng = np.random.default_rng(20)
    g = GridSpec(4, 8)
    for theta in THETAS_4:
        for k in (1, 2, 3):
            a = random_band_limited(g, k, 2, rng)
            h, ex, co = hodge_decompose(a, theta)
            recon = h + ex + co
            assert (recon - a).norm() < 1e-10 * max(1.0, a.norm())
            # pairwise L2 orthogonality
            assert abs(l2_inner(h, ex)) < 1e-9
            assert abs(l2_inner(h, co)) < 1e-9
            assert abs(l2_inner(ex, co)) < 1e-9


def test_decomposition_pieces_live_in_the_right_spaces():
    rng = np.random.default_rng(21)
    g = GridSpec(4, 8)
    theta = np.array([0.0, 0.3, 0.0, -1.0])
    a = random_band_limited(g, 2, 2, rng)
    h, ex, co = hodge_decompose(a, theta)
    # harmonic part killed by both operators
    assert d_theta(h, theta).norm() < 1e-10
    assert d_theta_star(h, theta).norm() < 1e-10
    # exact part killed by d_theta, coexact by d_theta*
    assert d_theta(ex, theta).norm() < 1e-9
    assert d_theta_star(co, theta).norm() < 1e-9


def test_nonzero_theta_leaves_no_harmonic_part():
    rng = np.random.default_rng(22)
    g = GridSpec(4, 8)
    a = random_band_limited(g, 2, 2, rng)
    h, _, _ = hodge_decompose(a, np.array([0.0, 0.0, 0.0, 0.5]))
    assert h.norm() == 0.0
    h0, _, _ = hodge_decompose(a, np.zeros(4))
    # theta = 0: harmonic part = componentwise means, generically nonzero
    assert h0.norm() > 0.0


def test_solve_primitive_forward_round_trip():
    rng = np.random.default_rng(23)
    g = GridSpec(4, 8)
    for theta in THETAS_4:
        alpha = random_band_limited(g, 1, 2, rng)
        target = d_theta(alpha, theta)
        sol = solve_primitive(target, theta)
        back = d_theta(sol.primitive, theta)
        assert (back - target).norm() < 1e-9 * max(1.0, target.norm())
        assert sol.residual < 1e-9
        assert sol.harmonic_part_norm < 1e-9 * max(1.0, target.norm())
        # the returned primitive is the coexact representative
        assert d_theta_star(sol.primitive, theta).norm() < 1e-9


def test_solve_primitive_reports_obstruction():
    g = GridSpec(4, 8)
    # constant 2-form: harmonic when theta = 0
    target = form_from_components(g, 2, {(0, 1): 1.0})
    sol = solve_primitive(target, np.zeros(4))
    assert sol.harmonic_part_norm == pytest.approx(1.0, rel=1e-12)
    assert sol.primitive.norm() < 1e-12
    # for theta = dx3 the constant dx1^dx3 equals d_theta(dx1): solvable
    sol2 = solve_primitive(form_from_components(g, 2, {(0, 2): 1.0}),
                           np.array([0.0, 0.0, 1.0, 0.0]))
    assert sol2.harmonic_part_norm < 1e-12
    assert sol2.residual < 1e-12


def test_solve_primitive_zero_target():
    g = GridSpec(2, 8)
    sol = solve_primitive(DiffForm(g, 2), np.zeros(2))
    assert sol.primitive.norm() == 0.0
    assert sol.residual == 0.0

