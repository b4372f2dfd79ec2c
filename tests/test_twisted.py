"""Twisted differential, Lee form extraction and lcs validation."""

import numpy as np
import pytest

from lcsflow.forms import (
    DiffForm,
    GridSpec,
    basis_form,
    ext_d,
    form_from_components,
    l2_inner,
    random_band_limited,
    scalar_form,
)
from lcsflow.twisted import (
    DegenerateForm,
    LeeForm,
    NonPositiveFunction,
    NotClosed,
    NotLcs,
    conformal_rescale,
    d_theta,
    d_theta_star,
    gauge_normalize,
    laplacian_theta,
    lee_form,
    pfaffian_values,
    split_harmonic_exact,
    torus_twisted_betti,
    validate_lcs,
)

TWO_PI = 2.0 * np.pi


def contact_like_form(grid, s=0.0, c=1.0):
    """dη - c dx4 ^ η for η = cos(u) dx2 + sin(u) dx3, u = 2 pi x1 + s."""
    x1 = grid.coordinates()[0]
    u = TWO_PI * x1 + s
    return form_from_components(grid, 2, {
        (0, 1): -TWO_PI * np.sin(u),
        (0, 2): TWO_PI * np.cos(u),
        (1, 3): c * np.cos(u),
        (2, 3): c * np.sin(u),
    })


def test_d_theta_squared_zero_constant_theta():
    rng = np.random.default_rng(10)
    g = GridSpec(4, 8)
    theta = np.array([0.3, -1.2, 0.0, 2.0])
    for k in (0, 1, 2):
        a = random_band_limited(g, k, 2, rng)
        dda = d_theta(d_theta(a, theta), theta)
        assert dda.norm() < 1e-10


def test_d_theta_squared_zero_closed_nonconstant_theta():
    rng = np.random.default_rng(11)
    g = GridSpec(3, 16)
    pot = random_band_limited(g, 0, 1, rng, 0.5).comps[0]
    theta = LeeForm(g, np.array([0.7, 0.0, -0.4]), pot).one_form()
    a = random_band_limited(g, 1, 2, rng)
    assert d_theta(d_theta(a, theta), theta).norm() < 1e-10


def test_d_theta_squared_detects_non_closed_theta():
    g = GridSpec(2, 16)
    x1, _ = g.coordinates()
    theta = form_from_components(g, 1, {(1,): np.sin(TWO_PI * x1)})  # d theta != 0
    a = scalar_form(g, np.cos(TWO_PI * x1))
    assert d_theta(d_theta(a, theta), theta).norm() > 1e-3


def test_adjointness_of_twisted_codifferential():
    rng = np.random.default_rng(12)
    g = GridSpec(4, 8)
    theta = np.array([1.0, 0.5, 0.0, -0.3])
    for k in (0, 1, 2):
        a = random_band_limited(g, k, 2, rng)
        b = random_band_limited(g, k + 1, 2, rng)
        lhs = l2_inner(d_theta(a, theta), b)
        rhs = l2_inner(a, d_theta_star(b, theta))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_laplacian_positive_semidefinite():
    rng = np.random.default_rng(13)
    g = GridSpec(3, 8)
    theta = np.array([0.2, 0.0, 1.1])
    a = random_band_limited(g, 1, 2, rng)
    val = l2_inner(laplacian_theta(a, theta), a)
    expand = (d_theta(a, theta).norm() ** 2
              + d_theta_star(a, theta).norm() ** 2)
    assert val == pytest.approx(expand, rel=1e-10)
    assert val >= 0.0


def test_split_harmonic_exact_recovers_parts():
    g = GridSpec(3, 16)
    x2 = g.coordinates()[1]
    pot = 0.3 * np.sin(TWO_PI * x2)
    pot -= pot.mean()
    theta = LeeForm(g, np.array([0.5, -1.0, 0.0]), pot).one_form()
    c, pot_back, residual = split_harmonic_exact(theta)
    np.testing.assert_allclose(c, [0.5, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pot_back, pot, atol=1e-12)
    assert residual < 1e-12
    # exact zeros in the harmonic part are snapped, not left as 1e-17 noise
    assert c[2] == 0.0


def test_split_harmonic_exact_rejects_non_closed():
    g = GridSpec(2, 16)
    x1, _ = g.coordinates()
    bad = form_from_components(g, 1, {(1,): np.sin(TWO_PI * x1)})
    with pytest.raises(NotClosed):
        split_harmonic_exact(bad)


def test_pfaffian_values_t4():
    g = GridSpec(4, 8)
    w = basis_form(g, (0, 1)) + basis_form(g, (2, 3), 2.0)
    np.testing.assert_allclose(pfaffian_values(w), 2.0)
    # the Pfaffian squares to det
    c = contact_like_form(g, s=0.1, c=1.5)
    pf = pfaffian_values(c)
    np.testing.assert_allclose(pf, -TWO_PI * 1.5, atol=1e-12)


def test_lee_extraction_contact_fixture():
    g = GridSpec(4, 16)
    c = 0.8
    w = contact_like_form(g, s=0.3, c=c)
    lee, diag = lee_form(w)
    np.testing.assert_allclose(lee.harmonic, [0.0, 0.0, 0.0, c], atol=1e-9)
    assert np.max(np.abs(lee.potential)) < 1e-9
    assert diag["lcs_residual"] < 1e-9


def test_lee_extraction_conformal_symplectic():
    # f * (standard symplectic) has theta = d log f, detected exactly
    g = GridSpec(4, 16)
    x1 = g.coordinates()[0]
    logf = 0.2 * np.sin(TWO_PI * x1)
    base = basis_form(g, (0, 1)) + basis_form(g, (2, 3))
    w = DiffForm(g, 2, base.comps * np.exp(logf)[None])
    lee, _ = lee_form(w)
    np.testing.assert_allclose(lee.harmonic, 0.0, atol=1e-9)
    np.testing.assert_allclose(lee.potential, logf - logf.mean(), atol=1e-7)


def test_lee_extraction_degenerate_input():
    g = GridSpec(4, 8)
    x1 = g.coordinates()[0]
    w = DiffForm(g, 2, (basis_form(g, (0, 1)) + basis_form(g, (2, 3))).comps
                 * np.sin(TWO_PI * x1)[None])  # vanishes on a hypersurface
    with pytest.raises(DegenerateForm):
        lee_form(w)


def test_lee_extraction_rejects_non_lcs():
    # generic nondegenerate but non-lcs 2-form on T^4
    rng = np.random.default_rng(14)
    g = GridSpec(4, 8)
    w = basis_form(g, (0, 1)) + basis_form(g, (2, 3))
    w = w + random_band_limited(g, 2, 1, rng, 0.2)
    with pytest.raises(NotLcs):
        lee_form(w)


def test_lee_form_on_t2_is_zero_by_convention():
    # in two dimensions the defining equation is vacuous; the extractor
    # returns theta = 0 and flags the form as globally symplectic
    g = GridSpec(2, 16)
    x1, _ = g.coordinates()
    w = form_from_components(g, 2, {(0, 1): np.exp(0.3 * np.sin(TWO_PI * x1))})
    lee, _ = lee_form(w)
    assert lee.is_zero


def test_validate_lcs_and_gauge_normalize_round_trip():
    g = GridSpec(4, 16)
    x2 = g.coordinates()[1]
    base = contact_like_form(g, s=0.0, c=1.0)
    f = np.exp(0.25 * np.sin(TWO_PI * x2))
    L0 = validate_lcs(base)
    L1 = conformal_rescale(L0, f)
    assert L1.lee.one_form().norm() > 0
    back, f_norm = gauge_normalize(L1)
    assert back.lee.is_constant
    np.testing.assert_allclose(back.omega.comps, base.comps, atol=1e-7)
    np.testing.assert_allclose(f_norm * f, 1.0, atol=1e-7)


def test_conformal_rescale_rejects_nonpositive():
    g = GridSpec(4, 8)
    L = validate_lcs(contact_like_form(g))
    with pytest.raises(NonPositiveFunction):
        conformal_rescale(L, -1.0)


def test_torus_twisted_betti():
    g4 = GridSpec(4, 8)
    assert torus_twisted_betti(np.zeros(4), g4) == (1, 4, 6, 4, 1)
    assert torus_twisted_betti(np.array([0.0, 0.0, 0.3, 0.0]), g4) == (0, 0, 0, 0, 0)
    g2 = GridSpec(2, 8)
    assert torus_twisted_betti(np.zeros(2), g2) == (1, 2, 1)
    # 2 pi i m never cancels a real constant, so any nonzero theta kills H*
    assert torus_twisted_betti(np.array([1e-3, 0.0]), g2) == (0, 0, 0)


def test_chain_map_under_conformal_change():
    rng = np.random.default_rng(15)
    g = GridSpec(4, 16)
    a = random_band_limited(g, 1, 2, rng)
    theta = LeeForm.constant(g, [0.4, 0.0, -1.0, 0.2]).one_form()
    g0 = random_band_limited(g, 0, 1, rng, 0.05).comps[0]
    f = np.exp(g0)
    lhs = d_theta(DiffForm(g, 1, a.comps * f[None]),
                  theta + ext_d(scalar_form(g, g0)))
    rhs = DiffForm(g, 2, d_theta(a, theta).comps * f[None])
    assert (lhs - rhs).norm() < 1e-9 * max(1.0, rhs.norm())
