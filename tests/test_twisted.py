"""Twisted differential, Lee form extraction and lcs validation."""

import numpy as np
import pytest

from lcsflow.families import FormFamily
from lcsflow.forms import (
    DiffForm,
    GridSpec,
    ext_d,
    form_from_components,
    l2_inner,
    random_band_limited,
    scalar_form,
)
from lcsflow.moser import normalize_family
from lcsflow.twisted import (
    DegenerateForm,
    LeeForm,
    NotLcs,
    _harmonic_and_potential,
    d_theta,
    d_theta_star,
    lee_form,
    pfaffian_values,
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


def test_split_harmonic_exact_recovers_parts():
    # the harmonic + exact split that lee_form applies to a closed theta
    g = GridSpec(3, 16)
    x2 = g.coordinates()[1]
    pot = 0.3 * np.sin(TWO_PI * x2)
    pot -= pot.mean()
    theta = LeeForm(g, np.array([0.5, -1.0, 0.0]), pot).one_form()
    c, pot_back = _harmonic_and_potential(theta)
    np.testing.assert_allclose(c, [0.5, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pot_back, pot, atol=1e-12)
    # the parts reassemble theta
    back = LeeForm(g, c, pot_back).one_form()
    assert (back - theta).norm() < 1e-12
    # exact zeros in the harmonic part are snapped, not left as 1e-17 noise
    assert c[2] == 0.0


def test_pfaffian_values_t4():
    g = GridSpec(4, 8)
    w = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 2.0})
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
    base = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0})
    w = DiffForm(g, 2, base.comps * np.exp(logf)[None])
    lee, _ = lee_form(w)
    np.testing.assert_allclose(lee.harmonic, 0.0, atol=1e-9)
    np.testing.assert_allclose(lee.potential, logf - logf.mean(), atol=1e-7)


def test_lee_extraction_degenerate_input():
    g = GridSpec(4, 8)
    x1 = g.coordinates()[0]
    s = np.sin(TWO_PI * x1)  # vanishes on a hypersurface
    w = form_from_components(g, 2, {(0, 1): s, (2, 3): s})
    with pytest.raises(DegenerateForm):
        lee_form(w)


@pytest.mark.parametrize("n", [2, 4])
def test_lee_extraction_rejects_a_nan_node(n):
    # a NaN Pfaffian margin fails the nondegeneracy gate, not passes it
    g = GridSpec(n, 8)
    w = (contact_like_form(g) if n == 4
         else form_from_components(g, 2, {(0, 1): np.ones(g.shape)}))
    comps = w.comps.copy()
    comps[(0,) + (3,) * n] = np.nan
    with pytest.raises(DegenerateForm, match="margin nan"):
        validate_lcs(DiffForm(g, 2, comps))


def test_lee_extraction_rejects_non_lcs():
    # generic nondegenerate but non-lcs 2-form on T^4
    rng = np.random.default_rng(14)
    g = GridSpec(4, 8)
    w = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0})
    w = w + random_band_limited(g, 2, 1, rng, 0.2)
    with pytest.raises(NotLcs):
        lee_form(w)


@pytest.mark.parametrize("N", [8, 16, 32])
def test_lee_extraction_rejects_non_lcs_at_every_resolution(N):
    # the same construction as above: its pointwise Lee form is far from
    # closed at every N, so the verdict must not depend on the grid
    rng = np.random.default_rng(14)
    g = GridSpec(4, N)
    w = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0})
    w = w + random_band_limited(g, 2, 1, rng, 0.2)
    with pytest.raises(NotLcs, match=f"N = {N}"):
        lee_form(w)


def test_lee_extraction_accepts_non_constant_symplectic_form():
    # omega = dx0^dx1 + dx2^dx3 + d eta is symplectic: theta is rounding
    # noise, and its closedness residual is measured against max(|theta|, 1);
    # seeds 1 and 4 have small Pfaffian margins, which amplify that noise
    g = GridSpec(4, 16)
    for seed, margin in ((7, 1e-4), (1, 1e-5), (4, 1e-5)):
        eta = random_band_limited(g, 1, 2, np.random.default_rng(seed), 0.05)
        w = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0}) + ext_d(eta)
        assert np.min(np.abs(pfaffian_values(w))) > margin
        assert np.ptp(w.comps[0]) > 0.1
        lee, diag = lee_form(w)
        assert lee.is_constant and not lee.harmonic.any(), seed
        assert diag["lcs_residual"] < 1e-9


def test_lee_form_on_t2_is_zero_by_convention():
    # in two dimensions the defining equation is vacuous; the extractor
    # returns theta = 0 and flags the form as globally symplectic
    g = GridSpec(2, 16)
    x1, _ = g.coordinates()
    w = form_from_components(g, 2, {(0, 1): np.exp(0.3 * np.sin(TWO_PI * x1))})
    lee, _ = lee_form(w)
    assert lee.is_constant and not lee.harmonic.any()


def test_validate_lcs_and_normalize_family_round_trip():
    # e^g omega0 has Lee form dx3 + dg; normalize_family rescales it by
    # e^{-g} pointwise, back to omega0 (g has mean zero on the grid)
    g = GridSpec(4, 16)
    x2 = g.coordinates()[1]
    base = contact_like_form(g, s=0.0, c=1.0)
    pot = 0.25 * np.sin(TWO_PI * x2)
    L1 = validate_lcs(DiffForm(g, 2, base.comps * np.exp(pot)[None]))
    assert not L1.lee.is_constant
    np.testing.assert_allclose(L1.lee.potential, pot, atol=1e-7)
    fam = normalize_family(FormFamily(g, lambda t: L1, lambda t: DiffForm(g, 2),
                                      np.linspace(0, 1, 11)))
    np.testing.assert_array_equal(fam.theta_h, [0.0, 0.0, 0.0, 1.0])
    back = fam.omega_at(0.5)
    assert back.lee.is_constant
    np.testing.assert_allclose(back.omega.comps, base.comps, atol=1e-7)


def test_torus_twisted_betti():
    g4 = GridSpec(4, 8)
    assert torus_twisted_betti(np.zeros(4), g4) == (1, 4, 6, 4, 1)
    assert torus_twisted_betti(np.array([0.0, 0.0, 0.3, 0.0]), g4) == (0, 0, 0, 0, 0)
    g2 = GridSpec(2, 8)
    assert torus_twisted_betti(np.zeros(2), g2) == (1, 2, 1)
    # 2 pi i m never cancels a real constant, so any nonzero theta kills H*
    assert torus_twisted_betti(np.array([1e-3, 0.0]), g2) == (0, 0, 0)
