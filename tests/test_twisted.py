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
from lcsflow import twisted
from lcsflow.moser import normalize_family
from lcsflow.twisted import (
    DegenerateForm,
    LcsForm,
    LeeForm,
    NotLcs,
    _harmonic_and_potential,
    d_theta,
    d_theta_star,
    hodge_decompose,
    lee_form,
    pfaffian_values,
    solve_primitive,
    torus_twisted_betti,
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
    np.testing.assert_allclose(pfaffian_values(w.comps), 2.0)
    # the Pfaffian squares to det
    c = contact_like_form(g, s=0.1, c=1.5)
    pf = pfaffian_values(c.comps)
    np.testing.assert_allclose(pf, -TWO_PI * 1.5, atol=1e-12)


def test_lee_extraction_contact_fixture(monkeypatch):
    g = GridSpec(4, 16)
    c = 0.8
    w = contact_like_form(g, s=0.3, c=c)
    # the closedness residual stays within 1e-9, not only within LCS_TOL
    monkeypatch.setattr(twisted, "LCS_TOL", 1e-9)
    lee = lee_form(w)
    np.testing.assert_allclose(lee.harmonic, [0.0, 0.0, 0.0, c], atol=1e-9)
    assert np.max(np.abs(lee.potential)) < 1e-9


def test_lee_extraction_conformal_symplectic():
    # f * (standard symplectic) has theta = d log f, detected exactly
    g = GridSpec(4, 16)
    x1 = g.coordinates()[0]
    logf = 0.2 * np.sin(TWO_PI * x1)
    base = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0})
    w = DiffForm(g, 2, base.comps * np.exp(logf)[None])
    lee = lee_form(w)
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
        lee_form(DiffForm(g, 2, comps))


def test_lee_extraction_rejects_non_lcs():
    # generic nondegenerate but non-lcs 2-form on T^4
    rng = np.random.default_rng(14)
    g = GridSpec(4, 8)
    w = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0})
    w = w + random_band_limited(g, 2, 1, rng, 0.2)
    with pytest.raises(NotLcs):
        lee_form(w)


def test_lee_extraction_rejects_an_overflowing_form():
    # two components of 1e200 at one node overflow |theta| to inf, so the
    # closedness residual is NaN; the gate must fail on it, as it does at 1e150
    w = contact_like_form(GridSpec(4, 8))
    for big in (1e150, 1e200):
        comps = w.comps.copy()
        comps[[0, 5], 0, 0, 0, 0] = big  # components (0, 1) and (2, 3)
        with np.errstate(all="ignore"), pytest.raises(NotLcs):
            lee_form(DiffForm(w.grid, 2, comps))


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


def test_lee_extraction_accepts_non_constant_symplectic_form(monkeypatch):
    # omega = dx0^dx1 + dx2^dx3 + d eta is symplectic: theta is rounding
    # noise, and its closedness residual is measured against max(|theta|, 1);
    # seeds 1 and 4 have small Pfaffian margins, which amplify that noise.
    # With LCS_TOL at 1e-9 the extraction passes only if that residual does
    monkeypatch.setattr(twisted, "LCS_TOL", 1e-9)
    g = GridSpec(4, 16)
    for seed, margin in ((7, 1e-4), (1, 1e-5), (4, 1e-5)):
        eta = random_band_limited(g, 1, 2, np.random.default_rng(seed), 0.05)
        w = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0}) + ext_d(eta)
        assert np.min(np.abs(pfaffian_values(w.comps))) > margin
        assert np.ptp(w.comps[0]) > 0.1
        lee = lee_form(w)
        assert not lee.potential.any() and not lee.harmonic.any(), seed


def test_lee_form_on_t2_is_zero_by_convention():
    # in two dimensions the defining equation is vacuous; the extractor
    # returns theta = 0 and flags the form as globally symplectic
    g = GridSpec(2, 16)
    x1, _ = g.coordinates()
    w = form_from_components(g, 2, {(0, 1): np.exp(0.3 * np.sin(TWO_PI * x1))})
    lee = lee_form(w)
    assert not lee.potential.any() and not lee.harmonic.any()


def test_constant_lee_data_need_no_transform(monkeypatch):
    # a constant Lee form is its harmonic part, and theta = 0 on T^2: no
    # transform of an all-zero field, and the returned form owns its data
    g = GridSpec(3, 8)
    lee = LeeForm.constant(g, [0.5, 0.0, -2.0])
    monkeypatch.setattr(twisted, "ext_d", lambda a: pytest.fail("transformed zeros"))
    theta = lee.one_form()
    lee.harmonic[0] = 9.0
    np.testing.assert_array_equal(theta.comps, np.broadcast_to(
        np.array([0.5, 0.0, -2.0])[:, None, None, None], (3,) + g.shape))
    with pytest.raises(ValueError):
        theta.comps[0, 0, 0, 0] = 1.0
    g2 = GridSpec(2, 8)
    lee2 = lee_form(form_from_components(g2, 2, {(0, 1): 1.0 + g2.coordinates()[0]}))
    assert not lee2.potential.any() and not lee2.harmonic.any()


def test_lee_form_and_normalize_family_round_trip():
    # e^g omega0 has Lee form dx3 + dg; normalize_family rescales it by
    # e^{-g} pointwise, back to omega0 (g has mean zero on the grid)
    g = GridSpec(4, 16)
    x2 = g.coordinates()[1]
    base = contact_like_form(g, s=0.0, c=1.0)
    pot = 0.25 * np.sin(TWO_PI * x2)
    omega = DiffForm(g, 2, base.comps * np.exp(pot)[None])
    lee = lee_form(omega)
    assert lee.potential.any()
    np.testing.assert_allclose(lee.potential, pot, atol=1e-7)
    L1 = LcsForm(omega, lee)
    fam = normalize_family(FormFamily(g, lambda t: L1, lambda t: DiffForm(g, 2),
                                      np.linspace(0, 1, 11)))
    np.testing.assert_array_equal(fam.theta_h, [0.0, 0.0, 0.0, 1.0])
    back = fam.omega_at(0.5)
    assert not back.lee.potential.any()
    np.testing.assert_allclose(back.omega.comps, base.comps, atol=1e-7)


def test_torus_twisted_betti():
    assert torus_twisted_betti(np.zeros(4)) == (1, 4, 6, 4, 1)
    assert torus_twisted_betti(np.array([0.0, 0.0, 0.3, 0.0])) == (0, 0, 0, 0, 0)
    assert torus_twisted_betti(np.zeros(2)) == (1, 2, 1)
    assert torus_twisted_betti([0.0, 1e-13, 0.0]) == (1, 3, 3, 1)
    # 2 pi i m never cancels a real constant, so any nonzero theta kills H*
    assert torus_twisted_betti(np.array([1e-3, 0.0])) == (0, 0, 0)
    for bad in ([0.0], [0.0] * 5, np.zeros((2, 2))):
        with pytest.raises(ValueError):
            torus_twisted_betti(bad)


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]])
def test_a_non_finite_lee_covector_is_refused(bad):
    # a NaN is not <= the snap, so it would count as a nonzero covector:
    # Betti numbers (0, 0, 0) and a harmonic part of 0 with a NaN residual
    a = random_band_limited(GridSpec(2, 8), 1, 2, np.random.default_rng(5))
    for call in (lambda: torus_twisted_betti(bad), lambda: solve_primitive(a, bad),
                 lambda: hodge_decompose(a, bad)):
        with pytest.raises(ValueError, match="non-finite"):
            call()
