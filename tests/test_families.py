"""Built-in form families: derivatives, primitives, tabulated reconstruction."""

import numpy as np
import pytest

from lcsflow.families import (
    FormFamily,
    area_interpolation_family,
    contact_circle_family,
    corollary_two_family,
    fd_derivative,
    fd_weights,
    gcs_rescale_family,
    lee_drift_family,
    tabulated_family,
)
from lcsflow.forms import DiffForm, GridSpec, form_from_components
from lcsflow.moser import normalize_family
from lcsflow.twisted import d_theta, lee_form

TWO_PI = 2.0 * np.pi
SMALL4 = GridSpec(4, 8)
SMALL2 = GridSpec(2, 16)

FAMILIES = [
    contact_circle_family(SMALL4, s=0.6, c=1.2),
    corollary_two_family(SMALL4, s=0.6, c=1.0, a=0.3),
    area_interpolation_family(SMALL2, eps=0.4, sigma=0.5),
    gcs_rescale_family(SMALL2, amp=0.25),
    lee_drift_family(SMALL4, c0=1.0, c1=0.5),
]


def test_analytic_derivative_matches_finite_differences():
    for fam in FAMILIES:
        for t in (0.0, 0.37, 1.0):
            analytic = fam.derivative_at(t)
            fd = fd_derivative(lambda u: fam.omega_at(u).omega, t, 1e-3)
            scale = max(analytic.norm(), 1.0)
            assert (analytic - fd).norm() < 1e-9 * scale, (fam.label, t)


def test_every_sample_is_a_valid_lcs_pair():
    for fam in FAMILIES:
        for t in (0.0, 0.5, 1.0):
            sample = fam.omega_at(t)
            checked = lee_form(sample.omega)
            if fam.grid.n == 2:
                # top-degree forms are closed: extraction returns theta = 0
                # even when the generator carries an exact gauge potential
                assert not checked.potential.any() and not checked.harmonic.any()
                assert np.max(np.abs(sample.lee.harmonic)) < 1e-12
            else:
                claimed = sample.lee.one_form()
                extracted = checked.one_form()
                assert (claimed - extracted).norm() < 1e-8, (fam.label, t)


def test_exact_data_really_is_a_twisted_primitive():
    for fam in (contact_circle_family(SMALL4), corollary_two_family(SMALL4)):
        for t in (0.0, 0.6):
            sample = fam.omega_at(t)
            alpha = fam.exact_data.alpha_at(t)
            recon = d_theta(alpha, sample.lee)
            assert (recon - sample.omega).norm() < 1e-11, (fam.label, t)
            # alpha_dot agrees with finite differences of alpha
            fd = fd_derivative(fam.exact_data.alpha_at, t, 1e-3)
            assert (fam.exact_data.alpha_dot_at(t) - fd).norm() < 1e-9


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _coframe_closed_form(grid, u, c):
    return form_from_components(grid, 2, {
        (0, 1): -TWO_PI * np.sin(u),
        (0, 2): TWO_PI * np.cos(u),
        (1, 3): c * np.cos(u),
        (2, 3): c * np.sin(u),
    }).comps


def test_contact_circle_is_the_coframe_family_at_a_zero():
    # bit for bit: at a = 0 the a-terms are skipped, not multiplied by
    # zero, so no channel picks up a -0.0 the closed form does not have
    g, s, c = SMALL4, 0.6, 1.2
    contact = contact_circle_family(g, s=s, c=c)
    flat = corollary_two_family(g, s=s, c=c, a=0.0)
    x1 = g.coordinates()[0]
    for t in (0.0, 0.37, 1.0):
        u = TWO_PI * x1 + s * t
        assert _same_bits(contact.omega_at(t).omega.comps,
                          _coframe_closed_form(g, u, c))
        deriv = form_from_components(g, 2, {
            (0, 1): -TWO_PI * s * np.cos(u),
            (0, 2): -TWO_PI * s * np.sin(u),
            (1, 3): -c * s * np.sin(u),
            (2, 3): c * s * np.cos(u),
        }).comps
        assert _same_bits(contact.derivative_at(t).comps, deriv)
        ea, eb = contact.exact_data, flat.exact_data
        for x, y in ((contact.omega_at(t).omega.comps, flat.omega_at(t).omega.comps),
                     (contact.derivative_at(t).comps, flat.derivative_at(t).comps),
                     (ea.alpha_at(t).comps, eb.alpha_at(t).comps),
                     (ea.alpha_dot_at(t).comps, eb.alpha_dot_at(t).comps),
                     (ea.h_at(t), eb.h_at(t)),
                     (contact.omega_at(t).lee.one_form().comps,
                      flat.omega_at(t).lee.one_form().comps)):
            assert _same_bits(x, y), t
        h = eb.h_at(t)
        assert not (np.signbit(h) & (h == 0.0)).any()
    assert contact.label == "contact_circle" and flat.label == "corollary_two"


def test_lee_drift_samples_are_the_coframe_with_a_moving_coefficient():
    g, c0, c1 = SMALL4, 1.0, 0.5
    fam = lee_drift_family(g, c0=c0, c1=c1)
    u = TWO_PI * g.coordinates()[0]
    for t in (0.0, 0.5, 1.0):
        sample = fam.omega_at(t)
        assert _same_bits(sample.omega.comps, _coframe_closed_form(g, u, c0 + c1 * t))
        assert _same_bits(sample.lee.harmonic, [0.0, 0.0, 0.0, c0 + c1 * t])


def test_corollary_two_h_is_the_potential_rate():
    fam = corollary_two_family(SMALL4, a=0.3)
    h = fam.exact_data.h_at(0.4)
    # lee potential is t * (a sin 2 pi x2): rate independent of t
    p0 = fam.omega_at(0.3).lee.potential
    p1 = fam.omega_at(0.7).lee.potential
    assert np.max(np.abs((p1 - p0) / 0.4 - h)) < 1e-12


def test_lee_drift_moves_the_harmonic_class():
    fam = lee_drift_family(SMALL4, c0=1.0, c1=0.5)
    h0 = fam.omega_at(0.0).lee.harmonic
    h1 = fam.omega_at(1.0).lee.harmonic
    assert abs(h1[3] - h0[3] - 0.5) < 1e-12


def test_constant_family_has_zero_derivative():
    # a family whose Lee form is already constant passes normalize_family
    # with its own 2-forms and derivative, so the zero derivative stays
    # exactly zero; its samples carry the snapped theta_h as Lee form
    base = contact_circle_family(SMALL4).omega_at(0.0)
    fam = normalize_family(FormFamily(SMALL4, lambda t: base, lambda t: DiffForm(SMALL4, 2),
                                      np.linspace(0, 1, 11)))
    np.testing.assert_array_equal(fam.theta_h, base.lee.harmonic)
    assert fam.derivative_at(0.5).norm() == 0.0
    sample = fam.omega_at(0.9)
    assert sample.omega is base.omega
    np.testing.assert_array_equal(sample.lee.harmonic, fam.theta_h)
    assert not sample.lee.potential.any()


def test_generator_guards():
    with pytest.raises(ValueError):
        contact_circle_family(SMALL4, c=0.0)
    with pytest.raises(ValueError):
        area_interpolation_family(SMALL2, eps=1.5)
    with pytest.raises(ValueError):
        area_interpolation_family(SMALL2, sigma=-1.0)
    with pytest.raises(ValueError):
        lee_drift_family(SMALL4, c0=1.0, c1=-1.0)


def test_fd_weights_are_exact_on_quartics():
    for t, h in ((0.0, 1e-2), (0.5, 1e-2), (1.0, 1e-2), (0.005, 1e-2)):
        nodes, w = fd_weights(t, h)
        assert np.all(nodes >= -1e-15) and np.all(nodes <= 1 + 1e-15)
        for p in range(5):
            got = float(np.sum(w * nodes**p))
            want = p * t ** (p - 1) if p > 0 else 0.0
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_tabulated_family_reconstructs_the_generator():
    src = contact_circle_family(SMALL4, s=0.9)
    times = np.linspace(0.0, 1.0, 33)
    samples = [src.omega_at(float(t)).omega for t in times]
    tab = tabulated_family(SMALL4, times, samples)
    for t in (0.013, 0.4812, 0.997):
        w_err = (tab.omega_at(t).omega - src.omega_at(t).omega).norm()
        d_err = (tab.derivative_at(t) - src.derivative_at(t)).norm()
        assert w_err < 1e-6, t
        assert d_err < 1e-4, t
    # lee recovered from the interpolated sample matches the generator
    lee = tab.omega_at(0.5).lee
    assert np.max(np.abs(lee.harmonic - np.array([0, 0, 0, 1.0]))) < 1e-6


def test_tabulated_family_input_guards():
    src = area_interpolation_family(SMALL2, eps=0.2)
    times = np.linspace(0.0, 1.0, 9)
    samples = [src.omega_at(float(t)).omega for t in times]
    with pytest.raises(ValueError):
        tabulated_family(SMALL2, times[:-1], samples)
    with pytest.raises(ValueError):
        tabulated_family(SMALL2, times**2, samples)  # non-uniform
    with pytest.raises(ValueError):
        tabulated_family(SMALL2, times[:4], samples[:4])  # too few
    # uniform tables that do not run from 0 to 1: the cubic window would
    # extrapolate past their ends
    for bad in (times / 2, times + 0.5, times[::-1]):
        with pytest.raises(ValueError, match="from 0 to 1"):
            tabulated_family(SMALL2, bad, samples)
