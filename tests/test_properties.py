"""Operator identities of the (twisted) exterior calculus on random inputs.

Each test draws the dimension, the degrees, the operand bandwidth and the
Lee form.  Operands have unit-ish norm on an N = 8 grid.  "narrow"
operands have band 1, so every product in the identity is taken directly
on the grid; "wide" ones have band N/2 - 1, so products of two of them go
through the de-aliasing grid and are truncated back.  Each identity draws
only the inputs for which it holds exactly on the grid, so the tolerances
are rounding-level:

- d_theta^2 = 0 with a closed field theta needs every product to stay in
  band, so it uses narrow operands; with a constant theta no product is
  taken at all.
- The antiderivation rule with wide operands uses a constant-coefficient
  X, which commutes with the band truncation.
- The Hodge splitting and the primitive solver are per-mode and need a
  constant theta.  Their harmonic parts, and the twisted Betti numbers of
  the torus, must match the modes where the whole-grid |mu(m)|^2 of
  tests/oracles.py vanishes, for Lee coefficients at, below and above the
  snap to zero.
- Gauge covariance d_{theta + dg}(e^g b) = e^g d_theta b multiplies by e^g,
  which is not band-limited: it runs on T^4 at N = 16 with a band-1 g small
  enough that the truncation of e^g stays below the tolerance.

The de-aliased product itself is checked on stacks of full-spectrum fields,
Nyquist buckets included, against a 2N-grid product written out here.

Lee forms: the closed-form extractor must recover theta = c dx3 + dg from
e^g times a contact-type form, and its B / Pf inverse must agree with a
dense per-point solve.
"""

from math import comb
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lcsflow.forms import (
    DiffForm,
    GridSpec,
    contract,
    downsample_values,
    ext_d,
    form_from_components,
    index_sets,
    l2_inner,
    random_band_limited,
    scalar_form,
    upsample_values,
    wedge,
)
from lcsflow.twisted import (
    HARMONIC_SNAP,
    LeeForm,
    d_theta,
    d_theta_star,
    hodge_decompose,
    lee_form,
    pfaffian_inverse,
    pfaffian_values,
    solve_primitive,
    torus_twisted_betti,
)
from oracles import harmonic_mask

N = 8
BANDS = {"narrow": 1, "wide": N // 2 - 1}
TOL = 1e-10

dims = st.sampled_from([2, 3, 4])
bands = st.sampled_from(sorted(BANDS))
theta_kinds = st.sampled_from(["constant", "closed"])
seeds = st.integers(0, 2**32 - 1)


def _constant(n, rng):
    """Random constant Lee coefficients, some of them exactly zero."""
    c = rng.uniform(-1.5, 1.5, n)
    c[rng.random(n) < 0.3] = 0.0
    return c


def _theta(g, kind, rng):
    """A constant theta (coefficient array) or a closed field c + dg."""
    c = _constant(g.n, rng)
    if kind == "constant":
        return c
    return LeeForm(g, c, random_band_limited(g, 0, 1, rng, 0.3).comps[0]).one_form()


@given(n=dims, k=st.integers(0, 2), band=bands, kind=theta_kinds, seed=seeds)
def test_d_theta_squares_to_zero(n, k, band, kind, seed):
    k = k % (n - 1)
    if kind == "closed":
        band = "narrow"
    rng = np.random.default_rng(seed)
    g = GridSpec(n, N)
    theta = _theta(g, kind, rng)
    a = random_band_limited(g, k, BANDS[band], rng)
    assert d_theta(d_theta(a, theta), theta).norm() < TOL


@given(k=st.integers(0, 2), amp=st.floats(0.0, 0.05), seed=seeds)
def test_d_theta_is_gauge_covariant(k, amp, seed):
    # e^g is not band-limited: with ||g|| <= 0.05 the truncation error of
    # e^g b stays below 1e-11 relative, with ||g|| = 0.15 it reaches 1e-8
    rng = np.random.default_rng(seed)
    g = GridSpec(4, 16)
    theta = _theta(g, "closed", rng)
    b = random_band_limited(g, k, 1, rng)
    pot = random_band_limited(g, 0, 1, rng, amp).comps[0]
    f = np.exp(pot)[None]
    lhs = d_theta(DiffForm(g, k, f * b.comps), theta + ext_d(scalar_form(g, pot)))
    rhs = DiffForm(g, k + 1, f * d_theta(b, theta).comps)
    assert (lhs - rhs).norm() < TOL * max(1.0, rhs.norm())


@given(n=dims, k=st.integers(0, 3), band_a=bands, band_b=bands,
       kind=theta_kinds, seed=seeds)
def test_d_theta_star_is_the_adjoint(n, k, band_a, band_b, kind, seed):
    k = k % n
    rng = np.random.default_rng(seed)
    g = GridSpec(n, N)
    theta = _theta(g, kind, rng)
    a = random_band_limited(g, k, BANDS[band_a], rng)
    b = random_band_limited(g, k + 1, BANDS[band_b], rng)
    lhs = l2_inner(d_theta(a, theta), b)
    rhs = l2_inner(a, d_theta_star(b, theta))
    assert abs(lhs - rhs) < TOL * max(1.0, abs(lhs))


@given(n=dims, k=st.integers(0, 4), l=st.integers(0, 4), band=bands,
       seed=seeds)
def test_contraction_is_an_antiderivation(n, k, l, band, seed):
    k = k % (n + 1)
    l = l % (n + 1 - k)
    if k + l == 0:
        l = 1
    rng = np.random.default_rng(seed)
    g = GridSpec(n, N)
    if band == "narrow":
        x = random_band_limited(g, 1, 1, rng)
    else:
        x = form_from_components(g, 1, dict(zip(((j,) for j in range(n)),
                                                rng.standard_normal(n))))
    a = random_band_limited(g, k, BANDS[band], rng)
    b = random_band_limited(g, l, BANDS[band], rng)
    lhs = contract(x, wedge(a, b))
    rhs = DiffForm(g, k + l - 1)
    if k:
        rhs = rhs + wedge(contract(x, a), b)
    if l:
        rhs = rhs + wedge(a, contract(x, b)) * (-1) ** k
    assert (lhs - rhs).norm() < TOL * max(1.0, lhs.norm())


@given(n=dims, k=st.integers(0, 4), band=bands, zero_theta=st.booleans(),
       seed=seeds)
def test_hodge_decomposition_reconstructs_orthogonally(n, k, band, zero_theta, seed):
    k = k % (n + 1)
    rng = np.random.default_rng(seed)
    g = GridSpec(n, N)
    theta = np.zeros(n) if zero_theta else _constant(n, rng)
    a = random_band_limited(g, k, BANDS[band], rng)
    h, ex, co = hodge_decompose(a, theta)
    assert (h + ex + co - a).norm() < TOL
    for p, q in ((h, ex), (h, co), (ex, co)):
        assert abs(l2_inner(p, q)) < TOL


@given(n=dims, k=st.integers(1, 4), band=bands, zero_theta=st.booleans(),
       seed=seeds)
def test_solve_primitive_round_trip(n, k, band, zero_theta, seed):
    k = 1 + (k - 1) % n
    rng = np.random.default_rng(seed)
    g = GridSpec(n, N)
    theta = np.zeros(n) if zero_theta else _constant(n, rng)
    beta = random_band_limited(g, k - 1, BANDS[band], rng)
    target = d_theta(beta, theta)
    sol = solve_primitive(target, theta)
    scale = max(1.0, target.norm())
    assert (d_theta(sol.primitive, theta) - target).norm() < TOL * scale
    assert sol.residual < TOL
    assert sol.harmonic_part_norm < TOL * scale
    if k > 1:
        # the primitive is the coexact representative
        assert d_theta_star(sol.primitive, theta).norm() < TOL * scale


lee_coefficients = st.one_of(
    st.sampled_from([0.0, 1e-13, -1e-13, HARMONIC_SNAP, -HARMONIC_SNAP]),
    st.floats(0.25, 2.0), st.floats(-2.0, -0.25))


@given(n=dims, k=st.integers(1, 4), band=bands, data=st.data(), seed=seeds)
def test_harmonic_parts_match_the_whole_grid_mask(n, k, band, data, seed):
    k = 1 + (k - 1) % n
    c = np.array(data.draw(st.lists(lee_coefficients, min_size=n, max_size=n)))
    g = GridSpec(n, N)
    mask = harmonic_mask(g, c)
    assert torus_twisted_betti(c, g) == tuple(
        comb(n, j) * int(np.count_nonzero(mask)) for j in range(n + 1))
    a = random_band_limited(g, k, BANDS[band], np.random.default_rng(seed))
    spec = a.spectra() * mask
    want = np.sqrt(np.sum(np.abs(spec) ** 2)) / g.num_nodes
    assert abs(solve_primitive(a, c).harmonic_part_norm - want) <= 1e-14 * max(want, 1.0)
    h, _, _ = hodge_decompose(a, c)
    assert np.max(np.abs(h.comps - DiffForm.from_spectra(g, k, spec).comps)) <= 1e-14


def _doubling_maps():
    """Spectral maps between N and 2N buckets per axis.

    pad (2N x N) splits the Nyquist bucket evenly between -N/2 and +N/2;
    trunc (N x 2N) keeps |m| < N/2 and folds -N/2 and +N/2 back together.
    """
    pad, trunc = np.zeros((2 * N, N)), np.zeros((N, 2 * N))
    for i, m in enumerate(np.fft.fftfreq(N, 1.0 / N).astype(int)):
        if m == -N // 2:
            pad[[N // 2, 2 * N - N // 2], i] = 0.5
            trunc[i, [N // 2, 2 * N - N // 2]] = 1.0
        else:
            pad[m % (2 * N), i] = 1.0
            trunc[i, m % (2 * N)] = 1.0
    return pad, trunc


def _on_every_axis(mat, spec):
    for ax in range(1, spec.ndim):
        spec = np.moveaxis(np.tensordot(mat, spec, axes=([1], [ax])), 0, ax)
    return spec


def _doubled_grid_product(u, v, n):
    """Band truncation of u * v, computed on the 2N grid field by field."""
    pad, trunc = _doubling_maps()
    axes = tuple(range(1, n + 1))

    def up(w):
        spec = _on_every_axis(pad, np.fft.fftn(w, axes=axes))
        return np.fft.ifftn(spec, axes=axes).real * 2**n

    prod_spec = np.fft.fftn(up(u) * up(v), axes=axes)
    return np.fft.ifftn(_on_every_axis(trunc, prod_spec), axes=axes).real / 2**n


@given(n=dims, count=st.integers(1, 6), seed=seeds)
def test_dealiased_product_matches_the_doubled_grid(n, count, seed):
    # odd and even stack sizes exercise the two-fields-per-transform packing;
    # white-noise fields fill every bucket up to and including Nyquist
    rng = np.random.default_rng(seed)
    g = GridSpec(n, N)
    scale = rng.uniform(0.1, 10.0, (2, count) + (1,) * n)
    u, v = rng.standard_normal((2, count) + g.shape) * scale
    got = downsample_values(upsample_values(u, g) * upsample_values(v, g), g)
    want = _doubled_grid_product(u, v, n)
    assert got.shape == u.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@given(c=st.floats(0.25, 2.0), negative=st.booleans(), s=st.floats(0.0, 6.3),
       amp=st.floats(0.0, 0.06), seed=seeds)
def test_lee_form_recovers_a_conformal_gauge(c, negative, s, amp, seed):
    # omega0 = d eta - c dx3 ^ eta, eta = cos u dx1 + sin u dx2, has Lee
    # form c dx3 and Pf = -2 pi c; e^g omega0 has Lee form c dx3 + dg.
    # e^g is not band-limited: at N = 16 a band-1 g of norm 0.15 already
    # leaves a truncation d theta above lcs_tol, so g stays below 0.06
    c = -c if negative else c
    g = GridSpec(4, 16)
    u = 2.0 * np.pi * g.coordinates()[0] + s
    omega0 = form_from_components(g, 2, {
        (0, 1): -2.0 * np.pi * np.sin(u), (0, 2): 2.0 * np.pi * np.cos(u),
        (1, 3): c * np.cos(u), (2, 3): c * np.sin(u),
    })
    pot = random_band_limited(g, 0, 1, np.random.default_rng(seed), amp).comps[0]
    lee, _ = lee_form(DiffForm(g, 2, omega0.comps * np.exp(pot)[None]))
    np.testing.assert_allclose(lee.harmonic, [0.0, 0.0, 0.0, c], rtol=0, atol=1e-10)
    # the zero harmonic coefficients are snapped to exact zeros
    assert (lee.harmonic[:3] == 0.0).all()
    np.testing.assert_allclose(lee.potential, pot - pot.mean(), rtol=0, atol=1e-10)


@given(n=st.sampled_from([2, 4]), scale=st.floats(0.1, 10.0), seed=seeds)
def test_pfaffian_inverse_matches_a_dense_solve(n, scale, seed):
    # random antisymmetric fields at 64 sample points; points too close to
    # degenerate for a meaningful comparison are left out
    rng = np.random.default_rng(seed)
    pairs = index_sets(n, 2)
    omega = SimpleNamespace(grid=GridSpec(n, 8), degree=2,
                            comps=scale * rng.standard_normal((len(pairs), 64)))
    keep = np.abs(pfaffian_values(omega)) > 1e-3 * scale ** (n // 2)
    inv, _ = pfaffian_inverse(omega, 0.0)
    mat = np.zeros((64, n, n))
    got = np.zeros((64, n, n))
    for k, (i, j) in enumerate(pairs):
        mat[:, i, j], mat[:, j, i] = omega.comps[k], -omega.comps[k]
        got[:, i, j], got[:, j, i] = inv[k], -inv[k]
    want = np.linalg.solve(mat[keep], np.broadcast_to(np.eye(n), mat[keep].shape))
    err = np.abs(got[keep] - want).max(axis=(1, 2))
    bound = 1e-14 * np.linalg.cond(mat[keep]) * np.abs(want).max(axis=(1, 2))
    assert np.all(err <= bound)
