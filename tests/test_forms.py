"""Spectral exterior calculus on periodic grids: forms, products, derivatives."""

import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lcsflow import forms
from lcsflow.forms import (
    DegreeError,
    DiffForm,
    GridMismatch,
    GridSpec,
    ModeInterpolator,
    _products_fit,
    contract,
    downsample_values,
    ext_d,
    form_from_components,
    index_sets,
    l2_inner,
    merge_sign,
    product_table,
    random_band_limited,
    scalar_form,
    upsample_values,
    wedge,
)
from lcsflow.moser import StageData
from lcsflow.twisted import component_means, lee_form
from oracles import hodge_star

TWO_PI = 2.0 * np.pi


def test_grid_basics():
    g = GridSpec(2, 8)
    assert g.shape == (8, 8)
    assert g.num_nodes == 64
    x1, x2 = g.coordinates()
    assert x1.shape == (8, 8)
    assert x1[3, 0] == pytest.approx(3 / 8)
    assert x2[0, 5] == pytest.approx(5 / 8)
    nodes = g.nodes()
    assert nodes.shape == (64, 2)
    np.testing.assert_allclose(nodes[9], [1 / 8, 1 / 8])


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        GridSpec(0, 8)
    with pytest.raises(ValueError):
        GridSpec(2, 3)  # odd N has no clean Nyquist convention here


def test_index_sets_and_merge_sign():
    assert index_sets(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    s, merged = merge_sign((0,), (1, 2))
    assert (s, merged) == (1, (0, 1, 2))
    s, merged = merge_sign((1,), (0, 2))
    assert (s, merged) == (-1, (0, 1, 2))
    s, _ = merge_sign((1,), (1, 2))
    assert s == 0


def _permutation_sign(seq):
    """Sign of the permutation that sorts seq, by counting selection-sort swaps."""
    seq, sign = list(seq), 1
    for i in range(len(seq)):
        m = seq.index(min(seq[i:]), i)
        if m != i:
            seq[i], seq[m] = seq[m], seq[i]
            sign = -sign
    return sign


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_table_matches_brute_force(n):
    for k in range(n + 1):
        for l in range(n + 1):
            out_sets = index_sets(n, k + l)
            want = []
            for ia, sa in enumerate(index_sets(n, k)):
                for ib, sb in enumerate(index_sets(n, l)):
                    sign, merged = merge_sign(sa, sb)
                    if set(sa) & set(sb):
                        assert sign == 0
                        continue
                    assert sign == _permutation_sign(sa + sb)
                    want.append((ia, ib, out_sets.index(merged), sign))
            assert product_table(n, k, l) == tuple(want)


def test_ext_d_matches_analytic_gradient():
    g = GridSpec(2, 16)
    x1, x2 = g.coordinates()
    f = scalar_form(g, np.sin(TWO_PI * x1) * np.cos(2 * TWO_PI * x2))
    df = ext_d(f)
    want1 = TWO_PI * np.cos(TWO_PI * x1) * np.cos(2 * TWO_PI * x2)
    want2 = -2 * TWO_PI * np.sin(TWO_PI * x1) * np.sin(2 * TWO_PI * x2)
    np.testing.assert_allclose(df.comps[0], want1, atol=1e-12)
    np.testing.assert_allclose(df.comps[1], want2, atol=1e-12)


def test_d_squared_zero_random():
    rng = np.random.default_rng(0)
    for n, N in ((2, 16), (3, 8), (4, 8)):
        g = GridSpec(n, N)
        for k in range(n - 1):
            a = random_band_limited(g, k, 2, rng)
            dda = ext_d(ext_d(a))
            assert dda.norm() < 1e-12


def test_wedge_anticommutes():
    rng = np.random.default_rng(1)
    g = GridSpec(3, 16)
    a = random_band_limited(g, 1, 2, rng)
    b = random_band_limited(g, 1, 2, rng)
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert (ab + ba).norm() < 1e-12 * max(1.0, ab.norm())


def test_wedge_against_hand_computation():
    # (dx1 + x-dependent dx2) ^ dx2 on T^2
    g = GridSpec(2, 16)
    x1, _ = g.coordinates()
    a = form_from_components(g, 1, {(0,): 1.0, (1,): np.sin(TWO_PI * x1)})
    b = form_from_components(g, 1, {(1,): 1.0})
    w = wedge(a, b)
    np.testing.assert_allclose(w.comps[0], 1.0, atol=1e-13)


def test_leibniz_rule():
    rng = np.random.default_rng(2)
    g = GridSpec(3, 16)
    a = random_band_limited(g, 1, 2, rng)
    b = random_band_limited(g, 1, 2, rng)
    lhs = ext_d(wedge(a, b))
    rhs = wedge(ext_d(a), b) - wedge(a, ext_d(b))
    assert (lhs - rhs).norm() < 1e-10


def _dealiased_product(u: np.ndarray, v: np.ndarray, g: GridSpec) -> np.ndarray:
    """u * v as the wedge of two 0-forms, checked to take the fine-grid path."""
    a, b = scalar_form(g, u), scalar_form(g, v)
    assert not _products_fit(a, b)
    return wedge(a, b).comps[0]


def test_dealiased_product_is_exact_for_in_band_data():
    # bands 2 + 6 reach N/2, so the product goes through the fine grid; its
    # mode-8 part is a sine on the Nyquist bucket, zero at every node
    g = GridSpec(2, 16)
    x, _ = g.coordinates()
    u = np.sin(2 * TWO_PI * x)
    v = np.cos(6 * TWO_PI * x)
    exact = 0.5 * (np.sin(8 * TWO_PI * x) - np.sin(4 * TWO_PI * x))
    np.testing.assert_allclose(_dealiased_product(u, v, g), exact, atol=1e-13)


def test_dealiased_product_removes_wraparound():
    # product of two mode-7 tones has a mode-14 part that a 16-grid cannot
    # hold; the dealiased product must drop it instead of folding it to -2
    g = GridSpec(2, 16)
    x, _ = g.coordinates()
    u = np.cos(7 * TWO_PI * x)
    plain = u * u
    clean = _dealiased_product(u, u, g)
    spec_plain = np.fft.fft(plain[:, 0]) / 16
    spec_clean = np.fft.fft(clean[:, 0]) / 16
    assert abs(spec_plain[2]) > 0.2          # aliased copy present
    assert abs(spec_clean[2]) < 1e-13        # removed
    assert abs(spec_clean[0] - 0.5) < 1e-13  # mean survives


def test_wedge_fast_path_matches_dealiased():
    rng = np.random.default_rng(3)
    g = GridSpec(3, 16)
    a = random_band_limited(g, 1, 2, rng)
    b = random_band_limited(g, 1, 3, rng)       # 2 + 3 <= 7: direct path
    c = random_band_limited(g, 1, 7, rng)       # 2 + 7 > 7: dealiased path
    ref = np.zeros((3,) + g.shape)
    sets2 = index_sets(3, 2)
    sets1 = index_sets(3, 1)
    for ia, sa in enumerate(sets1):
        for ib, sb in enumerate(sets1):
            s, merged = merge_sign(sa, sb)
            if s == 0:
                continue
            fine = upsample_values(a.comps[ia], g) * upsample_values(b.comps[ib], g)
            ref[sets2.index(merged)] += s * downsample_values(fine, g)
    w_ref = DiffForm(g, 2, ref)
    assert (wedge(a, b) - w_ref).norm() < 1e-13
    # wide operand still goes through the upsampled route without error
    assert wedge(a, c).norm() > 0


def test_components_and_spectra_are_read_only():
    rng = np.random.default_rng(7)
    g = GridSpec(3, 8)
    a = random_band_limited(g, 1, 2, rng)
    spec = a.spectra().copy()
    with pytest.raises(ValueError):
        a.comps[0] += 1.0
    with pytest.raises(ValueError):
        a.comps[:] = 0.0
    with pytest.raises(ValueError):
        a.spectra()[0] = 0.0
    np.testing.assert_array_equal(a.spectra(), spec)
    # forms built from a fresh array are read-only too
    b = DiffForm(g, 1, np.ones((3,) + g.shape))
    with pytest.raises(ValueError):
        b.comps[1, 0, 0, 0] = 2.0


@pytest.mark.parametrize("n", [2, 4])
def test_spectra_are_fourier_coefficients(n):
    # c_m = N^-n sum_x f(x) e^{-2 pi i m.x}: the zero mode is the mean, a
    # cosine puts 1/2 on each of its two modes, and from_spectra inverts it
    g = GridSpec(n, 8)
    a = random_band_limited(g, 2, 2, np.random.default_rng(12))
    zero = (slice(None),) + (0,) * n
    np.testing.assert_allclose(a.spectra()[zero], component_means(a), rtol=0, atol=1e-15)
    cosine = scalar_form(g, np.cos(TWO_PI * g.coordinates()[0])).spectra()[0]
    assert abs(cosine[(1,) + (0,) * (n - 1)] - 0.5) <= 1e-15
    assert abs(cosine[(-1,) + (0,) * (n - 1)] - 0.5) <= 1e-15
    back = DiffForm.from_spectra(g, 2, a.spectra())
    np.testing.assert_allclose(back.comps, a.comps, rtol=0, atol=1e-14)


def test_hodge_star_involution_sign():
    rng = np.random.default_rng(4)
    for n, N in ((2, 8), (4, 8)):
        g = GridSpec(n, N)
        for k in range(n + 1):
            a = random_band_limited(g, k, 2, rng)
            sign = (-1) ** (k * (n - k))
            ssa = hodge_star(hodge_star(a))
            assert (ssa - a * sign).norm() < 1e-13


def test_star_pairing_recovers_l2_inner():
    rng = np.random.default_rng(5)
    g = GridSpec(3, 8)
    a = random_band_limited(g, 1, 2, rng)
    b = random_band_limited(g, 1, 2, rng)
    top = wedge(a, hodge_star(b))
    assert float(np.mean(top.comps[0])) == pytest.approx(l2_inner(a, b), abs=1e-12)


def test_contract_on_basis_forms():
    g = GridSpec(4, 8)
    w = form_from_components(g, 2, {(0, 1): 1.0, (2, 3): 1.0})
    x = form_from_components(g, 1, {(0,): 1.0})
    ix = contract(x, w)
    # i_{e1}(dx1^dx2) = dx2
    assert ix.comps[1][0, 0, 0, 0] == pytest.approx(1.0)
    assert np.max(np.abs(ix.comps[[0, 2, 3]])) < 1e-14


def test_contract_antiderivation():
    rng = np.random.default_rng(6)
    g = GridSpec(3, 16)
    x = random_band_limited(g, 1, 1, rng)
    a = random_band_limited(g, 1, 2, rng)
    b = random_band_limited(g, 1, 2, rng)
    lhs = contract(x, wedge(a, b))
    rhs = wedge(contract(x, a), b) - wedge(a, contract(x, b))
    # scalar contraction i_X a is the pointwise pairing
    pair = sum(x.comps[i] * a.comps[i] for i in range(3))
    np.testing.assert_allclose(contract(x, a).comps[0], pair, atol=1e-12)
    assert (lhs - rhs).norm() < 1e-11


def test_degree_and_grid_guards():
    g8, g16 = GridSpec(2, 8), GridSpec(2, 16)
    with pytest.raises(GridMismatch):
        wedge(DiffForm(g8, 1), DiffForm(g16, 1))
    with pytest.raises(DegreeError):
        wedge(DiffForm(g8, 1), DiffForm(g8, 2))
    with pytest.raises(DegreeError):
        ext_d(DiffForm(g8, 2))
    with pytest.raises(DegreeError):
        contract(DiffForm(g8, 2), DiffForm(g8, 2))


def test_mode_interpolator_reproduces_grid_and_off_grid():
    g = GridSpec(2, 16)
    x1, x2 = g.coordinates()
    vals = np.cos(TWO_PI * x1) + 0.5 * np.sin(2 * TWO_PI * (x1 + x2))
    f = scalar_form(g, vals)
    interp = ModeInterpolator(g, f.spectra(), 0.0)
    on_grid = interp(g.nodes())
    np.testing.assert_allclose(on_grid[0], vals.reshape(-1), atol=1e-12)
    pts = np.array([[0.123, 0.456], [0.9, 0.05], [1.75, -0.3]])
    want = (np.cos(TWO_PI * pts[:, 0])
            + 0.5 * np.sin(2 * TWO_PI * (pts[:, 0] + pts[:, 1])))
    np.testing.assert_allclose(interp(pts)[0], want, atol=1e-12)


def test_mode_interpolator_drops_tiny_modes():
    g = GridSpec(2, 16)
    x1, _ = g.coordinates()
    f = scalar_form(g, np.cos(TWO_PI * x1) + 1e-16 * np.cos(5 * TWO_PI * x1))
    sparse = ModeInterpolator(g, f.spectra(), rel_tol=1e-12)
    assert sparse.modes.shape[0] <= 4
    pts = np.array([[0.3, 0.7]])
    assert sparse(pts)[0, 0] == pytest.approx(np.cos(TWO_PI * 0.3), abs=1e-12)


def _dense_mode_sum(grid, spectra, rel_tol, points):
    """Reference interpolator: one exponential per (point, kept mode).

    Re sum_m c_m e^{2 pi i m.x} over every kept mode, with no folding,
    per-axis tables or chunking; a -N/2 component m_j is the split Nyquist
    bucket and contributes cos(pi N x_j) in place of e^{-pi i N x_j}.
    """
    flat = np.asarray(spectra, dtype=complex).reshape(spectra.shape[0], -1)
    if rel_tol > 0.0:
        mags = np.abs(flat)
        active = np.nonzero((mags > rel_tol * mags.max()).any(axis=0))[0]
    else:
        active = np.arange(flat.shape[1])
    modes_1d = np.fft.fftfreq(grid.N, 1.0 / grid.N).astype(int)
    unraveled = np.unravel_index(active, grid.shape)
    modes = np.stack([modes_1d[u] for u in unraveled], axis=-1).astype(float)
    nyquist = modes == -grid.N // 2
    phases = np.exp(2j * np.pi * (points @ np.where(nyquist, 0.0, modes).T))
    cosines = np.where(nyquist[None], np.cos(np.pi * grid.N * points[:, None, :]), 1.0)
    coeffs = flat[:, active]
    return (coeffs @ (phases * cosines.prod(axis=-1)).T).real


def _random_spectrum(grid, nf, kind, rng):
    """nf spectra over the whole N^n grid, Nyquist buckets included.

    Magnitudes are spread over six decades so a positive rel_tol drops some
    modes.  "hermitian" spectra are those of real node values; "general"
    ones are not; "one_sided" ones shrink every mode with m_0 < 0 by 1e-12,
    so a positive rel_tol keeps m and drops -m; "zero" is all zeros.
    """
    shape = (nf,) + grid.shape
    if kind == "zero":
        return np.zeros(shape, dtype=complex)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec *= 10.0 ** -rng.uniform(0.0, 6.0, grid.shape)
    if kind == "hermitian":
        axes = tuple(range(1, grid.n + 1))
        spec = np.fft.fftn(np.fft.ifftn(spec, axes=axes).real, axes=axes)
    elif kind == "one_sided":
        spec *= np.where(grid.mode_axis(0) < 0, 1e-12, 1.0)
    return spec


@given(n=st.sampled_from([2, 3, 4]),
       kind=st.sampled_from(["hermitian", "general", "one_sided", "zero"]),
       rel_tol=st.one_of(st.just(0.0), st.floats(1e-10, 1e-2)),
       npts=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, kind="one_sided", rel_tol=1e-6, npts=7, seed=0)
@example(n=4, kind="hermitian", rel_tol=0.0, npts=10, seed=1)
@example(n=3, kind="zero", rel_tol=1e-3, npts=5, seed=2)
@example(n=2, kind="zero", rel_tol=0.0, npts=3, seed=3)
def test_mode_interpolator_matches_dense_sum(n, kind, rel_tol, npts, seed):
    rng = np.random.default_rng(seed)
    g = GridSpec(n, 8)
    spec = _random_spectrum(g, 3, kind, rng)
    points = rng.uniform(-10.0, 10.0, (npts, n))
    got = ModeInterpolator(g, spec, rel_tol)(points)
    # the reference runs on wrapped coordinates: the same sum, but its
    # phases 2 pi m.x then carry ~1e-15 rounding instead of ~1e-13 at |x| = 10
    want = _dense_mode_sum(g, spec, rel_tol, np.mod(points, 1.0))
    # the scale is each channel's RMS over the torus, sqrt(sum |c_m|^2)
    scale = np.sqrt((np.abs(spec.reshape(3, -1)) ** 2).sum(axis=1)).max()
    assert got.shape == (3, npts)
    assert np.abs(got - want).max() <= 1e-13 * scale


def test_mode_interpolator_spans_many_chunks():
    # every mode of a dense T^4 N = 16 spectrum is kept, so a chunk holds the
    # 64-point minimum and 203 points take four chunks, the last one partial
    rng = np.random.default_rng(11)
    g = GridSpec(4, 16)
    spec = _random_spectrum(g, 1, "hermitian", rng)
    interp = ModeInterpolator(g, spec, 0.0)
    assert 2**17 // (3 * interp.modes.shape[0]) < 64   # derived chunk: 64 points
    points = rng.uniform(0.0, 1.0, (203, 4))
    got = interp(points)
    want = np.concatenate([_dense_mode_sum(g, spec, 0.0, points[lo:lo + 8])
                           for lo in range(0, len(points), 8)], axis=1)
    scale = np.sqrt((np.abs(spec) ** 2).sum())
    assert got.shape == (1, 203)
    assert np.abs(got - want).max() <= 1e-13 * scale


def test_mode_interpolator_folds_conjugate_pairs():
    # Hermitian spectrum with every mode kept: all pairs fold except the
    # 2^n modes whose components are all 0 or -N/2, each its own partner
    g = GridSpec(2, 8)
    spec = np.fft.fftn(np.random.default_rng(3).standard_normal(g.shape))
    interp = ModeInterpolator(g, spec[None], 0.0)
    unpaired = 2**g.n
    assert interp.modes.shape == ((g.num_nodes - unpaired) // 2 + unpaired, 2)


def test_eval_at_splits_the_nyquist_bucket_like_upsample():
    # a white-noise field fills the Nyquist buckets; both exact interpolants
    # must agree off the grid, not only on the coarse nodes
    g = GridSpec(2, 8)
    vals = np.random.default_rng(4).standard_normal(g.shape)
    fine = upsample_values(vals, g)
    M = g.fine_N
    nodes = np.stack([c.ravel() for c in np.meshgrid(
        np.arange(M) / M, np.arange(M) / M, indexing="ij")], axis=-1)
    got = ModeInterpolator(g, scalar_form(g, vals).spectra(), 0.0)(nodes)[0]
    assert np.abs(got - fine.ravel()).max() <= 1e-13


def test_eval_at_multicomponent():
    rng = np.random.default_rng(7)
    g = GridSpec(3, 8)
    a = random_band_limited(g, 2, 2, rng)
    got = ModeInterpolator(g, a.spectra(), 0.0)(g.nodes())
    np.testing.assert_allclose(got, a.comps.reshape(3, -1), atol=1e-12)


def test_upsample_preserves_values_on_coarse_nodes():
    # upsampling is exact trigonometric interpolation onto the fine grid,
    # and truncation brings the node values back
    rng = np.random.default_rng(8)
    g = GridSpec(2, 8)
    a = random_band_limited(g, 0, 3, rng)
    fine = upsample_values(a.comps[0], g)
    M = g.fine_N
    assert 2 * M > 3 * g.N
    assert fine.shape == (M, M)
    nodes = np.stack([c.ravel() for c in np.meshgrid(
        np.arange(M) / M, np.arange(M) / M, indexing="ij")], axis=-1)
    np.testing.assert_allclose(fine.ravel(), ModeInterpolator(g, a.spectra(), 0.0)(nodes)[0],
                               atol=1e-13)
    np.testing.assert_allclose(downsample_values(fine, g), a.comps[0], atol=1e-13)


def test_products_and_derivatives_store_real_contiguous_components():
    rng = np.random.default_rng(9)
    g = GridSpec(3, 8)
    a = random_band_limited(g, 1, 3, rng)
    b = random_band_limited(g, 2, 3, rng)
    assert not _products_fit(a, b)      # 3 + 3 > N/2 - 1: de-aliased path
    for out in (ext_d(a), wedge(a, b), contract(a, b)):
        arr = out.comps
        assert arr.flags.c_contiguous
        while arr is not None:          # no complex array behind the view
            assert arr.dtype == np.float64
            arr = arr.base


def test_spectral_operators_use_only_the_counted_fft_entry_points(monkeypatch):
    # FFT traffic stays countable when forms.sfft is swapped for a
    # namespace holding only fftn and ifftn; a transform taken from
    # scipy.fft or numpy.fft directly fails
    rng = np.random.default_rng(10)
    g = GridSpec(3, 8)
    a = random_band_limited(g, 1, 3, rng)
    b = random_band_limited(g, 2, 3, rng)
    g4 = GridSpec(4, 8)
    logf = 0.05 * np.sin(TWO_PI * g4.coordinates()[1])
    w = form_from_components(g4, 2, {(0, 1): np.exp(logf), (2, 3): np.exp(logf)})
    calls = []

    def counted(fn):
        def call(x, *args, **kwargs):
            calls.append(fn.__name__)
            return fn(x, *args, **kwargs)
        return call

    def uncounted(*args, **kwargs):
        raise AssertionError("transform outside forms.sfft")

    original = forms.sfft
    forms.sfft = types.SimpleNamespace(fftn=counted(original.fftn),
                                       ifftn=counted(original.ifftn))
    for name in ("fftn", "ifftn", "fft", "ifft"):
        monkeypatch.setattr(original, name, uncounted)
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, uncounted)
    try:
        for op in (wedge, contract):
            del calls[:]
            op(a, b)
            assert "fftn" in calls and "ifftn" in calls
        del calls[:]
        ext_d(b)
        assert calls == ["ifftn"]       # b's spectra are cached by now
        del calls[:]
        lee = lee_form(w)               # theta = d log f: a potential solve
        assert lee.potential.any() and "ifftn" in calls
        del calls[:]
        StageData(a, b.comps[0], 0.0)   # the rate channel too
        assert "fftn" in calls
    finally:
        forms.sfft = original


def test_norm_and_arithmetic():
    g = GridSpec(2, 8)
    a = form_from_components(g, 1, {(0,): 3.0})
    b = form_from_components(g, 1, {(1,): 4.0})
    c = a + b
    assert c.norm() == pytest.approx(5.0)
    assert (c * 2.0).norm() == pytest.approx(10.0)
    assert (c - c).norm() == 0.0
