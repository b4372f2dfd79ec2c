"""Spectral exterior calculus on the flat torus T^n = (R/Z)^n, n in {2, 3, 4}.

A degree-k form is stored as real node values on a regular N^n grid, one
scalar array per strictly increasing component index set, the sets ordered
lexicographically; the array is read-only once the form is built, so the
cached spectra stay valid.  The signs of this component order live in one
place, ``product_table``; wedge, contraction, d and d* all read them from
there.

Spectra are Fourier coefficients, c_m = N^-n sum_x f(x) e^{-2 pi i m.x}
(norm="forward", as on the de-aliasing grid), and only this module
transforms.  Derivatives are exact on band-limited data (coefficients times
2*pi*i*m, Nyquist bucket zeroed).  A pointwise product (wedge, contraction)
of operands whose per-axis bands add up to less than N/2 is taken directly
on the grid.  Any other product is evaluated on a de-aliasing grid of
M = GridSpec.fine_N > 3N/2 nodes per axis (Orszag's 3/2 rule) and truncated
back: product modes reach |m_j| <= N, and with M > 3N/2 none of them wraps
onto a kept bucket |m_j| <= N/2, so every product is alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations
from math import comb

import numpy as np
from scipy import fft as sfft
from scipy.fft import next_fast_len


class GridMismatch(ValueError):
    """Operands live on different grids."""


class DegreeError(ValueError):
    """Form degree outside the valid range for the requested operation."""


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for T^n: n axes, N nodes per axis, unit period."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (2, 3, 4):
            raise ValueError(f"dimension must be 2, 3 or 4, got {self.n}")
        N = self.N
        if N < 8 or (N & (N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {N}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def num_nodes(self) -> int:
        return self.N**self.n

    @property
    def fine_N(self) -> int:
        """Nodes per axis of the de-aliasing grid: the first fast FFT size > 3N/2."""
        return next_fast_len(3 * self.N // 2 + 1)

    @property
    def fine_shape(self) -> tuple[int, ...]:
        return (self.fine_N,) * self.n

    def axes(self) -> np.ndarray:
        return np.arange(self.N) / self.N

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (N^n, n) array, C-ordered."""
        grids = np.meshgrid(*([self.axes()] * self.n), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def coordinates(self) -> list[np.ndarray]:
        """Coordinate fields x_1 .. x_n as N^n arrays."""
        return list(np.meshgrid(*([self.axes()] * self.n), indexing="ij"))

    def mode_axis(self, j: int) -> np.ndarray:
        """Integer FFT modes along axis j, shaped for broadcasting."""
        m = np.fft.fftfreq(self.N, 1.0 / self.N).astype(int)
        shape = [1] * self.n
        shape[j] = self.N
        return m.reshape(shape)

    def derivative_multiplier(self, j: int) -> np.ndarray:
        """Spectral d/dx_j multiplier 2*pi*i*m_j with the Nyquist bucket zeroed."""
        return self.multiplier_of(self.mode_axis(j))

    def multiplier_of(self, m: np.ndarray) -> np.ndarray:
        """2*pi*i*m for integer modes m, 0 where |m| = N/2 (the Nyquist bucket)."""
        return 2j * np.pi * np.where(2 * np.abs(m) == self.N, 0, m)


def index_sets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Strictly increasing index sets of size k in {0..n-1}, lex order."""
    return tuple(combinations(range(n), k))


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Sign of sorting left+right into increasing order, or 0 on collision.

    Returns (sign, merged) with merged strictly increasing.
    """
    if set(left) & set(right):
        return 0, ()
    merged = tuple(sorted(left + right))
    seq = left + right
    sign = 1
    # count inversions of the concatenation (tiny tuples, quadratic is fine)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign, merged


@cache
def product_table(n: int, k: int, l: int) -> tuple[tuple[int, int, int, int], ...]:
    """Rows (ia, ib, out, sign) with dx_{A_ia} ^ dx_{B_ib} = sign * dx_{C_out}.

    A, B and C are index_sets(n, k), index_sets(n, l) and
    index_sets(n, k + l).  Rows run over ia, then ib; pairs whose product
    vanishes are left out.
    """
    out_sets = index_sets(n, k + l)
    rows = []
    for ia, sa in enumerate(index_sets(n, k)):
        for ib, sb in enumerate(index_sets(n, l)):
            sign, merged = merge_sign(sa, sb)
            if sign:
                rows.append((ia, ib, out_sets.index(merged), sign))
    return tuple(rows)


def _sum_terms(rows, coeffs, comps, out):
    """out[dst] += sign * coeffs[j] * comps[src] over rows (j, src, dst, sign).

    Terms are added in row order.  out is a zero array, or a list of None
    in which the first term of each output is stored as it is; the two
    differ only in the sign of an all-zero sum.  An exact scalar zero
    coefficient contributes nothing and is skipped.
    """
    for j, src, dst, sign in rows:
        c = coeffs[j]
        if np.ndim(c) == 0 and c == 0.0:
            continue
        term = c * comps[src]
        if out[dst] is None:
            out[dst] = term if sign > 0 else -term
        elif sign > 0:
            out[dst] += term
        else:
            out[dst] -= term
    return out


def _zeros_for(coeffs, comps, ncomp: int) -> np.ndarray:
    return np.zeros((ncomp,) + np.shape(comps[0]),
                    dtype=np.result_type(coeffs[0], comps[0]))


def _contract_rows(n: int, k: int) -> list:
    # i_{e_j} dx_S = sign * dx_T exactly when dx_j ^ dx_T = sign * dx_S
    return [(j, src, dst, sign) for j, dst, src, sign in product_table(n, 1, k - 1)]


def wedge_axes(coeffs, comps, n: int, k: int) -> np.ndarray:
    """Components of (sum_j c_j dx_j) ^ a from the k-form components of a.

    Each c_j is a number, a spectral multiplier or a field.  Each output
    component sums its terms by source component, then by ascending j.
    """
    rows = sorted(product_table(n, 1, k), key=lambda r: r[1])
    return _sum_terms(rows, coeffs, comps, _zeros_for(coeffs, comps, comb(n, k + 1)))


def contract_axes(coeffs, comps, n: int, k: int) -> np.ndarray:
    """Components of i_V a, V = sum_j c_j e_j, from the k-form components of a.

    Coefficients are as in wedge_axes; each output component sums its
    terms by ascending j.
    """
    return _sum_terms(_contract_rows(n, k), coeffs, comps,
                      _zeros_for(coeffs, comps, comb(n, k - 1)))


class DiffForm:
    """Differential k-form on a GridSpec, real node values per component.

    ``comps`` is a read-only view: build the component array first, then
    wrap it.
    """

    __slots__ = ("grid", "degree", "comps", "_spec_cache")

    def __init__(self, grid: GridSpec, degree: int, comps: np.ndarray | None = None):
        if not 0 <= degree <= grid.n:
            raise DegreeError(f"degree {degree} invalid on T^{grid.n}")
        ncomp = comb(grid.n, degree)
        if comps is None:
            comps = np.zeros((ncomp,) + grid.shape)
        else:
            comps = np.asarray(comps, dtype=float)
            if comps.shape != (ncomp,) + grid.shape:
                raise ValueError(
                    f"component array has shape {comps.shape}, "
                    f"expected {(ncomp,) + grid.shape}"
                )
        comps = comps.view()
        comps.flags.writeable = False
        self.grid = grid
        self.degree = degree
        self.comps = comps
        self._spec_cache = None

    # -- bookkeeping ----------------------------------------------------

    def spectra(self) -> np.ndarray:
        """Fourier coefficients of every component (cached, read-only like comps)."""
        if self._spec_cache is None:
            spec = sfft.fftn(self.comps, axes=tuple(range(1, self.grid.n + 1)),
                             norm="forward")
            spec.flags.writeable = False
            self._spec_cache = spec
        return self._spec_cache

    @classmethod
    def from_spectra(cls, grid: GridSpec, degree: int, spec: np.ndarray) -> "DiffForm":
        vals = sfft.ifftn(spec, axes=tuple(range(1, grid.n + 1)), norm="forward")
        # a real contiguous copy, so the complex transform is freed on return
        return cls(grid, degree, vals.real.copy())

    # -- arithmetic (same grid and degree) ------------------------------

    def _check(self, other: "DiffForm"):
        if self.grid != other.grid:
            raise GridMismatch("forms on different grids")
        if self.degree != other.degree:
            raise DegreeError("forms of different degree")

    def __add__(self, other: "DiffForm") -> "DiffForm":
        self._check(other)
        return DiffForm(self.grid, self.degree, self.comps + other.comps)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        self._check(other)
        return DiffForm(self.grid, self.degree, self.comps - other.comps)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.grid, self.degree, -self.comps)

    def __mul__(self, c: float) -> "DiffForm":
        return DiffForm(self.grid, self.degree, self.comps * float(c))

    __rmul__ = __mul__

    def norm(self) -> float:
        """L2 norm with components orthonormal and unit total volume."""
        return float(np.sqrt(np.mean(np.sum(self.comps * self.comps, axis=0))))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.comps))) if self.comps.size else 0.0


def scalar_form(grid: GridSpec, values) -> DiffForm:
    """Wrap a scalar field (ndarray or constant) as a degree-0 form."""
    vals = np.broadcast_to(np.asarray(values, dtype=float), grid.shape)
    return DiffForm(grid, 0, vals[None].copy())


def form_from_components(grid: GridSpec, degree: int, parts: dict) -> DiffForm:
    """Assemble a form from {index_set: ndarray-or-constant} entries."""
    sets = index_sets(grid.n, degree)
    comps = np.zeros((len(sets),) + grid.shape)
    for s, vals in parts.items():
        comps[sets.index(tuple(sorted(s)))] = np.broadcast_to(
            np.asarray(vals, dtype=float), grid.shape
        )
    return DiffForm(grid, degree, comps)


# -- de-aliased products -------------------------------------------------


def _axis_slice(ndim: int, ax: int, a: int, b: int) -> tuple:
    idx = [slice(None)] * ndim
    idx[ax] = slice(a, b)
    return tuple(idx)


def _pad_axis(spec: np.ndarray, ax: int, N: int, M: int) -> np.ndarray:
    """Zero-pad one FFT axis from N to M > N buckets, splitting the Nyquist one."""
    shape = list(spec.shape)
    shape[ax] = M
    out = np.zeros(shape, dtype=complex)
    half = N // 2
    sl = partial(_axis_slice, spec.ndim, ax)
    out[sl(0, half)] = spec[sl(0, half)]
    out[sl(M - half + 1, M)] = spec[sl(half + 1, N)]
    nyq = spec[sl(half, half + 1)] / 2.0
    out[sl(half, half + 1)] = nyq
    out[sl(M - half, M - half + 1)] = nyq
    return out


def _trunc_axis(spec: np.ndarray, ax: int, N: int, M: int) -> np.ndarray:
    """Truncate one FFT axis from M to N buckets, folding the +-N/2 pair."""
    half = N // 2
    sl = partial(_axis_slice, spec.ndim, ax)
    out = np.concatenate((spec[sl(0, half + 1)], spec[sl(M - half + 1, M)]), axis=ax)
    out[sl(half, half + 1)] += spec[sl(M - half, M - half + 1)]
    return out


def _pack_pairs(stack: np.ndarray) -> np.ndarray:
    """Real fields u_0, u_1, ... as complex fields u_0 + i u_1, u_2 + i u_3, ..."""
    count = stack.shape[0]
    z = np.zeros(((count + 1) // 2,) + stack.shape[1:], dtype=complex)
    z.real = stack[0::2]
    z.imag[:count // 2] = stack[1::2]
    return z


def _unpack_pairs(z: np.ndarray, count: int) -> np.ndarray:
    """Inverse of _pack_pairs for fields that a real-linear map sent to reals."""
    out = np.empty((count,) + z.shape[1:])
    out[0::2] = z.real
    out[1::2] = z.imag[:count // 2]
    return out


def upsample_values(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Trig-interpolate node values onto the de-aliasing grid (exact).

    vals is one field of shape grid.shape or a stack of them; the result
    has grid.fine_N nodes per axis in place of N.  Two fields share each
    complex transform.  Each axis is padded just before its own inverse
    transform, so the earlier transforms run on the smaller array.
    """
    vals = np.asarray(vals, dtype=float)
    lead = vals.shape[:vals.ndim - grid.n]
    stack = vals.reshape((-1,) + grid.shape)
    axes = tuple(range(1, grid.n + 1))
    spec = sfft.fftn(_pack_pairs(stack), axes=axes, norm="forward", overwrite_x=True)
    for ax in reversed(axes):
        spec = sfft.ifftn(_pad_axis(spec, ax, grid.N, grid.fine_N), axes=(ax,),
                          norm="forward", overwrite_x=True)
    return _unpack_pairs(spec, stack.shape[0]).reshape(lead + grid.fine_shape)


def downsample_values(fine: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Project de-aliasing-grid values back to the base grid (band truncation).

    Takes one field or a stack, like upsample_values, and returns real,
    contiguous base-grid arrays.
    """
    fine = np.asarray(fine, dtype=float)
    lead = fine.shape[:fine.ndim - grid.n]
    stack = fine.reshape((-1,) + grid.fine_shape)
    spec = _pack_pairs(stack)
    axes = tuple(range(1, grid.n + 1))
    for ax in axes:
        spec = _trunc_axis(sfft.fftn(spec, axes=(ax,), norm="forward", overwrite_x=True),
                           ax, grid.N, grid.fine_N)
    vals = sfft.ifftn(spec, axes=axes, norm="forward", overwrite_x=True)
    return _unpack_pairs(vals, stack.shape[0]).reshape(lead + grid.shape)


# -- exterior operations -------------------------------------------------


def _band_extent(a: DiffForm) -> np.ndarray:
    """Per-axis largest |mode| above 1e-13 of the peak coefficient."""
    grid = a.grid
    mags = np.abs(a.spectra()).max(axis=0)
    peak = mags.max()
    if peak == 0.0:
        return np.zeros(grid.n, dtype=int)
    active = mags > 1e-13 * peak
    ext = np.empty(grid.n, dtype=int)
    for j in range(grid.n):
        mj = np.broadcast_to(np.abs(grid.mode_axis(j)), grid.shape)
        ext[j] = int(np.max(np.where(active, mj, 0)))
    return ext


def _products_fit(a: DiffForm, b: DiffForm) -> bool:
    """True when pointwise products of a and b cannot alias on the grid."""
    return bool(np.all(_band_extent(a) + _band_extent(b) <= a.grid.N // 2 - 1))


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Exterior product a ^ b with de-aliased coefficient products.

    When both operands are band-limited enough that their products fit on
    the grid, they are multiplied node by node; otherwise on the
    de-aliasing grid of more than 3N/2 nodes per axis, then truncated back.
    """
    if a.grid != b.grid:
        raise GridMismatch("wedge operands on different grids")
    grid = a.grid
    k, l = a.degree, b.degree
    if k + l > grid.n:
        raise DegreeError(f"wedge degree {k}+{l} exceeds dimension {grid.n}")
    return _product(a, b, product_table(grid.n, k, l), k + l)


def _product(a: DiffForm, b: DiffForm, rows, degree: int) -> DiffForm:
    """The degree-form sum of sign * a_j * b_src over rows (j, src, dst, sign).

    Products are taken on the grid when they fit.  Otherwise every
    component of both operands goes up to the de-aliasing grid in one
    stacked call, the sums are formed there, and every output component
    comes back down in one stacked call.  With more than 3N/2 nodes per
    axis no product of two modes |m_j| <= N/2 aliases onto a kept bucket,
    the Nyquist one included, so the result is the band truncation of the
    exact product of the trigonometric interpolants.
    """
    grid = a.grid
    ncomp = comb(grid.n, degree)
    if _products_fit(a, b):
        return DiffForm(grid, degree,
                        np.stack(_sum_terms(rows, a.comps, b.comps, [None] * ncomp)))
    fine = upsample_values(np.concatenate((a.comps, b.comps)), grid)
    ka = a.comps.shape[0]
    acc = _sum_terms(rows, fine[:ka], fine[ka:], np.zeros((ncomp,) + grid.fine_shape))
    return DiffForm(grid, degree, downsample_values(acc, grid))


def ext_d(a: DiffForm) -> DiffForm:
    """Exterior derivative, spectral in each coordinate."""
    grid = a.grid
    k = a.degree
    if k >= grid.n:
        raise DegreeError(f"d of a top-degree ({k}) form is not representable")
    mult = [grid.derivative_multiplier(j) for j in range(grid.n)]
    return DiffForm.from_spectra(grid, k + 1, wedge_axes(mult, a.spectra(), grid.n, k))


def contract(x: DiffForm, a: DiffForm) -> DiffForm:
    """Interior product i_X a.

    X is given by its metric-dual 1-form (identical components on the flat
    torus).  Coefficient products are de-aliased.
    """
    if x.grid != a.grid:
        raise GridMismatch("contraction operands on different grids")
    if x.degree != 1:
        raise DegreeError("vector field must be given as a degree-1 form")
    if a.degree == 0:
        raise DegreeError("cannot contract a scalar field")
    return _product(x, a, _contract_rows(a.grid.n, a.degree), a.degree - 1)


def l2_inner(a: DiffForm, b: DiffForm) -> float:
    """L2 pairing: grid mean of the pointwise component dot product."""
    if a.grid != b.grid:
        raise GridMismatch("inner product operands on different grids")
    if a.degree != b.degree:
        raise DegreeError("inner product needs equal degrees")
    return float(np.mean(np.sum(a.comps * b.comps, axis=0)))


# -- off-grid evaluation -------------------------------------------------


class ModeInterpolator:
    """Evaluate several grid scalars at arbitrary points by trig interpolation.

    spectra is the (channels, *grid.shape) stack of Fourier coefficients c_m
    that DiffForm.spectra holds; channel c at a point x is
    Re sum_m c_m e^{2 pi i m.x} over the kept modes m.  The first
    ``gradients`` channels also give their spatial derivatives: the output
    channels are those leading channels, then d/dx_j of channel i at index
    gradients + i n + j (coefficients c_m times derivative_multiplier(j)),
    then the remaining input channels.  ``nf`` counts every output channel.

    Modes at or below rel_tol * max|finite coeff| in every output channel
    are dropped, non-finite ones kept: a small rel_tol (1e-14) is what the
    flow integrator uses on analytically decaying spectra, and rel_tol = 0
    keeps every nonzero mode, which is exact trigonometric interpolation of
    the node values.  A derivative channel (i, j) is measured as
    |c_i(m)| |2 pi m_j| (Nyquist bucket 0), so the derivatives enter the
    rule through max_i |c_i(m)| times the largest |2 pi m_j|, one grid array.

    The Nyquist bucket is split the way upsample_values splits it: a -N/2
    component m_j stands for half the mode at -N/2 and half at +N/2, so it
    contributes the real factor cos(pi N x_j) in place of e^{-pi i N x_j}.

    Each kept mode m whose negation -m (mod N) is also kept is folded with
    it into one term with coefficient c_m + conj(c_-m).  That is an exact
    identity for the real part, so no Hermitian symmetry is assumed.  Modes
    whose components are all 0 or -N/2 are their own partners, and modes
    whose partner was dropped stay unpaired.  ``modes`` is the (F, n)
    integer array of these folded representatives, about half the kept
    modes.  Derivative coefficients are formed only on them, as
    c_m mult_j(m) + conj(c_-m mult_j(-m)).

    A call builds, per axis, the powers e^{2 pi i k x_j} for |k| up to the
    largest kept |m_j| from one complex exponential per point, multiplies
    the tables into an (F, points) phase block for the F folded modes and
    contracts its real and imaginary parts with the coefficients in one
    real matrix product.

    Memory: a build holds the input stack, its real magnitudes and
    (channels, F) coefficients, never a full-grid derivative channel.
    Points go in chunks whose transient arrays (axis tables, the phase
    block, its gather temporary and its real/imaginary copy, the product)
    hold about 2**17 complex entries, 2 MB, so the work stays in cache.  A
    chunk has at least 64 points, so the transient peak is at most
    max(2 MB, 64 points x (table rows + 3 F + channels) x 16 B), about
    120 MB with every mode of a T^4 N = 16 grid kept.
    """

    def __init__(self, grid: GridSpec, spectra: np.ndarray, rel_tol: float,
                 gradients: int = 0):
        spectra = np.asarray(spectra, dtype=complex)
        flat = spectra.reshape(spectra.shape[0], -1)
        mags = np.abs(flat)
        top = mags.max(where=np.isfinite(mags), initial=0.0)
        if gradients:
            reach = np.zeros(grid.shape)
            for j in range(grid.n):
                reach = np.maximum(reach, np.abs(grid.derivative_multiplier(j)))
            lead = mags[:gradients]
            dmag = lead.max(axis=0, where=np.isfinite(lead), initial=0.0) * reach.ravel()
            top = max(top, dmag.max(where=np.isfinite(dmag), initial=0.0))
        keep = ~(mags <= rel_tol * top).all(axis=0)
        if gradients:
            # dmag skips non-finite coefficients: their own channel keeps the mode
            keep |= dmag > rel_tol * top
        active = np.nonzero(keep)[0]
        idx = np.array(np.unravel_index(active, grid.shape))
        freqs = np.fft.fftfreq(grid.N, 1.0 / grid.N).astype(int)[idx]
        neg = np.ravel_multi_index(tuple(-idx % grid.N), grid.shape)
        paired = keep[neg] & (neg != active)
        # each pair is represented by its member with the lower flat index
        rep = ~(paired & (neg < active))
        # a fancy-indexed copy: the fold below never writes into spectra
        coeffs = flat[:, active[rep]]
        fold = paired[rep]
        partner = neg[rep][fold]
        coeffs[:, fold] += flat[:, partner].conj()
        self.grid = grid
        self.modes = freqs[:, rep].T
        if gradients:
            m = self.modes.T
            grads = flat[:gradients, None, active[rep]] * grid.multiplier_of(m)
            grads[:, :, fold] += (flat[:gradients, None, partner]
                                  * grid.multiplier_of(-m[:, fold])).conj()
            coeffs = np.concatenate((coeffs[:gradients],
                                     grads.reshape(gradients * grid.n, -1),
                                     coeffs[gradients:]))
        self.nf = coeffs.shape[0]
        self._weights = np.hstack([coeffs.real, -coeffs.imag])
        kmax = np.abs(self.modes).max(axis=0, initial=0)
        # an axis on which every kept mode is 0 contributes a factor of 1
        self._axes = [(j, int(k), self.modes[:, j] + k)
                      for j, k in enumerate(kmax) if k > 0]

    def _phases(self, points: np.ndarray) -> np.ndarray:
        """e^{2 pi i m.x} for every kept mode m, as an (F, points) block."""
        ph = np.ones((self.modes.shape[0], points.shape[0]), dtype=complex)
        for j, k, rows in self._axes:
            base = np.exp(2j * np.pi * np.mod(points[:, j], 1.0))
            table = np.empty((2 * k + 1, points.shape[0]), dtype=complex)
            table[k] = 1.0
            table[k + 1:] = np.cumprod(np.broadcast_to(base, (k, base.size)), axis=0)
            table[:k] = table[:k:-1].conj()
            if 2 * k == self.grid.N:
                # the split Nyquist bucket: (e^{pi i N x} + e^{-pi i N x}) / 2
                table[0] = table[2 * k].real
            ph *= table[rows]
        return ph

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((self.nf, points.shape[0]))
        rows = sum(2 * k + 1 for _, k, _ in self._axes)
        per_point = rows + 3 * self.modes.shape[0] + self.nf
        chunk = max(64, 2**17 // per_point)
        for lo in range(0, points.shape[0], chunk):
            sl = slice(lo, min(lo + chunk, points.shape[0]))
            ph = self._phases(points[sl])
            out[:, sl] = self._weights @ np.concatenate((ph.real, ph.imag))
        return out


# -- random band-limited forms (tests, identity sweeps) -------------------


def random_band_limited(
    grid: GridSpec,
    degree: int,
    bandwidth: int,
    rng: np.random.Generator,
    amplitude: float = 1.0,
) -> DiffForm:
    """Random real form with modes supported on |m_j| <= bandwidth, unit-ish norm."""
    if bandwidth >= grid.N // 2:
        raise ValueError("bandwidth must stay below the Nyquist band")
    vals = rng.standard_normal((comb(grid.n, degree),) + grid.shape)
    mask = np.ones(grid.shape, dtype=bool)
    for j in range(grid.n):
        mj = np.abs(grid.mode_axis(j))
        mask &= np.broadcast_to(mj <= bandwidth, grid.shape)
    spec = DiffForm(grid, degree, vals).spectra() * mask
    out = DiffForm.from_spectra(grid, degree, spec)
    nrm = out.norm()
    if nrm > 0:
        out = out * (amplitude / nrm)
    return out
