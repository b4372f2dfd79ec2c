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
is sized from its operands' bands: with ext_a and ext_b the per-axis
largest |m_j| above 1e-13 of each operand's peak coefficient, and reach =
max_j (ext_a[j] + ext_b[j]), a product with reach <= N/2 - 1 is taken
directly on the grid.  Any other product zero-pads its operands' cached
spectra onto a de-aliasing grid of M = next_fast_len(N/2 + reach + 1) nodes
per axis, multiplies there and is truncated back, so only DiffForm.spectra
transforms an operand forward.  Product modes reach |p_j| <= reach and the
kept buckets are |q_j| <= N/2, so a product mode could fold onto a kept
bucket only across |p_j - q_j| >= M > N/2 + reach, which no pair spans.
Two full-band operands (reach N) get Orszag's 3/2 grid, next_fast_len(3N/2
+ 1); a band-1 factor of a full-band one gets next_fast_len(N + 2).  The
one approximation is the band cut: modes at or below 1e-13 of an operand's
peak do not count towards its band, so products are alias-free above that
cut, on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, zip_longest
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


def _pack_pairs(fields) -> np.ndarray:
    """Fields f_0, f_1, ... as complex fields f_0 + i f_1, f_2 + i f_3, ...,
    each formed in place.  Linear, so the spectra of u_0, u_1 pack into the
    spectrum of u_0 + i u_1."""
    z = np.empty(((len(fields) + 1) // 2,) + fields[0].shape, dtype=complex)
    for zh, even, odd in zip_longest(z, fields[0::2], fields[1::2], fillvalue=0.0):
        np.multiply(odd, 1j, out=zh)
        zh += even
    return z


def _unpack_pairs(z: np.ndarray, count: int) -> np.ndarray:
    """Inverse of _pack_pairs for fields that a real-linear map sent to reals."""
    out = np.empty((count,) + z.shape[1:])
    out[0::2] = z.real
    out[1::2] = z.imag[:count // 2]
    return out


def upsample_values(spectra, grid: GridSpec, M: int) -> np.ndarray:
    """Trig-interpolate real fields onto a grid of M > N nodes per axis (exact).

    spectra is a sequence of coefficient stacks, as DiffForm.spectra holds
    them; the result stacks the fields' values on the fine grid in order.
    The Nyquist bucket is split evenly between -N/2 and +N/2.  Two fields'
    coefficients share each complex inverse transform, and none is
    transformed forward.  Each axis is padded just before its own inverse
    transform, so the earlier transforms run on the smaller array.
    """
    fields = [field for stack in spectra for field in stack]
    spec = _pack_pairs(fields)
    for ax in range(grid.n, 0, -1):
        spec = sfft.ifftn(_pad_axis(spec, ax, grid.N, M), axes=(ax,),
                          norm="forward", overwrite_x=True)
    return _unpack_pairs(spec, len(fields))


def downsample_values(fine: np.ndarray, grid: GridSpec, M: int) -> np.ndarray:
    """Project a stack of fields on a grid of M > N nodes per axis back to
    the base grid (band truncation, the +-N/2 pair folded into the Nyquist
    bucket); returns real, contiguous base-grid arrays.
    """
    spec = _pack_pairs(fine)
    axes = tuple(range(1, grid.n + 1))
    for ax in axes:
        spec = _trunc_axis(sfft.fftn(spec, axes=(ax,), norm="forward", overwrite_x=True),
                           ax, grid.N, M)
    vals = sfft.ifftn(spec, axes=axes, norm="forward", overwrite_x=True)
    return _unpack_pairs(vals, fine.shape[0])


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


def _product_nodes(a: DiffForm, b: DiffForm) -> int:
    """Nodes per axis on which the products of a and b are alias-free.

    N when reach = max_j (ext_a[j] + ext_b[j]) <= N/2 - 1, so the products
    are taken on the grid; otherwise M = next_fast_len(N/2 + reach + 1),
    which exceeds N because reach >= N/2 there.  ext is _band_extent, so
    modes at or below 1e-13 of an operand's peak are not counted.
    """
    N = a.grid.N
    reach = int(np.max(_band_extent(a) + _band_extent(b)))
    return N if reach <= N // 2 - 1 else next_fast_len(N // 2 + reach + 1)


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Exterior product a ^ b with de-aliased coefficient products.

    When both operands are band-limited enough that their products fit on
    the grid, they are multiplied node by node; otherwise on the smallest
    fast de-aliasing grid their bands allow, then truncated back.
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

    The grid comes from _product_nodes.  With reach = max_j (ext_a[j] +
    ext_b[j]) <= N/2 - 1 the products are taken on the grid, where none of
    them wraps.  Otherwise the cached spectra the bands were read from go
    up to M = next_fast_len(N/2 + reach + 1) nodes per axis in one call,
    the sums are formed there, and every output component comes back down
    in one stacked call.  A product mode |p_j| <= reach would fold onto a
    kept bucket |q_j| <= N/2, the Nyquist one included, only if
    |p_j - q_j| >= M, but |p_j - q_j| <= N/2 + reach < M.  So the result is
    the band truncation of the exact product of the trigonometric
    interpolants, up to the operand modes at or below 1e-13 of their peak
    that the bands leave out.
    """
    grid = a.grid
    ncomp = comb(grid.n, degree)
    M = _product_nodes(a, b)
    if M == grid.N:
        return DiffForm(grid, degree,
                        np.stack(_sum_terms(rows, a.comps, b.comps, [None] * ncomp)))
    fine = upsample_values((a.spectra(), b.spectra()), grid, M)
    ka = a.comps.shape[0]
    acc = _sum_terms(rows, fine[:ka], fine[ka:], np.zeros((ncomp,) + (M,) * grid.n))
    return DiffForm(grid, degree, downsample_values(acc, grid, M))


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

# complex entries (16 B each, 1 MB) that the transient arrays of one
# ModeInterpolator chunk hold, so that they stay in a core's L2 cache
INTERP_CHUNK = 2**16


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

    A call builds, per axis j, a table of e^{2 pi i k x_j} at every point
    for the exponents k that some folded mode has as m_j, and no other: from
    one complex exponential per point, each power up to the largest kept
    |k| is the one before it times e^{2 pi i x_j}, and a negative
    exponent's row is the conjugate of its power (the split Nyquist
    bucket's the real part), formed only when kept.  An axis on which every
    mode is 0 has no table.  Then, chunk by chunk, it gathers the first
    axis's rows into an (F, chunk) phase block for the F folded modes,
    multiplies in the other axes' rows, and contracts the block's real and
    imaginary parts with the coefficients in one real matrix product.

    Memory: a build holds the input stack, its real magnitudes and
    (channels, F) coefficients, never a full-grid derivative channel.  A
    call holds its output and its axis tables, 16 B per point per kept
    exponent (at most n N of them).  A chunk's transient arrays (the phase
    block, its gather temporary and its real/imaginary copy, the product)
    hold about INTERP_CHUNK = 2**16 complex entries, 1 MB.  At 2**17 they
    outgrow a 2 MB per-core L2 cache and each chunk faults in fresh pages:
    on such a host the 43 interpolator calls of a T^2 N = 64 benchmark pass
    took about 1.7 times as long as at 2**16, with 5 times the minor page
    faults, while 2**14 .. 2**16 ran on a par.  A chunk has at least 64
    points, so the chunk's transient peak is at most max(1 MB, 64 points x
    (3 F + channels) x 16 B), about 100 MB with every mode of a T^4 N = 16
    grid kept (F = 32,776), whose 65,536 nodes then also need 57 table
    rows, 60 MB.
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
        # per axis: the kept exponents (the table rows) and each mode's row;
        # an axis on which every kept mode is 0 contributes a factor of 1
        self._axes = []
        for j in range(grid.n):
            exps, rows = np.unique(self.modes[:, j], return_inverse=True)
            if exps.any():
                self._axes.append((j, {int(e): r for r, e in enumerate(exps)}, rows))

    def _table(self, at: dict, x: np.ndarray) -> np.ndarray:
        """e^{2 pi i k x} for each kept exponent k of one axis, at the
        coordinates x, in row at[k]: each power of e^{2 pi i x} is the one
        before it times e^{2 pi i x}, up to the largest kept |k|."""
        base = np.exp(2j * np.pi * np.mod(x, 1.0))
        table = np.empty((len(at), x.size), dtype=complex)
        if 0 in at:
            table[at[0]] = 1.0
        power = base
        for k in range(1, max(max(at), -min(at)) + 1):
            if k > 1:
                power = power * base
            if k in at:
                table[at[k]] = power
            if -k in at:
                # 2k = N is the split Nyquist bucket: (e^{pi i N x} + e^{-pi i N x}) / 2
                table[at[-k]] = power.real if 2 * k == self.grid.N else power.conj()
        return table

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        P, F = points.shape[0], self.modes.shape[0]
        out = np.empty((self.nf, P))
        # with no axis table every kept mode (at most one) is m = 0
        (first, first_rows), *others = (
            [(self._table(at, points[:, j]), rows) for j, at, rows in self._axes]
            or [(np.ones((1, P), dtype=complex), np.zeros(F, dtype=int))])
        chunk = max(64, INTERP_CHUNK // (3 * F + self.nf))
        for lo in range(0, P, chunk):
            sl = slice(lo, min(lo + chunk, P))
            # the (F, chunk) phase block e^{2 pi i m.x}
            ph = first[first_rows, sl]
            for table, rows in others:
                ph *= table[rows, sl]
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
