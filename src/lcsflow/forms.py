"""Spectral exterior calculus on the flat torus T^n = (R/Z)^n, n in {2, 3, 4}.

A degree-k form is stored as real node values on a regular N^n grid, one
scalar array per strictly increasing component index set, the sets ordered
lexicographically; the array is read-only once the form is built, so the
cached spectra stay valid.  The signs of this component order live in one
place, ``product_table``; wedge, contraction, d, d* and the Hodge star all
read them from there.

Derivatives are exact on band-limited data (FFT modes multiplied by
2*pi*i*m, Nyquist bucket zeroed).  A pointwise product (wedge, contraction)
of operands whose per-axis bands add up to less than N/2 is taken directly
on the grid; any other product is evaluated on a 2x refined grid and
truncated back, so products of forms with combined bandwidth < N are
alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

import numpy as np
from scipy import fft as sfft


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
        m = np.fft.fftfreq(self.N, 1.0 / self.N).astype(int)
        m[self.N // 2] = 0
        shape = [1] * self.n
        shape[j] = self.N
        return (2j * np.pi * m).reshape(shape)

    def true_multiplier(self, j: int) -> np.ndarray:
        """2*pi*i*m_j keeping the Nyquist mode (per-mode algebra, not d)."""
        m = np.fft.fftfreq(self.N, 1.0 / self.N).astype(int)
        shape = [1] * self.n
        shape[j] = self.N
        return (2j * np.pi * m).reshape(shape)


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

    @property
    def index_set_list(self) -> tuple[tuple[int, ...], ...]:
        return index_sets(self.grid.n, self.degree)

    def component(self, s: tuple[int, ...]) -> np.ndarray:
        return self.comps[self.index_set_list.index(tuple(s))]

    def spectra(self) -> np.ndarray:
        """FFT of every component (cached and read-only, like the components)."""
        if self._spec_cache is None:
            spec = sfft.fftn(self.comps, axes=tuple(range(1, self.grid.n + 1)))
            spec.flags.writeable = False
            self._spec_cache = spec
        return self._spec_cache

    @classmethod
    def from_spectra(cls, grid: GridSpec, degree: int, spec: np.ndarray) -> "DiffForm":
        vals = sfft.ifftn(spec, axes=tuple(range(1, grid.n + 1))).real
        out = cls(grid, degree, vals)
        return out

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


def zero_form(grid: GridSpec, degree: int) -> DiffForm:
    return DiffForm(grid, degree)


def scalar_form(grid: GridSpec, values) -> DiffForm:
    """Wrap a scalar field (ndarray or constant) as a degree-0 form."""
    vals = np.broadcast_to(np.asarray(values, dtype=float), grid.shape)
    return DiffForm(grid, 0, vals[None].copy())


def basis_form(grid: GridSpec, s: tuple[int, ...], coeff: float = 1.0) -> DiffForm:
    """Constant form coeff * dx_s (0-based index set)."""
    s = tuple(sorted(s))
    k = len(s)
    comps = np.zeros((comb(grid.n, k),) + grid.shape)
    comps[index_sets(grid.n, k).index(s)] = coeff
    return DiffForm(grid, k, comps)


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


def _pad_axis(spec: np.ndarray, ax: int, N: int) -> np.ndarray:
    """Zero-pad one FFT axis from N to 2N, splitting the Nyquist bucket."""
    shape = list(spec.shape)
    shape[ax] = 2 * N
    out = np.zeros(shape, dtype=complex)
    half = N // 2

    def sl(a, b):
        idx = [slice(None)] * len(shape)
        idx[ax] = slice(a, b)
        return tuple(idx)

    out[sl(0, half)] = spec[sl(0, half)]
    out[sl(2 * N - half + 1, 2 * N)] = spec[sl(half + 1, N)]
    nyq = [slice(None)] * len(shape)
    nyq[ax] = half
    src = [slice(None)] * len(shape)
    src[ax] = half
    out[tuple(nyq)] = spec[tuple(src)] / 2.0
    nyq[ax] = 2 * N - half
    out[tuple(nyq)] = spec[tuple(src)] / 2.0
    return out


def _trunc_axis(spec: np.ndarray, ax: int, N: int) -> np.ndarray:
    """Truncate one FFT axis from 2N to N, folding the Nyquist pair."""
    shape = list(spec.shape)
    shape[ax] = N
    out = np.zeros(shape, dtype=complex)
    half = N // 2

    def sl(a, b):
        idx = [slice(None)] * len(shape)
        idx[ax] = slice(a, b)
        return tuple(idx)

    out[sl(0, half)] = spec[sl(0, half)]
    out[sl(half + 1, N)] = spec[sl(2 * N - half + 1, 2 * N)]
    dst = [slice(None)] * len(shape)
    dst[ax] = half
    src_p = [slice(None)] * len(shape)
    src_p[ax] = half
    src_m = [slice(None)] * len(shape)
    src_m[ax] = 2 * N - half
    out[tuple(dst)] = spec[tuple(src_p)] + spec[tuple(src_m)]
    return out


def upsample_values(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Trig-interpolate node values onto the 2x refined grid (exact)."""
    spec = sfft.fftn(np.asarray(vals, dtype=float))
    for ax in range(grid.n):
        spec = _pad_axis(spec, ax, grid.N)
    # a real copy, so the complex 2N-grid array is freed on return
    return sfft.ifftn(spec * 2**grid.n).real.copy()


def downsample_values(fine: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Project 2x-grid values back to the base grid (band truncation)."""
    spec = sfft.fftn(np.asarray(fine, dtype=float))
    for ax in range(grid.n):
        spec = _trunc_axis(spec, ax, grid.N)
    return sfft.ifftn(spec / 2**grid.n).real


def dealiased_product(a_vals: np.ndarray, b_vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Pointwise product computed on the 2x grid and truncated back."""
    return downsample_values(
        upsample_values(a_vals, grid) * upsample_values(b_vals, grid), grid
    )


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
    the grid, the 2x upsample/truncate round trip is skipped.
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

    Products are taken on the grid when they fit, otherwise on the 2x grid
    and truncated back.
    """
    grid = a.grid
    direct = _products_fit(a, b)
    a_fine = a.comps if direct else [upsample_values(c, grid) for c in a.comps]
    b_fine = b.comps if direct else [upsample_values(c, grid) for c in b.comps]
    acc = _sum_terms(rows, a_fine, b_fine, [None] * comb(grid.n, degree))
    if not direct:
        acc = [downsample_values(fine, grid) for fine in acc]
    return DiffForm(grid, degree, np.stack(acc))


def ext_d(a: DiffForm) -> DiffForm:
    """Exterior derivative, spectral in each coordinate."""
    grid = a.grid
    k = a.degree
    if k >= grid.n:
        raise DegreeError(f"d of a top-degree ({k}) form is not representable")
    mult = [grid.derivative_multiplier(j) for j in range(grid.n)]
    return DiffForm.from_spectra(grid, k + 1, wedge_axes(mult, a.spectra(), grid.n, k))


def hodge_star(a: DiffForm) -> DiffForm:
    """Hodge star for the flat metric: star(dx_s) = sign(s, s^c) dx_{s^c}."""
    grid = a.grid
    k = a.degree
    comps = np.zeros((comb(grid.n, grid.n - k),) + grid.shape)
    for ia, ib, _, sign in product_table(grid.n, k, grid.n - k):
        comps[ib] = sign * a.comps[ia]
    return DiffForm(grid, grid.n - k, comps)


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

    Channel c at a point x is Re sum_m c_m e^{2 pi i m.x} over the kept
    modes m, c_m being the FFT coefficient divided by the node count.  With
    rel_tol == 0 every mode is kept and this is exact trigonometric
    interpolation of the node values.  With a small rel_tol (e.g. 1e-14)
    modes below rel_tol * max|coeff| in every channel are dropped, which is
    what the flow integrator uses on analytically decaying spectra.

    Each kept mode m whose negation -m is also kept is folded with it into
    one term with coefficient c_m + conj(c_-m).  That is an exact identity
    for the real part, so no Hermitian symmetry is assumed.  The zero mode,
    modes with a -N/2 (Nyquist) component and modes whose partner was
    dropped stay unpaired.  ``modes`` is the (F, n) integer array of these
    folded representatives, about half the kept modes.

    A call builds, per axis, the powers e^{2 pi i k x_j} for |k| up to the
    largest kept |m_j| from one complex exponential per point, multiplies
    the tables into an (F, points) phase block for the F folded modes and
    contracts its real and imaginary parts with the coefficients in one
    real matrix product.

    Memory: points go in chunks whose transient arrays (axis tables, the
    phase block, its gather temporary and its real/imaginary copy, the
    product) hold about 2**17 complex entries, 2 MB, so the work stays in
    cache.  A chunk has at least 64 points, so the transient peak is at
    most max(2 MB, 64 points x (table rows + 3 F + channels) x 16 B), about
    120 MB with every mode of a T^4 N = 16 grid kept.  An explicit
    ``chunk`` fixes the points per chunk.
    """

    def __init__(self, grid: GridSpec, spectra: np.ndarray, rel_tol: float = 0.0):
        spectra = np.asarray(spectra, dtype=complex)
        if spectra.ndim == grid.n:
            spectra = spectra[None]
        nf = spectra.shape[0]
        flat = spectra.reshape(nf, -1)
        if rel_tol > 0.0:
            mags = np.abs(flat)
            keep = (mags > rel_tol * mags.max()).any(axis=0)
        else:
            keep = np.ones(flat.shape[1], dtype=bool)
        active = np.nonzero(keep)[0]
        idx = np.array(np.unravel_index(active, grid.shape))
        freqs = np.fft.fftfreq(grid.N, 1.0 / grid.N).astype(int)[idx]
        neg = np.ravel_multi_index(tuple(-idx % grid.N), grid.shape)
        # a -N/2 component negates to +N/2, which no bucket holds: unpaired
        paired = keep[neg] & (neg != active) & ~(2 * freqs == -grid.N).any(axis=0)
        # each pair is represented by its member with the lower flat index
        rep = ~(paired & (neg < active))
        coeffs = flat[:, active[rep]] / grid.num_nodes
        fold = paired[rep]
        coeffs[:, fold] += flat[:, neg[rep][fold]].conj() / grid.num_nodes
        self.grid = grid
        self.modes = freqs[:, rep].T
        self.nf = nf
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
            ph *= table[rows]
        return ph

    def __call__(self, points: np.ndarray, chunk: int | None = None) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((self.nf, points.shape[0]))
        if chunk is None:
            rows = sum(2 * k + 1 for _, k, _ in self._axes)
            per_point = rows + 3 * self.modes.shape[0] + self.nf
            chunk = max(64, 2**17 // per_point)
        for lo in range(0, points.shape[0], chunk):
            sl = slice(lo, min(lo + chunk, points.shape[0]))
            ph = self._phases(points[sl])
            out[:, sl] = self._weights @ np.concatenate((ph.real, ph.imag))
        return out


def eval_at(a: DiffForm, points: np.ndarray, rel_tol: float = 0.0) -> np.ndarray:
    """Trig-interpolate every component of a at the given points.

    points: (P, n) array of torus coordinates (any reals, wrapped mod 1).
    Returns an (ncomp, P) array ordered like a.index_set_list; exact for the
    default rel_tol = 0.
    """
    interp = ModeInterpolator(a.grid, a.spectra(), rel_tol=rel_tol)
    return interp(points)


# -- external form literals ----------------------------------------------


def form_from_literal(grid: GridSpec, degree: int, literal: list) -> DiffForm:
    """Build a form from the spectral literal format used in config files.

    literal is a list of {"component": [1-based axes], "modes": [{"k": [m..],
    "re": .., "im": ..}]}.  Each listed mode m contributes
    (re + i*im) e^{2 pi i m.x} plus the conjugate at -m; Hermitian symmetry is
    enforced, so listing both m and -m requires conjugate-consistent values.
    """
    sets = index_sets(grid.n, degree)
    spec = np.zeros((len(sets),) + grid.shape, dtype=complex)
    seen: dict = {}
    for entry in literal:
        s = tuple(sorted(int(i) - 1 for i in entry["component"]))
        if len(s) != degree or s not in sets:
            raise ValueError(f"bad component {entry['component']} for degree {degree}")
        ci = sets.index(s)
        for mode in entry["modes"]:
            m = tuple(int(v) for v in mode["k"])
            if len(m) != grid.n:
                raise ValueError(f"mode {m} has wrong length for T^{grid.n}")
            if any(abs(v) >= grid.N // 2 for v in m):
                raise ValueError(
                    f"mode {m} outside the representable band |m_j| < N/2 = {grid.N // 2}"
                )
            c = complex(float(mode.get("re", 0.0)), float(mode.get("im", 0.0)))
            if all(v == 0 for v in m):
                if abs(c.imag) > 1e-12 * max(1.0, abs(c.real)):
                    raise ValueError("zero mode must be real")
                c = complex(c.real, 0.0)
            key_p, key_m = (ci, m), (ci, tuple(-v for v in m))
            if key_p in seen and abs(seen[key_p] - c) > 1e-9 * max(1.0, abs(c)):
                raise ValueError(f"conflicting entries for component {s} mode {m}")
            if key_m in seen and abs(seen[key_m] - c.conjugate()) > 1e-9 * max(1.0, abs(c)):
                raise ValueError(
                    f"entries for component {s} modes {m} break Hermitian symmetry"
                )
            seen[key_p] = c
            seen[key_m] = c.conjugate()
    scale = grid.num_nodes
    for (ci, m), c in seen.items():
        idx = tuple(v % grid.N for v in m)
        spec[(ci,) + idx] = c * scale
    return DiffForm.from_spectra(grid, degree, spec)


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
    spec = sfft.fftn(vals, axes=tuple(range(1, grid.n + 1)))
    mask = np.ones(grid.shape, dtype=bool)
    for j in range(grid.n):
        mj = np.abs(grid.mode_axis(j))
        mask &= np.broadcast_to(mj <= bandwidth, grid.shape)
    spec *= mask
    out = DiffForm.from_spectra(grid, degree, spec)
    nrm = out.norm()
    if nrm > 0:
        out = out * (amplitude / nrm)
    return out
