"""Twisted simplicial cohomology with exact rational coefficients.

A rank-one local system on a simplicial complex is a positive rational
weight w(a, b) on each oriented edge with w(b, a) = 1/w(a, b) and the
multiplicative cocycle rule w(a,b) w(b,c) = w(a,c) on every 2-simplex.
Cochain coefficients live at the least vertex of each simplex; the
twisted coboundary transports the dropped-least-vertex face along the
edge between base vertices.  Every rank is exact (`exactlinalg`: certified
mod 2^31 - 1, with Bareiss elimination as the fallback), so d^2 = 0 and
gauge invariance are exact statements, not floating-point ones.  The Euler identity is no
check on the ranks: b_k = c_k - r_k - r_{k-1} telescopes to chi whatever
the ranks r_k are.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DomainError
from .exactlinalg import rational_rank


class CocycleViolation(DomainError, ValueError):
    """Edge weights break the multiplicative triangle rule."""


# -- complexes ------------------------------------------------------------


@dataclass
class SimplicialComplex:
    """Closure-complete complex; simplices[k] is a lex-sorted tuple list."""

    simplices: dict[int, list[tuple[int, ...]]]

    @property
    def dim(self) -> int:
        return max(self.simplices)

    @property
    def vertices(self) -> list[int]:
        return [v for (v,) in self.simplices[0]]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.simplices.get(k, ())) for k in range(self.dim + 1))

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.counts()))


def build_complex(top_simplices) -> SimplicialComplex:
    """Downward closure of the given simplices (any dimensions, 0-based)."""
    by_dim: dict[int, set] = {}
    for s in top_simplices:
        s = tuple(sorted(int(v) for v in s))
        if len(set(s)) != len(s):
            raise ValueError(f"repeated vertex in simplex {s}")
        for k in range(1, len(s) + 1):
            by_dim.setdefault(k - 1, set()).update(combinations(s, k))
    if not by_dim:
        raise ValueError("empty complex")
    return SimplicialComplex({k: sorted(v) for k, v in sorted(by_dim.items())})


# -- local systems --------------------------------------------------------


@dataclass
class LocalSystem:
    """Positive rational edge weights satisfying the cocycle rule."""

    complex: SimplicialComplex
    weights: dict[tuple[int, int], Fraction]

    def transport(self, a: int, b: int) -> Fraction:
        """Parallel transport along the oriented edge a -> b."""
        if a == b:
            return Fraction(1)
        if a < b:
            return self.weights[(a, b)]
        return 1 / self.weights[(b, a)]

    @property
    def is_trivial(self) -> bool:
        """True iff every loop holonomy is 1 (checked on a spanning tree)."""
        pot: dict[int, Fraction] = {}
        adj: dict[int, list[int]] = {v: [] for v in self.complex.vertices}
        for (a, b) in self.complex.simplices.get(1, ()):
            adj[a].append(b)
            adj[b].append(a)
        for root in self.complex.vertices:
            if root in pot:
                continue
            pot[root] = Fraction(1)
            stack = [root]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in pot:
                        pot[w] = pot[v] * self.transport(v, w)
                        stack.append(w)
        return all(
            self.transport(a, b) == pot[b] / pot[a]
            for (a, b) in self.complex.simplices.get(1, ())
        )


def local_system(complex: SimplicialComplex, weight_specs) -> LocalSystem:
    """Build a local system from weights on a generating edge set.

    weight_specs: iterable of ((a, b), weight), the weight a Fraction, an
    int or a "p/q" string; a float is refused (TypeError), since it is not
    exact.  Weights on edges not listed are inferred from the triangle rule
    where forced, and default to 1 otherwise; the cocycle condition is then
    verified exactly on every 2-simplex.
    """
    edges = complex.simplices.get(1, [])
    edge_set = set(edges)
    weights: dict[tuple[int, int], Fraction] = {}
    for (a, b), w in weight_specs:
        if isinstance(w, float):
            raise TypeError(f"edge weight {w!r} on {(a, b)} is not exact")
        w = Fraction(w)
        if a > b:
            a, b, w = b, a, 1 / w
        if (a, b) not in edge_set:
            raise ValueError(f"edge {(a, b)} not in the complex")
        if w <= 0:
            raise ValueError(f"edge weight must be positive, got {w} on {(a, b)}")
        if (a, b) in weights and weights[(a, b)] != w:
            raise CocycleViolation(f"conflicting weights on edge {(a, b)}")
        weights[(a, b)] = w

    triangles = complex.simplices.get(2, [])
    changed = True
    while changed:
        changed = False
        for (a, b, c) in triangles:
            known = [(e in weights) for e in ((a, b), (b, c), (a, c))]
            if sum(known) == 2:
                wab = weights.get((a, b))
                wbc = weights.get((b, c))
                wac = weights.get((a, c))
                if wab is None:
                    weights[(a, b)] = wac / wbc
                elif wbc is None:
                    weights[(b, c)] = wac / wab
                else:
                    weights[(a, c)] = wab * wbc
                changed = True
    for e in edges:
        weights.setdefault(e, Fraction(1))
    for (a, b, c) in triangles:
        if weights[(a, b)] * weights[(b, c)] != weights[(a, c)]:
            raise CocycleViolation(
                f"triangle {(a, b, c)}: w(ab) w(bc) != w(ac) "
                f"({weights[(a, b)]} * {weights[(b, c)]} != {weights[(a, c)]})"
            )
    return LocalSystem(complex, weights)


# -- twisted coboundary and Betti numbers --------------------------------


def coboundary_matrix(system: LocalSystem, k: int) -> list[list[Fraction]]:
    """Twisted delta_k: C^k -> C^{k+1} (rows = (k+1)-simplices).

    Row entry for face sigma_i = tau minus its i-th vertex is
    (-1)^i * transport(base(sigma_i) -> base(tau)); only dropping the least
    vertex moves the base, so the transport is along an edge of tau.
    """
    cx = system.complex
    rows = cx.simplices.get(k + 1, [])
    cols = cx.simplices.get(k, [])
    col_index = {s: i for i, s in enumerate(cols)}
    out = []
    for tau in rows:
        row = [Fraction(0)] * len(cols)
        for i in range(len(tau)):
            sigma = tau[:i] + tau[i + 1 :]
            t = system.transport(sigma[0], tau[0])
            row[col_index[sigma]] += (-1) ** i * t
        out.append(row)
    return out


@dataclass
class TwistedBettiResult:
    """Exact twisted Betti numbers with the Euler bookkeeping attached."""

    dims: tuple[int, ...]
    chi: int
    trivial_system: bool = False

    @property
    def euler_alternating_sum(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.dims))

    def as_dict(self) -> dict:
        return {**asdict(self), "euler_alternating_sum": self.euler_alternating_sum}


def twisted_betti(system: LocalSystem) -> TwistedBettiResult:
    """Twisted Betti numbers b_k = dim ker delta_k - rank delta_{k-1}.

    Their alternating sum equals chi for any ranks, so the Euler
    bookkeeping of the result holds by construction.
    """
    cx = system.complex
    top = cx.dim
    counts = cx.counts()
    ranks = []
    for k in range(top):
        ranks.append(rational_rank(coboundary_matrix(system, k)))
    ranks.append(0)  # delta_top maps into nothing
    dims = []
    for k in range(top + 1):
        below = ranks[k - 1] if k > 0 else 0
        dims.append(counts[k] - ranks[k] - below)
    return TwistedBettiResult(
        dims=tuple(dims),
        chi=cx.euler_characteristic,
        trivial_system=system.is_trivial,
    )


# -- fixtures -------------------------------------------------------------


@dataclass
class ComplexFixture:
    """A named complex plus integer winding cocycles generating holonomy."""

    name: str
    complex: SimplicialComplex
    cocycles: list[dict[tuple[int, int], int]] = field(default_factory=list)


def circle_complex() -> ComplexFixture:
    """Triangulated circle with 6 vertices; one winding cocycle."""
    k = 6
    edges = [(i, (i + 1) % k) for i in range(k)]
    cx = build_complex(edges)
    z = {tuple(sorted((k - 1, 0))): -1}  # edge (0, k-1) traversed 0 -> k-1 is -1 winding
    return ComplexFixture("circle", cx, [z])


def disk_complex() -> ComplexFixture:
    """A single 2-simplex with its faces."""
    return ComplexFixture("disk", build_complex([(0, 1, 2)]))


def sphere_complex() -> ComplexFixture:
    """Boundary of the 3-simplex."""
    faces = list(combinations(range(4), 3))
    return ComplexFixture("sphere", build_complex(faces))


def _winding(raw: int, k: int) -> int:
    """Turns around a k-cycle made by an edge whose index step is raw.

    The geometric step of a cycle edge is raw reduced into {-1, 0, 1};
    what is left is a whole number of turns.
    """
    return (raw - ((raw + 1) % k - 1)) // k


def torus_grid_complex(k: int = 4) -> ComplexFixture:
    """k x k grid triangulation of T^2 (16 vertices for k = 4), chi = 0."""
    if k < 3:
        raise ValueError("grid torus needs k >= 3")

    def vid(i, j):
        return (i % k) * k + (j % k)

    tris = []
    for i in range(k):
        for j in range(k):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((a, b, d))
            tris.append((a, d, c))
    cx = build_complex(tris)

    def winding(edge, axis):
        a, b = edge
        return _winding(divmod(b, k)[axis] - divmod(a, k)[axis], k)

    z_i = {e: winding(e, 0) for e in cx.simplices[1] if winding(e, 0)}
    z_j = {e: winding(e, 1) for e in cx.simplices[1] if winding(e, 1)}
    return ComplexFixture("torus", cx, [z_i, z_j])


def cylinder_complex() -> ComplexFixture:
    """Triangulated S^1 x [0,1] with two 4-vertex rings, chi = 0."""
    k = 4
    tris = []
    for i in range(k):
        a, b = i, (i + 1) % k
        c, d = k + i, k + (i + 1) % k
        tris.append((a, b, d))
        tris.append((a, d, c))
    cx = build_complex(tris)

    def winding(edge):
        a, b = edge
        return _winding(b % k - a % k, k)

    z = {e: winding(e) for e in cx.simplices[1] if winding(e)}
    return ComplexFixture("cylinder", cx, [z])


def projective_plane_complex() -> ComplexFixture:
    """Minimal 6-vertex triangulation of RP^2 (chi = 1).

    Over Q its rational Betti numbers are (1, 0, 0); there is no positive
    rational holonomy (H_1 is 2-torsion), so no winding cocycles.
    """
    faces = [
        (0, 1, 4),
        (0, 1, 5),
        (0, 2, 3),
        (0, 2, 5),
        (0, 3, 4),
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 5),
        (2, 4, 5),
        (3, 4, 5),
    ]
    return ComplexFixture("projective_plane", build_complex(faces))


FIXTURE_BUILDERS = {
    "circle": circle_complex,
    "disk": disk_complex,
    "sphere": sphere_complex,
    "torus": torus_grid_complex,
    "cylinder": cylinder_complex,
    "projective_plane": projective_plane_complex,
}


def random_local_system(fixture: ComplexFixture, rng: np.random.Generator) -> LocalSystem:
    """Random gauge potential times random holonomy on the fixture cocycles.

    Potentials and holonomies are fractions p/q with p, q drawn from 1..9.
    """

    def rand_frac():
        return Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))

    pot = {v: rand_frac() for v in fixture.complex.vertices}
    hols = [rand_frac() for _ in fixture.cocycles]
    weights = {}
    for e in fixture.complex.simplices.get(1, ()):
        a, b = e
        w = pot[b] / pot[a]
        for z, t in zip(fixture.cocycles, hols):
            exp = z.get(e, 0)
            if exp:
                w *= t**exp
        weights[e] = w
    return LocalSystem(fixture.complex, weights)
