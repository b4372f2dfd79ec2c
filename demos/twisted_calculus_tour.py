#!/usr/bin/env python3
"""Tour of the twisted calculus on T^4: differentials, Hodge split, Betti collapse."""

import numpy as np

from lcsflow import (
    DiffForm,
    GridSpec,
    LeeForm,
    d_theta,
    d_theta_star,
    ext_d,
    hodge_decompose,
    l2_inner,
    random_band_limited,
    scalar_form,
    solve_primitive,
    torus_twisted_betti,
)

rng = np.random.default_rng(0)
grid = GridSpec(4, 16)
print(f"grid: T^{grid.n} at N = {grid.N} ({grid.num_nodes} nodes)")

# a closed 1-form theta = constants + d(potential)
lee = LeeForm(grid, np.array([0.3, 0.0, -0.7, 1.1]),
              random_band_limited(grid, 0, 1, rng, 0.3).comps[0])
theta = lee.one_form()
print(f"lee form: harmonic part {np.round(lee.harmonic, 3)}, "
      f"potential norm {np.linalg.norm(lee.potential) / grid.num_nodes**0.5:.3f}")

# d_theta squares to zero because theta is closed
a = random_band_limited(grid, 2, 2, rng)
dsq = d_theta(d_theta(a, theta), theta).norm()
print(f"d_theta(d_theta a) on a random 2-form: {dsq:.2e}")

# adjointness of d_theta and d_theta* in the L2 pairing
b = random_band_limited(grid, 3, 2, rng)
lhs = l2_inner(d_theta(a, theta), b)
rhs = l2_inner(a, d_theta_star(b, theta))
print(f"<d_theta a, b> - <a, d_theta* b> = {lhs - rhs:.2e}")

# multiplying by e^g shifts theta by dg -- the conformal chain map.
g = random_band_limited(grid, 0, 1, rng, 0.05).comps[0]
fa = DiffForm(grid, 2, a.comps * np.exp(g)[None])
shifted = theta + ext_d(scalar_form(grid, g))
chain = d_theta(fa, shifted)
ref = DiffForm(grid, 3, d_theta(a, theta).comps * np.exp(g)[None])
print(f"chain-map residual for f = e^g: {(chain - ref).norm():.2e}")

# constant Lee forms admit an exact per-mode Hodge decomposition
c = np.array([0.0, 0.0, 0.0, 1.0])
h, ex, co = hodge_decompose(a, c)
print("\nhodge split against theta = dx4:")
print(f"  |harmonic| = {h.norm():.2e}   (nonzero theta leaves none)")
print(f"  |exact|    = {ex.norm():.4f}, |coexact| = {co.norm():.4f}")
print(f"  reconstruction error {(h + ex + co - a).norm():.2e}, "
      f"<exact, coexact> = {l2_inner(ex, co):.2e}")

sol = solve_primitive(ex, c)
print(f"  primitive of the exact part: residual {sol.residual:.2e}, "
      f"obstruction {sol.harmonic_part_norm:.2e}")

# the global effect: any nonzero constant Lee form kills all cohomology
print("\ntwisted Betti numbers of T^4:")
for cc in (np.zeros(4), c, np.array([0.25, 0.0, 0.0, 0.0])):
    print(f"  theta = {cc} -> {torus_twisted_betti(cc)}")
