#!/usr/bin/env python3
"""Classical T^2 limit: area interpolation, with and without total-area growth."""

import numpy as np

from lcsflow import (
    NotExact,
    PipelineOptions,
    area_interpolation_family,
    exactness_certificate,
    normalize_family,
    run_theorem_pipeline,
)
from lcsflow.forms import GridSpec

g = GridSpec(2, 32)
opts = PipelineOptions(steps=60, checkpoints=5)

# mean-free interpolation: plain symplectic stability, factor identically 1
fam = area_interpolation_family(g, eps=0.4)
rep = run_theorem_pipeline(fam, opts)
print("mean-free interpolation (eps = 0.4):")
print(f"  verdict {rep.verdict}, factor error {rep.max_factor_error:.2e}, "
      f"absorption used: {rep.absorption_used}")

# sigma > 0 grows the total area; no isotopy alone can do that, but a
# spatially constant gauge e^{c(t)} can
sigma = 0.5
fam2 = area_interpolation_family(g, eps=0.3, sigma=sigma)
cert = exactness_certificate(normalize_family(fam2, opts), opts)
print(f"\narea growth sigma = {sigma}: certified with gauge constant c(t)")
print("  t      c(t)        -log(1 + sigma t)")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  {t:4.2f}  {cert.c_at(t):+.8f}   {-np.log1p(sigma * t):+.8f}")

rep2 = run_theorem_pipeline(fam2, opts)
print(f"  verdict {rep2.verdict}, factor error {rep2.max_factor_error:.2e}, "
      f"final log gauge {rep2.absorption_log_final:+.6f}")

# with absorption disabled the same family is correctly refused
try:
    run_theorem_pipeline(fam2, PipelineOptions(
        steps=10, checkpoints=3, allow_scalar_absorption=False))
except NotExact as e:
    print(f"\nabsorption disabled -> NotExact: {e}")
