"""Fractional heat lift and the reconstruction operator.

A function lifts to the upper half-space through the fractional heat
propagator; a calibrated radial family inverts the lift by integrating
against dt/t.  The calibration constants come out of two scalar integrals;
after them the reconstruction is an identity up to quadrature error.
Coefficient decay in the lift follows the two-regime bound with an
exponential rate in t 2^{2 beta j}.
"""

import numpy as np

from oscillet import (
    GridFunction,
    GridSpec,
    SemigroupSpec,
    build_basis,
    calibrate_family,
    check_decay_bounds,
    default_time_grid,
    evolve_coefficients,
    heat_apply,
    pi_phi_report,
    rel_l2_error,
)
from oscillet.wavelet import WaveletIndex

spec = GridSpec(n=1, J=9, j_min=0)
basis = build_basis("meyer", spec)
rng = np.random.default_rng(5)

print("semigroup law and contraction (beta = 0.75):")
sg = SemigroupSpec(0.75, spec)
f0 = GridFunction(spec, rng.standard_normal(spec.shape))
two_step = heat_apply(sg, heat_apply(sg, f0, 0.004), 0.006)
one_step = heat_apply(sg, f0, 0.010)
print(f"  heat(t) o heat(s) vs heat(t+s): {rel_l2_error(two_step, one_step):.2e}")

for beta in (0.5, 1.0):
    fam = calibrate_family(beta)
    print(f"\ncalibration at beta={beta}: C_beta = {fam.C_beta:.4f}, "
          f"calderon residual = {fam.admissibility['calderon_residual']:.1e}")
    sg = SemigroupSpec(beta, spec)
    tg = default_time_grid(spec, beta, L=256)
    c = basis.analyze(basis.band_limit(
        GridFunction(spec, rng.standard_normal(spec.shape))))
    c.scaling[:] = 0.0
    f = basis.synthesize(c)
    rec, rep = pi_phi_report(fam, basis, evolve_coefficients(sg, basis, f, tg))
    print(f"  reconstruction residual (L=256): {rel_l2_error(rec, f):.2e}")
    print(f"  annulus coverage: low {rep.coverage_low:.2f}, "
          f"high {rep.coverage_high:.2f}")

print("\ncoefficient decay of a single-wavelet lift (beta = 1):")
sg = SemigroupSpec(1.0, spec)
tg = default_time_grid(spec, 1.0, L=192)
c0 = basis.analyze(GridFunction.zeros(spec))
c0.set(WaveletIndex((1,), 4, (7,)), 1.0)
tcf = evolve_coefficients(sg, basis, basis.synthesize(c0), tg)
rep = check_decay_bounds(tcf, c0, N=4.0)
grid = rep.ctilde_grid
for ct in (0.25, 1.0, 2.0):
    i = int(np.argmin(np.abs(grid - ct)))
    print(f"  max R1 at ctilde={grid[i]:.2f}: {rep.max_r1[i]:.4f}")
print(f"  max R2 (early regime): {rep.max_r2:.4f}")
print(f"  seam residual at t 2^(2 beta j) = 1: {rep.seam_residual:.1e}")
