"""Almost-diagonal operators: envelopes, boundedness, Riesz transforms.

Random matrices saturating the decay envelope keep Morrey-norm ratios flat
as the resolution grows; a matrix violating the envelope blows up and is
flagged.  The Riesz transform realizes both as an exact multiplier and as a
banded coefficient matrix, and its tent-norm ratios on lifted data stay flat
as well.
"""

import warnings

import numpy as np

from oscillet import (
    CzoGeneratorParams,
    GridFunction,
    GridSpec,
    SemigroupSpec,
    SpaceParams,
    TentParams,
    apply_matrix,
    build_basis,
    czo_boundedness_experiment,
    default_time_grid,
    evolve_coefficients,
    generate_random_czo,
    riesz_apply,
    riesz_matrix,
    riesz_tent_experiment,
    validate_decay,
)

warnings.simplefilter("ignore")

print("envelope validation of a generated matrix (N0=6, C=1):")
spec = GridSpec(1, 9, 0)
mat = generate_random_czo(spec, 0, 7, CzoGeneratorParams(N0=6.0, C=1.0), seed=9)
val = validate_decay(mat)
print(f"  {val.n_entries} entries, tightest admissible C = {val.C_min:.4f}, "
      f"violations: {len(val.violations)}")

print("\nboundedness across resolutions (20 samples each):")
sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
rep = czo_boundedness_experiment(CzoGeneratorParams(N0=6.0, C=1.0), sp,
                                 samples=20, seed=42, J_sweep=(8, 9, 10))
print(f"  admissible: max ratios {dict((k, round(v, 4)) for k, v in rep.max_ratio_by_J.items())}, "
      f"growth {rep.growth_per_J:.3f}/J")
ctrl = czo_boundedness_experiment(
    CzoGeneratorParams(N0=0.2, C=1.0, band=np.inf, window_cells=np.inf,
                       saturation=3.0),
    SpaceParams(1.5, 0.3, 2.0, 2.0), samples=20, seed=42,
    J_sweep=(8, 9, 10), declared_N0=6.0)
print(f"  violating:  max ratios {dict((k, round(v, 1)) for k, v in ctrl.max_ratio_by_J.items())}, "
      f"growth {ctrl.growth_per_J:.2f}/J, certified={ctrl.certified}")

print("\nRiesz transform, two paths (n=1 Hilbert transform):")
basis = build_basis("meyer", spec)
x = spec.meshgrid()[0]
cosf = GridFunction(spec, np.cos(2 * np.pi * x))
sine_dev = np.max(np.abs(riesz_apply(cosf, 1).data.real - np.sin(2 * np.pi * x)))
print(f"  R1 cos(2 pi x) vs sin(2 pi x): {sine_dev:.1e}")
rmat = riesz_matrix(basis, 1)
rng = np.random.default_rng(2)
f = basis.band_limit(GridFunction(spec, rng.standard_normal(spec.shape)))
via_mat = apply_matrix(rmat, basis.analyze(f))
via_mult = basis.analyze(riesz_apply(f, 1))
dev = max(np.max(np.abs(via_mat.detail[k] - via_mult.detail[k]))
          for k in via_mat.detail)
print(f"  matrix path vs multiplier path: {dev:.1e}")
print(f"  stored blocks all satisfy |j - j'| <= 1: "
      f"{all(abs(j - jp) <= 1 for (_, j, _, jp) in rmat.circulant)}")

print("\nRiesz on tent norms (n=2 heat lift):")
spec2 = GridSpec(2, 6, 0)
basis2 = build_basis("meyer", spec2)
sp2 = SpaceParams(-0.2, 0.1, 2.0, 2.0)
from oscillet.operators import _random_detail_field
f2 = basis2.synthesize(_random_detail_field(basis2, sp2, 11))
sg2 = SemigroupSpec(1.0, spec2)
tg2 = default_time_grid(spec2, 1.0, L=96)
tcf2 = evolve_coefficients(sg2, basis2, f2, tg2)
tp2 = TentParams(sp2, 3.0, 1.0, 1.0)
result = riesz_tent_experiment(tcf2, tp2, riesz_matrix(basis2, 1))
print("  part ratios:", {k: (None if v is None else round(v, 4))
                          for k, v in result["ratios"].items()})
print(f"  part III of R g over parts III+IV of g: "
      f"{result['cross_part_iii']:.4f}")
