"""Tent norms of a heat-lifted field.

The four parts split the upper half-space along the seam t ~ 2^{-2 j beta}:
two sup-in-t pieces (above/below the seam) and two time-integrated pieces
(between the seam and the cube scale, and below the seam).  The sup-type
Bloch norm and the coefficient bounds behind the tent-to-Bloch embedding
come along for free.
"""

import warnings

import numpy as np

from oscillet import (
    GridSpec,
    SemigroupSpec,
    SpaceParams,
    TentParams,
    bloch_norm,
    build_basis,
    check_embeddings,
    default_time_grid,
    evolve_coefficients,
    tent_norms,
)
from oscillet.operators import _random_detail_field

warnings.simplefilter("ignore")

spec = GridSpec(n=1, J=9, j_min=0)
basis = build_basis("meyer", spec)
sp = SpaceParams(-0.2, 0.1, 2.0, 2.0)
tp = TentParams(sp, m=3.0, m_prime=1.0, beta=1.0)
print("characterization preconditions violated:",
      tp.characterization_preconditions(1) or "none")

sg = SemigroupSpec(1.0, spec)
tg = default_time_grid(spec, 1.0, L=192)
f = basis.synthesize(_random_detail_field(basis, sp, seed=3))
tcf = evolve_coefficients(sg, basis, f, tg)

rep = tent_norms(tcf, tp)
print("\ntent parts of the lift (input has unit Morrey norm):")
for name, val, res in zip(("I", "II", "III", "IV"), rep.values,
                          (rep.part_i, rep.part_ii, rep.part_iii, rep.part_iv)):
    loc = f"cube j={res.argmax_cube.j}" if res.argmax_cube else "-"
    print(f"  part {name:>3}: {val:.6g}   (argmax {loc})")
print(f"  combined = max(parts) = {rep.combined:.6g}")
print(f"  quadrature estimate for III/IV: {rep.quadrature_estimate:.1e}")

print(f"\nt-Bloch norm (tau=0.7): {bloch_norm(tcf, sp.gamma1, 0.7, 1.0):.4f}")

emb = check_embeddings(tcf, tp, report=rep)
print("\nembedding coefficient bounds, normalized by the combined norm:")
print(f"  high regime ratio {emb.ratio_high:.3e} (slope {emb.slope_high:+.2f})")
print(f"  low  regime ratio {emb.ratio_low:.3e}")
print(f"  flagged: {emb.flagged}")

print("\nnegative control: a profile growing in t above the seam is flagged:")
bad = tcf.scaled(0.0)
tau = tg.nodes() * 2.0 ** (2 * 4)
bad.detail[((1,), 4)][:, 3] = np.where(tau >= 1, tau, 1.0)
emb_bad = check_embeddings(bad, tp)
print(f"  flagged: {emb_bad.flagged} (slope {emb_bad.slope_high:+.2f})")
