"""Tent norms on time-indexed coefficient fields.

Four parts split the upper half-space seen by a cube Q_r:

  I   sup over t of the L-infinity-in-t piece at levels j >= max(-log2 r,
      -log2(t)/(2 beta)), weighted t^m and 2^{qj(gamma1+n/2+2m beta)};
  II  the intermediate band -log2 r < j < -log2(t)/(2 beta), plain weights;
  III per coefficient, the time integral over (2^{-2j beta}, r^{2 beta}]
      against t^{qm} dt/t;
  IV  the time integral over (0, 2^{-2j beta}] against t^{qm'} dt/t.

The combined norm is the max of the four.  Parts III/IV integrate the
t^{q m} dt/t measure exactly over each log cell (the coefficient modulus is
sampled at the cell midpoint), so constant-in-t profiles integrate to the
closed form up to the window-edge cell resolution.

Parts I/II are evaluated for many time nodes at once.  The admitted level
sets depend on the node only through which levels lie at or above
theta = -log2(t)/(2 beta), and theta is monotone in the node, so the nodes
fall into runs that share every level set.  Within a run, the per-level
fields of a chunk of nodes (at most CHUNK_BYTES of complex grid rows, the
bound every batched evaluation shares) carry a leading node axis.  Part I
admits the same levels for every cube level j0 <= theta (and part IV for
every j0), so the integrand and its p-th power are built once per distinct
level set and serve each cube level that admits it; only the cube sums are
per cube level.  The kernel is the same for all four parts; parts III/IV
call it as a batch of one.  Every sum runs in the order a node-by-node,
cube-level-by-cube-level evaluation uses, and the cube levels and node
updates are scanned in order with a strict >, so the values are bit for bit
the same.

The outer 1/q power on the level sums of parts III/IV follows the same
L^p(l^q) shape as parts I/II; `literal_exponent=True` switches to the
displayed form without that root.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .grid import DyadicCube, GridSpec, TimeGrid
from .norms import (
    SpaceParams,
    _level_power_sum,
    _morrey_cube_max,
    _runs,
    _upsample,
)
from .wavelet import CHUNK_BYTES, CoeffField, detail_types


@dataclass(frozen=True)
class TentParams:
    sp: SpaceParams
    m: float
    m_prime: float
    beta: float
    tau: float = 1.0

    def __post_init__(self):
        for name in ("m", "m_prime", "beta", "tau"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.m_prime <= 0:
            raise ParameterError(f"m' must be positive, got {self.m_prime}")
        if self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")

    def characterization_preconditions(self, n: int) -> list[str]:
        """Hypotheses the lift characterization runs under; returns violations."""
        bad = []
        if not (1 < self.sp.p < self.m):
            bad.append(f"need 1 < p < m, got p={self.sp.p}, m={self.m}")
        if not (self.sp.gamma1 - self.sp.gamma2 < 0):
            bad.append(
                f"need gamma1 - gamma2 < 0, got {self.sp.gamma1 - self.sp.gamma2}"
            )
        if not (self.tau + (self.sp.gamma1 - self.sp.gamma2)
                / (2 * self.beta) > 0):
            bad.append("need tau + (gamma1-gamma2)/(2 beta) > 0")
        return bad


@dataclass
class PartResult:
    value: float
    argmax_cube: DyadicCube | None = None
    argmax_node: int | None = None


@dataclass
class TentNormReport:
    part_i: PartResult
    part_ii: PartResult
    part_iii: PartResult
    part_iv: PartResult
    seam_levels: dict = field(default_factory=dict)
    quadrature_estimate: float = 0.0

    @property
    def values(self) -> tuple[float, float, float, float]:
        return (self.part_i.value, self.part_ii.value,
                self.part_iii.value, self.part_iv.value)

    @property
    def combined(self) -> float:
        return max(self.values)


def _level_base_fields(tcf: CoeffField, nodes: slice,
                       q: float) -> dict[int, np.ndarray]:
    """Per level j: the fields sum_eps |a(t)|^q (sup for q=inf) of the nodes
    in `nodes` at band resolution (2^{j_max},)^n, stacked along a leading
    node axis."""
    return {j: _upsample(_level_power_sum(tcf, j, q, nodes), tcf.j_max, tcf.spec.n)
            for j in tcf.levels}


def _integrand(fields: dict[int, np.ndarray], level_weights: dict[int, float],
               levels: Sequence[int], root: float | None) -> np.ndarray:
    """(sum_{j in levels} w_j F_j)^root, or the pointwise sup over the
    levels of w_j F_j when root is None (q = inf)."""
    if root is None:
        return np.maximum.reduce([level_weights[j] * fields[j] for j in levels])
    return sum(level_weights[j] * fields[j] for j in levels) ** root


def _cube_sup(fields: dict[int, np.ndarray], level_weights: dict[int, float],
              levels: Sequence[int], j0: int, root: float | None,
              sp: SpaceParams, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the fields' leading batch axis: the max over level-j0 cubes
    of |Q|^{gamma2/n - 1/p} || (sum_{j in levels} w_j F_j)^root ||_p with the
    norm restricted to the cube, and the flat position of the first cube
    attaining it.  root=None aggregates by the pointwise sup over the levels
    instead (q = inf)."""
    [result] = _morrey_cube_max(_integrand(fields, level_weights, levels, root),
                                (j0,), sp, spec)
    return result


def _sup_over_cubes(fields, rows: int, level_weights,
                    admitted: dict[int, list[int]], root, sp, spec):
    """Per row of the fields' leading axis (`rows` long): the sup over the
    cubes of every cube level j0 of `admitted` (which maps j0 to its
    admitted levels), scanning the cube levels in order with a strict > as
    a cube-by-cube scan does.  The integrand and its p-th power are built
    once per distinct level set, for all the cube levels that admit it.
    Returns the values, the cube level and the flat position of the winner
    (level -1 where no cube exceeds zero)."""
    by_levels: dict[tuple[int, ...], list[int]] = {}
    for j0, levels in admitted.items():
        if levels:
            by_levels.setdefault(tuple(levels), []).append(j0)
    sups = {}
    for levels, j0s in by_levels.items():
        integrand = _integrand(fields, level_weights, levels, root)
        sups.update(zip(j0s, _morrey_cube_max(integrand, j0s, sp, spec)))
    best = np.zeros(rows)
    best_j0 = np.full(rows, -1)
    best_flat = np.zeros(rows, dtype=int)
    for j0, (vals, flat) in sorted(sups.items()):
        better = vals > best
        best[better] = vals[better]
        best_j0[better] = j0
        best_flat[better] = flat[better]
    return best, best_j0, best_flat


def _cube_at(j0: int, flat: int, n: int) -> DyadicCube | None:
    if j0 < 0:
        return None
    k = np.unravel_index(int(flat), (1 << int(j0),) * n)
    return DyadicCube(int(j0), tuple(int(x) for x in k))


def _time_moment_antiderivative(logt: np.ndarray, qm: float) -> np.ndarray:
    """Antiderivative of t^{qm} dt/t as a function of log t."""
    if qm == 0.0:
        return logt
    return np.exp(qm * logt) / qm


class _WindowIntegrals:
    """Per-coefficient integrals int_window |a(t)|^q t^{qm} dt/t with the
    measure integrated exactly on each log cell and |a| held at the node."""

    def __init__(self, tcf: CoeffField, q: float, qm: float):
        if q == np.inf:
            raise ParameterError("time-integrated parts need finite q")
        self.tcf = tcf
        self.qm = qm
        edges = tcf.tg.log_edges()
        self.log_edges = edges
        anti = _time_moment_antiderivative(edges, qm)
        self.cell_mass = np.diff(anti)          # full-cell measure moments
        self.blocks = {}
        for key, arr in tcf.detail.items():
            absq = np.abs(arr.reshape(tcf.tg.L, -1)) ** q
            full = absq * self.cell_mass[:, None]
            prefix = np.concatenate(
                [np.zeros((1, absq.shape[1])), np.cumsum(full, axis=0)], axis=0)
            self.blocks[key] = (absq, prefix)

    def _eval(self, key, log_s: float) -> np.ndarray:
        """G(s) = integral over (t_min-edge, s] per coefficient."""
        absq, prefix = self.blocks[key]
        edges = self.log_edges
        if log_s <= edges[0]:
            return np.zeros(absq.shape[1])
        if log_s >= edges[-1]:
            return prefix[-1]
        cellidx = int(np.searchsorted(edges, log_s, side="right")) - 1
        anti_lo = _time_moment_antiderivative(np.array([edges[cellidx]]), self.qm)[0]
        anti_s = _time_moment_antiderivative(np.array([log_s]), self.qm)[0]
        return prefix[cellidx] + absq[cellidx] * (anti_s - anti_lo)

    def window(self, key, log_lo: float, log_hi: float) -> np.ndarray:
        if log_hi <= log_lo:
            return np.zeros(self.blocks[key][0].shape[1])
        return np.maximum(self._eval(key, log_hi) - self._eval(key, log_lo), 0.0)


def tent_norms(tcf: CoeffField, tp: TentParams,
               literal_exponent: bool = False) -> TentNormReport:
    """All four tent parts in one pass; the combined norm is their max.

    q = inf evaluates the sup-aggregate reading of parts I/II; the
    time-integrated parts III/IV are defined through integrals with
    exponent q and are reported as zero in that limit (their content is
    carried by the sup-in-t part)."""
    if tcf.tg is None:
        raise ParameterError("tent norms need a coefficient field on a time grid")
    if not all(np.all(np.isfinite(a)) for a in tcf.detail.values()):
        raise ParameterError("time coefficient field has non-finite coefficients")
    spec, tg = tcf.spec, tcf.tg
    sp, beta, q = tp.sp, tp.beta, tp.sp.q
    n = spec.n
    nodes = tg.nodes()
    levels = list(tcf.levels)
    cube_levels = list(range(spec.j_min, spec.J))
    ln2 = np.log(2.0)
    root = None if q == np.inf else 1.0 / q

    part1 = PartResult(0.0)
    part2 = PartResult(0.0)
    # level weights 2^{qj(gamma1 + n/2 + 2 m beta)} (part I, also III),
    # 2^{qj(gamma1 + n/2)} (part II), q read as 1 for the sup aggregate
    e, s = (1.0 if q == np.inf else q), sp.gamma1 + n / 2.0
    w_i = {j: 2.0 ** (e * j * (s + 2 * tp.m * beta)) for j in levels}
    w_ii = {j: 2.0 ** (e * j * s) for j in levels}
    thetas = [-np.log2(t) / (2.0 * beta) for t in nodes]
    seam_levels = dict(enumerate(thetas))
    # part I admits j >= max(j0, theta) and part II j0 < j < theta, so which
    # levels lie at or above theta fixes both sets for every cube level
    above = np.array([[j >= theta for j in levels] for theta in thetas])
    rows = max(1, CHUNK_BYTES // (16 * spec.size))
    for a, b in _runs(above):
        theta = thetas[a]
        admit_i = {j0: [j for j in levels if j >= max(j0, theta)]
                   for j0 in cube_levels}
        admit_ii = {j0: [j for j in levels if j0 < j < theta]
                    for j0 in cube_levels}
        for start in range(a, b, rows):
            stop = min(start + rows, b)
            base = _level_base_fields(tcf, slice(start, stop), q)
            sup1 = _sup_over_cubes(base, stop - start, w_i, admit_i, root, sp,
                                   spec)
            sup2 = _sup_over_cubes(base, stop - start, w_ii, admit_ii, root, sp,
                                   spec)
            for r, ell in enumerate(range(start, stop)):
                # t^m stays a numpy-scalar pow per node (an array pow can
                # take a SIMD path with other bits)
                v1 = float(sup1[0][r])
                v1 *= nodes[ell] ** tp.m
                if v1 > part1.value:
                    part1 = PartResult(v1, _cube_at(sup1[1][r], sup1[2][r], n), ell)
                v2 = float(sup2[0][r])
                if v2 > part2.value:
                    part2 = PartResult(v2, _cube_at(sup2[1][r], sup2[2][r], n), ell)

    part3 = PartResult(0.0)
    part4 = PartResult(0.0)
    if q != np.inf:
        win_m = _WindowIntegrals(tcf, q, q * tp.m)
        win_mp = _WindowIntegrals(tcf, q, q * tp.m_prime)
        w_iv = {j: 2.0 ** (q * j * (s + 2 * tp.m_prime * beta)) for j in levels}
        root = 1.0 if literal_exponent else 1.0 / q

        def one_row(win, j, log_lo, log_hi):
            """Band-resolution field of sum_eps window integrals, batch of
            one."""
            total = None
            for eps in detail_types(n):
                I = win.window((eps, j), log_lo, log_hi)
                total = I if total is None else total + I
            return _upsample(total.reshape((1,) + (1 << j,) * n), tcf.j_max, n)

        # part IV is cube-geometry independent in time: one field
        field_iv = {j: one_row(win_mp, j, -np.inf, -2.0 * j * beta * ln2)
                    for j in tcf.levels}
        v4, j4, flat4 = _sup_over_cubes(field_iv, 1, w_iv,
                                        {j0: levels for j0 in cube_levels},
                                        root, sp, spec)
        part4 = PartResult(float(v4[0]), _cube_at(j4[0], flat4[0], n))

        # part III windows depend on the cube level through r^{2 beta}
        for j0 in cube_levels:
            log_hi = -2.0 * j0 * beta * ln2
            field3 = {j: one_row(win_m, j, -2.0 * j * beta * ln2, log_hi)
                      for j in tcf.levels if j > j0}
            if not field3:
                continue
            v3, flat3 = _cube_sup(field3, w_i, list(field3), j0, root, sp, spec)
            if v3[0] > part3.value:
                part3 = PartResult(float(v3[0]), _cube_at(j0, flat3[0], n))

    quad_est = _quadrature_refinement_estimate(tcf, tp)
    return TentNormReport(part1, part2, part3, part4, seam_levels, quad_est)


def _quadrature_refinement_estimate(tcf: CoeffField, tp: TentParams) -> float:
    """Relative change of a representative time integral when every other
    node is dropped; a proxy for the parts III/IV quadrature error."""
    q = tp.sp.q
    if q == np.inf or tcf.tg.L < 8:
        return 0.0
    key = max(tcf.detail, key=lambda k: float(np.max(np.abs(tcf.detail[k]))))
    eps, j = key
    arr = np.abs(tcf.detail[key].reshape(tcf.tg.L, -1))
    flat = int(np.argmax(np.max(arr, axis=0)))
    prof = arr[:, flat] ** q
    t = tcf.tg.nodes()
    w = tcf.tg.weights()
    mass = prof * t ** (q * tp.m_prime) * w
    full = float(np.sum(mass))
    halved = float(np.sum(mass[::2]) * 2.0)
    return abs(halved - full) / full if full > 0 else 0.0


# -- sup-type side norms ---------------------------------------------------------

def bloch_norm(tcf: CoeffField, gamma1: float, tau: float, beta: float) -> float:
    """sup over indices of [ sup_{tau_t >= 1} (t 2^{2j b})^tau weight |a(t)|
    + sup_{tau_t <= 1} weight |a(t)| ] with weight 2^{j(n/2 + gamma1)}."""
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    n = tcf.spec.n
    nodes = tcf.tg.nodes()
    best = 0.0
    for (eps, j), arr in tcf.detail.items():
        taus = nodes * 2.0 ** (2.0 * beta * j)
        w = 2.0 ** (j * (n / 2.0 + gamma1))
        absb = np.abs(arr.reshape(tcf.tg.L, -1))
        hi = taus >= 1.0
        lo = taus <= 1.0
        per_k = np.zeros(absb.shape[1])
        if np.any(hi):
            per_k += np.max(absb[hi] * (taus[hi, None] ** tau), axis=0) * w
        if np.any(lo):
            per_k += np.max(absb[lo], axis=0) * w
        v = float(np.max(per_k)) if per_k.size else 0.0
        best = max(best, v)
    return best


@dataclass
class ScalingTimeField:
    """<a(t, .), Phi^0_{j,k}> per level j, sampled on a time grid."""

    tg: TimeGrid
    fields: dict[int, np.ndarray]   # j -> (L, 2^j, ...) complex


def scaling_time_field(basis, frames, tg: TimeGrid,
                       levels: Sequence[int] | None = None) -> ScalingTimeField:
    if levels is None:
        levels = range(basis.j_min, basis.j_max + 2)
    fields = {j: [] for j in levels}
    count = 0
    for frame in frames:
        for j in levels:
            fields[j].append(basis.scaling_coefficients(frame, j))
        count += 1
    if count != tg.L:
        raise ParameterError(f"expected {tg.L} frames, got {count}")
    return ScalingTimeField(tg, {j: np.stack(v) for j, v in fields.items()})


def t_linf_norm(stf: ScalingTimeField, gamma1: float, beta: float) -> float:
    """sup over t, j, k of t^{-gamma1/(2 beta)} 2^{nj/2} |<a(t,.), Phi^0_{j,k}>|."""
    nodes = stf.tg.nodes()
    best = 0.0
    for j, arr in stf.fields.items():
        n = arr.ndim - 1
        w = nodes ** (-gamma1 / (2.0 * beta)) * 2.0 ** (n * j / 2.0)
        flat = np.abs(arr.reshape(stf.tg.L, -1))
        v = float(np.max(flat * w[:, None])) if flat.size else 0.0
        best = max(best, v)
    return best


# -- embedding checks --------------------------------------------------------------

@dataclass
class EmbeddingReport:
    ratio_high: float      # regime t 2^{2j beta} >= 1, weight (t 2^{2jb})^m
    ratio_low: float       # regime t 2^{2j beta} <  1
    slope_high: float      # growth of the high-regime ratio in log tau
    flagged: bool
    combined_norm: float


def check_embeddings(tcf: CoeffField, tp: TentParams,
                     report: TentNormReport | None = None,
                     slope_tolerance: float = 0.1) -> EmbeddingReport:
    """Coefficient bounds behind the tent-to-Bloch embedding, normalized by
    the combined tent norm.  A positive slope of the high-regime ratio in
    log(t 2^{2j beta}) flags profiles that violate the bound."""
    if report is None:
        report = tent_norms(tcf, tp)
    combined = report.combined
    n = tcf.spec.n
    nodes = tcf.tg.nodes()
    if combined <= 0:
        return EmbeddingReport(0.0, 0.0, 0.0, False, 0.0)
    sp, beta = tp.sp, tp.beta
    ratio_high = ratio_low = 0.0
    best_profile = None
    best_taus = None
    for (eps, j), arr in tcf.detail.items():
        taus = nodes * 2.0 ** (2.0 * beta * j)
        absb = np.abs(arr.reshape(tcf.tg.L, -1))
        w_high = 2.0 ** (-j * (sp.gamma2 - sp.gamma1 - n / 2.0))
        hi = taus >= 1.0
        lo = ~hi
        if np.any(hi):
            vals = absb[hi] * (taus[hi, None] ** tp.m) * w_high
            v = float(np.max(vals))
            if v > ratio_high:
                ratio_high = v
                kbest = int(np.argmax(np.max(vals, axis=0)))
                best_profile = absb[hi, kbest] * (taus[hi] ** tp.m) * w_high
                best_taus = taus[hi]
        if np.any(lo):
            w_low = 2.0 ** (j * (sp.gamma1 - sp.gamma2 + n / 2.0))
            ratio_low = max(ratio_low, float(np.max(absb[lo])) * w_low)
    ratio_high /= combined
    ratio_low /= combined
    slope = 0.0
    if best_profile is not None and best_profile.size > 3:
        keep = best_profile > 0
        if int(np.sum(keep)) > 3:
            slope = float(np.polyfit(
                np.log(best_taus[keep]), np.log(best_profile[keep]), 1)[0])
    flagged = slope > slope_tolerance
    if flagged:
        warnings.warn(
            f"high-regime coefficient ratio grows with t (slope {slope:.3f}); "
            "tent-to-Bloch bound violated", UserWarning, stacklevel=2)
    return EmbeddingReport(ratio_high, ratio_low, slope, flagged, combined)
