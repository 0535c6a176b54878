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

Each part is a Morrey sup over (row, cube level) pairs of integrands
(sum_{j in S} w_j F_j)^{1/q} (the max over S for q = inf): rows are the time
nodes for parts I/II, one row for part IV and one per cube level for part
III.  No pair is evaluated before `norms._morrey_bounds` bounds it from
per-level cube sums at each level's own resolution (r = p/q: the sum over S
of w_j^r int_Q F_j^r for r <= 1 or q = inf, Minkowski's
(sum_j (w_j^r int_Q F_j^r)^{1/r})^r for r > 1; the proof is in the `norms`
module docstring).  Parts I/II take one bound pass per chunk of nodes (at
most CHUNK_BYTES of the pass's level arrays): part I admits the levels
j >= max(j0, theta), part II the levels j0 < j < theta, so a per-node mask
on each part's weights, with the suffixes j >= j0 (part I) and j > j0
(part II) of the part's own pyramid, gives both level sets.  Part I's bound
and value carry the node's t^m.  Then `norms._PrunedCubeMax`
runs two exact passes through the unchanged upsampled kernel: the pair of
largest bound, then every pair whose bound reaches that value.  The scan
over the evaluated pairs keeps the (node, cube level, position) order with
a strict >, so `value`, `argmax_cube` and `argmax_node` are those of the
complete table, bit for bit.  Parts III/IV take every coefficient's window
integrals from one in-order running sum over the log cells, read at the
log edges -2 j beta ln 2 they use.

Every part reads |a|^q (|a| for q = inf) from one table built per call.

The outer 1/q power on the level sums of parts III/IV follows the same
L^p(l^q) shape as parts I/II; `literal_exponent=True` switches to the
displayed form without that root.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .grid import DyadicCube, TimeGrid
from .norms import (
    SpaceParams,
    _all_finite,
    _cube_at,
    _morrey_bounds,
    _PrunedCubeMax,
    _upsample,
)
from .wavelet import CoeffField, chunk_rows, detail_types


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


def _abs_power(tcf: CoeffField, q: float) -> tuple[dict, dict]:
    """|a| and |a|^q (|a| again for q = inf) of every detail block of tcf,
    in its shape: the one table every tent part reads, and the moduli the
    quadrature estimate reads."""
    absolute = {key: np.abs(arr) for key, arr in tcf.detail.items()}
    if q == np.inf:
        return absolute, absolute
    return absolute, {key: a ** q for key, a in absolute.items()}


def _level_fields(tcf: CoeffField, absq: dict, nodes: slice,
                  q: float) -> dict[int, np.ndarray]:
    """Per level j: sum_eps |a(t)|^q (sup for q=inf) of the nodes in
    `nodes` at the level's own resolution (2^j,)^n, stacked along a leading
    node axis; `absq` is the table `_abs_power(tcf, q)`."""
    n = tcf.spec.n
    out = {}
    for j in tcf.levels:
        stack = [absq[(eps, j)][nodes] for eps in detail_types(n)]
        # the eps terms added in order (sum()'s leading 0 adds nothing)
        out[j] = np.maximum.reduce(stack) if q == np.inf else reduce(np.add, stack)
    return out


def _integrand(fields: dict[int, np.ndarray], level_weights: dict[int, float],
               levels: Sequence[int], root: float | None) -> np.ndarray:
    """(sum_{j in levels} w_j F_j)^root, or the pointwise sup over the
    levels of w_j F_j when root is None (q = inf)."""
    if root is None:
        return np.maximum.reduce([level_weights[j] * fields[j] for j in levels])
    return sum(level_weights[j] * fields[j] for j in levels) ** root


def _time_moment_antiderivative(logt: np.ndarray, qm: float) -> np.ndarray:
    """Antiderivative of t^{qm} dt/t as a function of log t."""
    if qm == 0.0:
        return logt
    return np.exp(qm * logt) / qm


class _WindowIntegrals:
    """Per-coefficient integrals G(s) = int_(t_min-edge, s] |a(t)|^q t^{qm}
    dt/t, for each moment qm of `qms` and each log time s of `log_points`,
    with the measure integrated exactly on each log cell and |a| held at the
    node; `absq` is the table `_abs_power(tcf, q)` of a finite q.  The
    blocks sit side by side in one table, level by level, and the cells
    below s are added in order, one row of every moment's cells at a time
    (bit for bit a cumulative sum)."""

    def __init__(self, tcf: CoeffField, absq: dict, qms: Sequence[float],
                 log_points: Sequence[float]):
        n, L = tcf.spec.n, tcf.tg.L
        self.tcf = tcf
        edges = tcf.tg.log_edges()
        blocks = [absq[(eps, j)].reshape(L, -1)
                  for j in tcf.levels for eps in detail_types(n)]
        starts = np.cumsum([0] + [block.shape[1] for block in blocks]).tolist()
        width = starts[-1]
        per_level = len(detail_types(n))
        self.columns = {j: slice(starts[b * per_level], starts[(b + 1) * per_level])
                        for b, j in enumerate(tcf.levels)}
        # the cell holding each point (L: past the last edge, -1: before
        # the first) and the number of whole cells below it
        cell = {s: (L if s >= edges[-1] else -1 if s <= edges[0] else
                    int(np.searchsorted(edges, s, side="right")) - 1)
                for s in log_points}
        below = {s: max(c, 0) for s, c in cell.items()}
        top = max(below.values(), default=0)
        # every moment's cell integrals |a|^q * mass, side by side
        cells = np.empty((top, len(qms) * width))
        for i, qm in enumerate(qms):
            mass = np.diff(_time_moment_antiderivative(edges, qm))[:top, None]
            for block, a, b in zip(blocks, starts[:-1], starts[1:]):
                np.multiply(block[:top], mass, out=cells[:, i * width + a:i * width + b])
        running = np.zeros(len(qms) * width)
        wanted, sums = set(below.values()), {}
        for c in range(top + 1):
            if c in wanted:
                sums[c] = running.copy()
            if c < top:
                np.add(running, cells[c], out=running)
        self.G = {}
        for s, c in cell.items():
            row = np.concatenate([block[c] for block in blocks]) if 0 <= c < L else None
            for i, qm in enumerate(qms):
                G = sums[below[s]][i * width:(i + 1) * width]
                if row is not None:
                    anti_lo = _time_moment_antiderivative(np.array([edges[c]]), qm)[0]
                    anti_s = _time_moment_antiderivative(np.array([s]), qm)[0]
                    G = G + row * (anti_s - anti_lo)
                self.G[i, s] = G

    def own_edges(self, i: int, edge) -> np.ndarray:
        """Every column's G (i-th moment) at its level's edge `edge(j)`."""
        return np.concatenate([self.G[i, edge(j)][self.columns[j]]
                               for j in self.tcf.levels])

    def level_fields(self, windows: np.ndarray) -> dict[int, np.ndarray]:
        """Per level j: sum_eps of the window integrals `windows` (rows,
        columns), at the level's resolution (rows,) + (2^j,)^n."""
        n, rows = self.tcf.spec.n, len(windows)
        out = {}
        for j in self.tcf.levels:
            per_eps = windows[:, self.columns[j]].reshape(
                (rows, len(detail_types(n))) + (1 << j,) * n)
            out[j] = reduce(np.add, [per_eps[:, e] for e in range(per_eps.shape[1])])
        return out


def tent_norms(tcf: CoeffField, tp: TentParams,
               literal_exponent: bool = False) -> TentNormReport:
    """All four tent parts in one pass; the combined norm is their max.

    q = inf evaluates the sup-aggregate reading of parts I/II; the
    time-integrated parts III/IV are defined through integrals with
    exponent q and are reported as zero in that limit (their content is
    carried by the sup-in-t part)."""
    if tcf.tg is None:
        raise ParameterError("tent norms need a coefficient field on a time grid")
    if not _all_finite(tcf.detail.values()):
        raise ParameterError("time coefficient field has non-finite coefficients")
    spec, tg = tcf.spec, tcf.tg
    sp, beta, q = tp.sp, tp.beta, tp.sp.q
    n = spec.n
    nodes = tg.nodes()
    levels = list(tcf.levels)
    cube_levels = list(range(spec.j_min, spec.J))
    ln2 = np.log(2.0)
    root = None if q == np.inf else 1.0 / q

    def band(fields):
        return {j: _upsample(F, tcf.j_max, n) for j, F in fields.items()}

    # level weights 2^{qj(gamma1 + n/2 + 2 m beta)} (part I, also III),
    # 2^{qj(gamma1 + n/2)} (part II), q read as 1 for the sup aggregate
    e, s = (1.0 if q == np.inf else q), sp.gamma1 + n / 2.0
    w_i = {j: 2.0 ** (e * j * (s + 2 * tp.m * beta)) for j in levels}
    w_ii = {j: 2.0 ** (e * j * s) for j in levels}
    # one log2 over the nodes: numpy runs the inner loop a node-by-node
    # scalar call runs, so the seam levels keep their bits
    thetas = -np.log2(nodes) / (2.0 * beta)
    seam_levels = dict(enumerate(thetas))
    # part I admits j >= max(j0, theta) and part II j0 < j < theta: per node
    # the levels at or above theta weigh in part I, the others in part II
    above = np.array(levels)[None, :] >= thetas[:, None]
    absolute, absq = _abs_power(tcf, q)
    # part I's bound carries t^m; its value takes t^m as a numpy-scalar pow
    # per node below (an array pow can take a SIMD path with other bits,
    # which the bound's slack covers)
    t_m = nodes ** tp.m
    weights = [np.array([w[j] for j in levels]) * mask
               for w, mask in ((w_i, above), (w_ii, ~above))]
    bounds = [[], []]
    # two float parts per node and cell: a complex grid row's bytes
    rows = chunk_rows((1 << tcf.j_max) ** n)
    for start in range(0, tg.L, rows):
        chunk = slice(start, start + rows)
        for out, b in zip(bounds, _morrey_bounds(
                _level_fields(tcf, absq, chunk, q),
                [(weights[0][chunk], 0), (weights[1][chunk], 1)], cube_levels,
                root, sp, spec)):
            out.append(b)

    def node_integrands(w, admit):
        def integrands(ell, ks):
            fields = _level_fields(tcf, absq, slice(ell, ell + 1), q)
            groups: dict[tuple[int, ...], list[int]] = {}
            for k in ks:
                S = tuple(j for j in levels if admit(j, cube_levels[k], thetas[ell]))
                if S:
                    groups.setdefault(S, []).append(k)
            for S, group in groups.items():
                yield _integrand(band({j: fields[j] for j in S}), w, S, root), group
        return integrands

    sup1 = _PrunedCubeMax(np.concatenate(bounds[0]) * t_m[:, None],
                          node_integrands(w_i, lambda j, j0, th: j >= max(j0, th)),
                          cube_levels, sp, spec, scale=t_m)
    sup2 = _PrunedCubeMax(np.concatenate(bounds[1]),
                          node_integrands(w_ii, lambda j, j0, th: j0 < j < th),
                          cube_levels, sp, spec)
    part1 = PartResult(0.0)
    for ell in sup1.rows():
        v, j0, flat = sup1.best(ell)
        v1 = float(v)
        v1 *= nodes[ell] ** tp.m
        if v1 > part1.value:
            part1 = PartResult(v1, _cube_at(j0, flat, n), ell)
    part2 = PartResult(0.0)
    for ell in sup2.rows():
        v, j0, flat = sup2.best(ell)
        if float(v) > part2.value:
            part2 = PartResult(float(v), _cube_at(j0, flat, n), ell)

    part3 = PartResult(0.0)
    part4 = PartResult(0.0)
    if q != np.inf:
        root = 1.0 if literal_exponent else 1.0 / q

        def edge(j):
            return -2.0 * j * beta * ln2

        # part IV: the windows (0, 2^{-2 j beta}] of every level, one row;
        # it is cube-geometry independent in time.  Part III: per cube level
        # j0 the windows (2^{-2 j beta}, r^{2 beta}] of the levels j > j0,
        # one row per j0
        j0s = [j0 for j0 in cube_levels if j0 < levels[-1]]
        win = _WindowIntegrals(tcf, absq, (q * tp.m, q * tp.m_prime),
                               sorted({edge(j) for j in levels + j0s}))
        w_iv = {j: 2.0 ** (q * j * (s + 2 * tp.m_prime * beta)) for j in levels}
        field_iv = win.level_fields(np.maximum(win.own_edges(1, edge), 0.0)[None])
        [b4] = _morrey_bounds(field_iv, [([[w_iv[j] for j in levels]], None)],
                              cube_levels, root, sp, spec)
        sup4 = _PrunedCubeMax(
            b4, lambda row, ks: [(_integrand(band(field_iv), w_iv, levels, root), ks)],
            cube_levels, sp, spec)
        v4, j4, flat4 = sup4.best(0)
        part4 = PartResult(float(v4), _cube_at(j4, flat4, n))

        if j0s:
            fields3 = win.level_fields(np.maximum(
                np.stack([win.G[0, edge(j0)] for j0 in j0s]) - win.own_edges(0, edge),
                0.0))
            w3 = [[w_i[j] if j > j0 else 0.0 for j in levels] for j0 in j0s]
            [b3] = _morrey_bounds(fields3, [(np.array(w3), 1)], j0s, root, sp, spec)

            def integrands3(row, ks):
                for k in ks:
                    field3 = {j: _upsample(F[k:k + 1], tcf.j_max, n)
                              for j, F in fields3.items() if j > j0s[k]}
                    yield _integrand(field3, w_i, list(field3), root), [k]

            sup3 = _PrunedCubeMax(np.diagonal(b3)[None], integrands3, j0s, sp, spec)
            v3, j3, flat3 = sup3.best(0)
            part3 = PartResult(float(v3), _cube_at(j3, flat3, n))

    quad_est = _quadrature_refinement_estimate(tcf, tp, absolute)
    return TentNormReport(part1, part2, part3, part4, seam_levels, quad_est)


def _quadrature_refinement_estimate(tcf: CoeffField, tp: TentParams,
                                    absolute: dict) -> float:
    """Relative change of a representative time integral when every other
    node is dropped; a proxy for the parts III/IV quadrature error.
    `absolute` holds |a| of every detail block."""
    q = tp.sp.q
    if q == np.inf or tcf.tg.L < 8:
        return 0.0
    key = max(absolute, key=lambda k: float(np.max(absolute[k])))
    arr = absolute[key].reshape(tcf.tg.L, -1)
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
