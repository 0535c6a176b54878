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
G = (sum_{j in S} w_j F_j)^root over an admitted level set S, F_j >= 0
constant on the level-j cells (root None, for q = inf:
G = max_{j in S} w_j F_j).

Parts I/II have a row per time node, and `norms._Pruner` runs them, one
group per part, with the ceilings of `_morrey_bounds` (the two passes are
described in the `norms` module docstring).  With r = p root (r = p for
root None) the cube sum of the kernel is cell sum_{x in Q} G^p =
int_Q G^p, and

  - for r <= 1, (sum a_j)^r <= sum a_j^r (a concave power vanishing at 0 is
    subadditive), so int_Q G^p <= sum_{j in S} w_j^r int_Q F_j^r; the same
    sum bounds max_j (w_j F_j)^p for root None;
  - for r > 1, Minkowski in L^r(Q) gives
    int_Q G^p <= (sum_{j in S} (w_j^r int_Q F_j^r)^{1/r})^r.

Every admitted level has j >= j0, the cube level, and int_Q F_j^r =
2^{-nj} sum_{k in Q} F_j[k]^r is a pairwise-sum pyramid of the level's own
cells, with no upsampling.  The max over cubes of the bound's cube sum
bounds the max of the exact one, and w_{j0} times its 1/p power bounds the
Morrey value.  Every admitted level's cube sum gets 2^-800 added before its
weight (the sum form adds it for every level the row weighs), and the sum
over S once more after, so powers and products that underflowed cannot
push the bound below the value; the result is multiplied by
1 + BOUND_SLACK, far above the rounding of the reordered sums for any value
above 2^-800.  Part I admits the levels j >= max(j0, theta) and part II the
levels j0 < j < theta, so a per-node mask on each part's weights, with the
suffixes j >= j0 (part I) and j > j0 (part II) of the part's own pyramid,
gives both level sets; one bound pass runs per chunk of nodes (at most
CHUNK_BYTES of the pass's level arrays).  Part I's ceiling and value carry
the node's t^m.  The exact kernel is the unchanged upsampled
`_morrey_cube_max`, and the pruner's scan keeps the (node, cube level,
position) order with a strict >, so `value`, `argmax_cube` and
`argmax_node` are those of the complete table, bit for bit.

Parts III/IV have one candidate per cube level (part IV one row of
windows, part III one row per cube level), so every cube level is
evaluated, as for the TLM norm: on so few candidates a bound costs about as
much as the kernel calls it could save.  They take every coefficient's
window integrals from one in-order running sum over the log cells, read at
the log edges -2 j beta ln 2 they use.

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
from .grid import GridSpec
from .norms import (
    BOUND_SLACK,
    SpaceParams,
    _TRUSTED_ENERGY,
    _all_finite,
    _cube_at,
    _first_cube,
    _morrey_cube_max,
    _Pruner,
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


@np.errstate(all="ignore")
def _morrey_bounds(fields: dict[int, np.ndarray], parts, j0s: Sequence[int],
                   root: float | None, sp: SpaceParams,
                   spec: GridSpec) -> list[np.ndarray]:
    """Upper bounds of the Morrey values `_morrey_cube_max` gives for the
    integrands (sum_{j in S} w_j F_j)^root (root None: max_{j in S} w_j F_j),
    per row of the fields' leading axis and cube level j0 of j0s (module
    docstring).  `fields` maps each level j to F_j >= 0 at its own
    resolution, (rows,) + (2^j,)^n.  Each part (w, skip) has weights w
    (rows, levels), 0 leaving a level out of a row, and admits the levels
    j >= j0 + skip, skip 0 or 1.  One (rows, len(j0s)) array per part; 0
    where a part admits no level, +inf where the bound overflowed."""
    n, levels = spec.n, sorted(fields)
    rows, nl, P, K = len(fields[levels[0]]), len(levels), len(parts), len(j0s)
    r = sp.p if root is None else sp.p * root
    mink = root is not None and r > 1
    W = np.array([w for w, _ in parts], dtype=float)
    W = W if r == 1 else W ** r
    Fr = [fields[j] if r == 1 else fields[j] ** r for j in levels]
    grid = tuple(range(-n, 0))
    # the level-j terms at their own resolution: 2^{-nj} F_j^r, weighted per
    # part in the sum form, and summed along the way down to each cube
    # level (the Minkowski form keeps one term per level)
    coef = (W * [2.0 ** (-n * j) for j in levels]).reshape((P, rows, nl) + (1,) * n)
    col = {j0: c for c, j0 in enumerate(j0s)}
    own = {j: b for b, j in enumerate(levels)}
    halves = [((Ellipsis, slice(h, None, 2)) + (slice(None),) * (-1 - axis))
              for axis in grid for h in (0, 1)]
    # the sum form keeps one running sum per part and leaves out the levels
    # no row of a part weighs; the Minkowski form one stack of the levels
    live = np.logical_or.reduce(W, axis=1).tolist()
    accs, count = [None] * (1 if mink else P), 0
    # per part the max over the cubes of each j0 of its levels' terms: the
    # levels > j0 (taken before level j0's terms join) for skip 1, the
    # levels >= j0 (after) for skip 0
    highs = np.zeros((P, rows, K))
    before = [p for p, (_, skip) in enumerate(parts) if skip == 1]
    after = [p for p, (_, skip) in enumerate(parts) if skip == 0]

    def high(p, c):
        acc = accs[0 if mink else p]
        if acc is None:
            return
        if mink:
            w = W[p, :, nl - count:].reshape((rows, count) + (1,) * n)
            acc = (((acc + _TRUSTED_ENERGY) * w) ** (1.0 / r)).sum(axis=1)
        highs[p, :, c] = np.maximum.reduce(acc, axis=grid)

    for i in range(max(levels[-1], max(j0s)), min(j0s) - 1, -1):
        for a, acc in enumerate(accs):    # pairwise sums along every grid axis
            if acc is not None:
                for h in range(0, 2 * n, 2):
                    acc = acc[halves[h]] + acc[halves[h + 1]]
                accs[a] = acc
        c = col.get(i)
        for p in (before if c is not None else ()):
            high(p, c)
        b = own.get(i)
        if b is not None and mink:
            term = (2.0 ** (-n * i) * Fr[b])[:, None]
            accs[0] = term if accs[0] is None else np.concatenate([term, accs[0]], axis=1)
            count += 1
        elif b is not None:
            for p in range(P):
                if live[p][b]:
                    term = coef[p, :, b] * Fr[b]
                    accs[p] = term if accs[p] is None else accs[p] + term
        for p in (after if c is not None else ()):
            high(p, c)
    if not mink:
        # 2^-800 for each per-level cube sum, before its weight
        highs += _TRUSTED_ENERGY * np.add.reduce(W, axis=-1)[:, :, None]
    b = (highs ** r if mink else highs) + _TRUSTED_ENERGY
    weight = [2.0 ** (-j0 * (sp.gamma2 - n / sp.p)) * (1.0 + BOUND_SLACK) for j0 in j0s]
    out = b ** (1.0 / sp.p) * weight
    # a part admits no level at the cube levels past its last level
    for p, (_, skip) in enumerate(parts):
        out[p][:, [c for c, j0 in enumerate(j0s) if j0 + skip > levels[-1]]] = 0.0
    out[np.isnan(out)] = np.inf
    return list(out)


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
    # part I's ceiling and value carry t^m, a numpy-scalar pow per node (an
    # array pow can take a SIMD path with other bits)
    t_m = np.array([t ** tp.m for t in nodes])
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
    K = len(cube_levels)

    def pruned_part(ceilings, w, admit, scale=None) -> PartResult:
        """Part I or II: its (node, cube level) pairs, flat, one group."""
        flats = np.zeros(ceilings.size, dtype=int)

        def evaluate(idx):
            values = np.zeros(len(idx))
            for at, i in enumerate(idx.tolist()):
                ell, k = divmod(i, K)
                S = [j for j in levels if admit(j, cube_levels[k], thetas[ell])]
                if S:                       # no admitted level: value 0
                    fields = _level_fields(tcf, absq, slice(ell, ell + 1), q)
                    [(vals, flat)] = _morrey_cube_max(
                        _integrand(band({j: fields[j] for j in S}), w, S, root),
                        [cube_levels[k]], sp, spec)
                    values[at], flats[i] = vals[0], flat[0]
            return values

        sup = _Pruner(ceilings.reshape(-1), np.zeros(ceilings.size, dtype=int),
                      evaluate, scale)
        value, i = sup.best(0)
        if i is None:
            return PartResult(0.0)
        ell, k = divmod(i, K)
        return PartResult(value, _cube_at(cube_levels[k], flats[i], n), ell)

    part1 = pruned_part(np.concatenate(bounds[0]) * t_m[:, None], w_i,
                        lambda j, j0, th: j >= max(j0, th), np.repeat(t_m, K))
    part2 = pruned_part(np.concatenate(bounds[1]), w_ii,
                        lambda j, j0, th: j0 < j < th)

    part3 = part4 = PartResult(0.0)
    if q != np.inf:
        root = 1.0 if literal_exponent else 1.0 / q

        def edge(j):
            return -2.0 * j * beta * ln2

        # part IV: the windows (0, 2^{-2 j beta}] of every level, one row;
        # it is cube-geometry independent in time.  Part III: per cube level
        # j0 the windows (2^{-2 j beta}, r^{2 beta}] of the levels j > j0
        j0s = [j0 for j0 in cube_levels if j0 < levels[-1]]
        win = _WindowIntegrals(tcf, absq, (q * tp.m, q * tp.m_prime),
                               sorted({edge(j) for j in levels + j0s}))
        w_iv = {j: 2.0 ** (q * j * (s + 2 * tp.m_prime * beta)) for j in levels}
        field_iv = win.level_fields(np.maximum(win.own_edges(1, edge), 0.0)[None])
        part4 = PartResult(*_first_cube(cube_levels, _morrey_cube_max(
            _integrand(band(field_iv), w_iv, levels, root), cube_levels, sp, spec), n))
        if j0s:
            fields3 = win.level_fields(np.maximum(
                np.stack([win.G[0, edge(j0)] for j0 in j0s]) - win.own_edges(0, edge),
                0.0))
            found = []
            for k, j0 in enumerate(j0s):
                field3 = {j: _upsample(F[k:k + 1], tcf.j_max, n)
                          for j, F in fields3.items() if j > j0}
                found += _morrey_cube_max(_integrand(field3, w_i, list(field3), root),
                                          [j0], sp, spec)
            part3 = PartResult(*_first_cube(j0s, found, n))

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
