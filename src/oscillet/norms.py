"""Coefficient-side and oscillation-side norms.

The central object is the Morrey-weighted sup over dyadic cubes of a mixed
L^p(l^q) aggregate of detail coefficients,

    sup_Q |Q|^{gamma2/n - 1/p} || ( sum_{Q_{j,k} subset Q, eps}
        2^{q j (gamma1 + n/2)} |a^eps_{j,k}|^q chi(2^j x - k) )^{1/q} ||_{L^p},

together with its oscillation-definition counterpart (cutoff, moment-
matched polynomial subtraction, plain Triebel-Lizorkin norm per cube).
Scaling coefficients never enter these norms: the spaces are homogeneous and
the scaling block only carries the sub-band remainder of the discretization.

Level fields are built at band resolution: a level-j field is constant on
blocks of 2^{J - j_max} samples per axis, so it lives on the (2^{j_max},)^n
grid, and only the p-th power of the integrand is blown up to the sample
grid, just before the sums.  Elementwise results do not depend on position
and each sum still reads the full grid, so the values are bit for bit those
of full-grid fields.

The oscillation norm takes one sample or a batch of samples on one grid and
is evaluated one cube level at a time.  The chart coordinates
u = (x - x_Q)/r are dyadic rationals that depend on the cube only through
the offset lo - k 2^{J-j0} of its (boundary-clipped) sample box, so the
interior cubes of a level share one chart bit for bit, and no chart
depends on the sample.  Each distinct chart gets one bump weight, one Gram
matrix, one condition number and one least-squares solve with a
right-hand side per cube of every sample; the residuals
phi_Q (f - P_{Q,f}) of consecutive (sample, cube) rows are scattered into
one stack of at most CHUNK_BYTES, which one batched wavelet analysis and
one batched TL norm consume.  Every per-cube sum still runs along one
contiguous last axis, each column of a multi-RHS lstsq has the bits of its
own solve, and the final root stays a scalar pow, so each value is bit for
bit the one a cube-by-cube, sample-by-sample evaluation gives.

Cube sups are exact over the finite dyadic family; when gamma2 = n/p and the
coarsest cube is the whole torus, the Morrey sup is attained there and the
evaluator returns bit-for-bit the plain Triebel-Lizorkin norm.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateRegimeWarning,
    GridMismatchError,
    MomentConditioningError,
    ParameterError,
)
from .grid import DyadicCube, GridFunction, GridSpec, cube_sample_slices, min_image
from .wavelet import CHUNK_BYTES, CoeffField, detail_types

CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class SpaceParams:
    """(gamma1, gamma2, p, q) with 0 < p < inf and 0 < q <= inf."""

    gamma1: float
    gamma2: float
    p: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma1) and np.isfinite(self.gamma2)):
            raise ParameterError(
                f"gamma1 and gamma2 must be finite, got {self.gamma1}, {self.gamma2}")
        if not (0 < self.p < np.inf):
            raise ParameterError(f"p must be finite positive, got {self.p}")
        if not (self.q > 0):
            raise ParameterError(f"q must be positive (or inf), got {self.q}")

    def degenerate(self, n: int) -> bool:
        """gamma2 > n/p: continuum space reduces to polynomials."""
        return self.gamma2 > n / self.p


def _upsample(arr: np.ndarray, J: int, n: int | None = None) -> np.ndarray:
    """Blow a (2^j,)^n array up to the (2^J,)^n grid by block repetition;
    with n given, only the last n axes are grid axes."""
    n = arr.ndim if n is None else n
    factor = (1 << J) // arr.shape[-1]
    if factor == 1:
        return arr
    out = arr
    for axis in range(arr.ndim - n, arr.ndim):
        out = np.repeat(out, factor, axis=axis)
    return out


def _block_reduce_sum(arr: np.ndarray, j0: int, J: int,
                      n: int | None = None) -> np.ndarray:
    """Sum the full-grid array over each level-j0 cube; result (2^{j0},)^n.
    With n given, only the last n axes are grid axes; the leading ones are
    kept."""
    n = arr.ndim if n is None else n
    lead = arr.shape[:arr.ndim - n]
    L, w = 1 << j0, 1 << (J - j0)
    reshaped = arr.reshape(lead + sum(((L, w),) * n, ()))
    b = len(lead)
    return reshaped.sum(axis=tuple(range(b + 1, b + 2 * n, 2)))


def _level_power_sum(c: CoeffField, j: int, q: float, rows=Ellipsis) -> np.ndarray:
    """sum_eps |a^eps_{j,k}|^q at level resolution (the pointwise sup over
    eps of |a| when q = inf), for the rows `rows` of c's leading axes."""
    stack = [np.abs(c.detail[(eps, j)][rows]) for eps in detail_types(c.spec.n)]
    return np.maximum.reduce(stack) if q == np.inf else sum(a ** q for a in stack)


def _level_aggregates(c: CoeffField, gamma1: float, q: float):
    """Yield (j, field) finest level first: the field
    sum_eps 2^{qj(gamma1+n/2)} |a|^q (pointwise sup over eps of the weighted
    |a| when q = inf) at band resolution (2^{j_max},)^n, with the leading
    batch axes of a stacked c."""
    n = c.spec.n
    for j in reversed(c.levels):
        w = 2.0 ** (j * (gamma1 + n / 2.0))
        lvl = _level_power_sum(c, j, q)
        yield j, _upsample(w * lvl if q == np.inf else (w ** q) * lvl, c.j_max, n)


def _morrey_cube_max(integrand: np.ndarray, j0s: Sequence[int], sp: SpaceParams,
                     spec: GridSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each cube level j0 of j0s, per row of the integrand's leading
    batch axis: the max over level-j0 cubes Q of
    |Q|^{gamma2/n - 1/p} ||integrand||_{L^p(Q)}, and the flat position of
    the first cube attaining it.  The integrand may be at any dyadic
    resolution up to the grid's; its p-th power is blown up to the grid
    once, before the cube sums of every j0, which therefore read what a
    full-grid integrand gives, bit for bit."""
    n = spec.n
    powered = _upsample(integrand ** sp.p, spec.J, n)
    out = []
    for j0 in j0s:
        sums = _block_reduce_sum(powered, j0, spec.J, n)
        weight = 2.0 ** (-j0 * (sp.gamma2 - n / sp.p))
        vals = weight * (spec.cell_volume * sums) ** (1.0 / sp.p)
        vals = vals.reshape(len(vals), -1)
        flat = np.argmax(vals, axis=1)
        out.append((vals[np.arange(len(vals)), flat], flat))
    return out


def _suffix_combine(levels, q: float):
    """Yield (j0, V[j0]) finest level first, V[j0] aggregating the level
    fields j >= j0 of `levels` (sum for finite q, sup for q=inf).  Lazy, so
    a caller that keeps only the last holds three fields at a time."""
    acc = None
    for j, lvl in levels:
        if acc is None:
            acc = lvl
        else:
            acc = np.maximum(acc, lvl) if q == np.inf else acc + lvl
        yield j, acc


@dataclass
class TlmReport:
    value: float
    argmax_cube: DyadicCube | None
    per_level: dict[int, float] = field(default_factory=dict)


def tl_norm(c: CoeffField, gamma1: float, p: float, q: float):
    """Plain Triebel-Lizorkin norm of a coefficient field (no cube sup): a
    float, or for a stacked field an array with one norm per batch index."""
    SpaceParams(gamma1, c.spec.n / p, p, q)          # parameter checks only
    batch = c.batch_shape
    V = None
    for _, V in _suffix_combine(_level_aggregates(c, gamma1, q), q):
        pass
    if V is None:
        return np.zeros(batch) if batch else 0.0
    integrand = V if q == np.inf else V ** (1.0 / q)
    # elementwise powers at band resolution; the sum reads the full grid
    powered = _upsample(integrand ** p, c.spec.J, c.spec.n)
    sums = np.sum(powered.reshape(batch + (-1,)), axis=-1)
    # the final root stays a numpy-scalar pow (libm) per value: an array
    # power maps ** 0.5 to sqrt, which can differ in the last bit
    cell = c.spec.cell_volume
    vals = [float((cell * s) ** (1.0 / p)) for s in sums.reshape(-1)]
    return np.array(vals).reshape(batch) if batch else vals[0]


def tlm_wavelet_norm(c: CoeffField, sp: SpaceParams) -> float:
    return tlm_wavelet_norm_report(c, sp).value


def tlm_wavelet_norm_report(c: CoeffField, sp: SpaceParams) -> TlmReport:
    if c.batch_shape:
        raise ParameterError("the TLM norm takes a single field, not a stack")
    if not all(np.all(np.isfinite(a)) for a in c.detail.values()):
        raise ParameterError("coefficient field has non-finite detail coefficients")
    if sp.degenerate(c.spec.n):
        warnings.warn(
            f"gamma2={sp.gamma2} > n/p={c.spec.n / sp.p}: degenerate regime "
            "(continuum space contains only polynomials)",
            DegenerateRegimeWarning,
            stacklevel=2,
        )
    return _tlm_core(c, sp, cube_levels=None)


def _tlm_core(c: CoeffField, sp: SpaceParams, cube_levels) -> TlmReport:
    n, J = c.spec.n, c.spec.J
    V = dict(_suffix_combine(_level_aggregates(c, sp.gamma1, sp.q), sp.q))
    if not V:
        return TlmReport(0.0, None)
    if cube_levels is None:
        cube_levels = range(c.spec.j_min, J)
    best, best_cube = 0.0, None
    per_level: dict[int, float] = {}
    for j0 in cube_levels:
        # levels >= j0 contribute; nothing left above the finest detail level
        avail = [j for j in V if j >= j0]
        if not avail:
            per_level[j0] = 0.0
            continue
        Vj = V[min(avail)]
        integrand = Vj if sp.q == np.inf else Vj ** (1.0 / sp.q)
        [(vals, flat)] = _morrey_cube_max(integrand[None], (j0,), sp, c.spec)
        per_level[j0] = float(vals[0])
        if per_level[j0] > best:
            best = per_level[j0]
            k = np.unravel_index(int(flat[0]), (1 << j0,) * n)
            best_cube = DyadicCube(j0, tuple(int(v) for v in k))
    return TlmReport(best, best_cube, per_level)


# -- cutoff family and moment system -------------------------------------------

def _bump(r_in: float, r_out: float) -> Callable:
    """Radial profile: 1 on [0, r_in], C-infty decay on (r_in, r_out), 0 beyond."""
    def psi(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        out[r <= r_in] = 1.0
        trans = (r > r_in) & (r < r_out)
        s = (r[trans] - r_in) / (r_out - r_in)
        out[trans] = np.exp(1.0 - 1.0 / (1.0 - s**2))
        return out

    return psi


@dataclass
class CutoffFamily:
    """phi_Q(x) = phi((x - x_Q)/r): radial bump, 1 on the cube, compact support.

    The default radii are r_in = sqrt(n), r_out = n as in the defining
    condition; dimension one is degenerate there (sqrt(1) = 1) so the
    support is widened to 2."""

    n: int
    plateau_radius: float = 0.0
    support_radius: float = 0.0
    profile: Callable | None = None

    def __post_init__(self):
        r_in = float(np.sqrt(self.n))
        if self.plateau_radius == 0.0:
            self.plateau_radius = r_in
        if self.support_radius == 0.0:
            self.support_radius = float(self.n) if self.n > r_in else 2.0 * r_in
        if self.profile is None:
            self.profile = _bump(self.plateau_radius, self.support_radius)

    def evaluate(self, u_radius: np.ndarray) -> np.ndarray:
        return self.profile(u_radius)


def _chart_bounds(spec: GridSpec, j: int, k: np.ndarray, cutoff: CutoffFamily):
    """Per-axis sample ranges [lo, hi) covering supp(phi_Q) of the level-j
    cubes at positions k (any integer array), clipped to [0, 1)^n.

    Charts never wrap: the oscillation definition treats [0,1)^n as a window
    of the plane, which keeps polynomial subtraction exact for global
    polynomials."""
    N = spec.samples_per_axis
    r = 2.0 ** -j
    R = cutoff.support_radius * r
    center = (k + 0.5) * r
    lo = np.maximum(0, np.floor((center - R) * N).astype(int))
    hi = np.minimum(N, np.ceil((center + R) * N).astype(int) + 1)
    return lo, hi


def _cube_chart(spec: GridSpec, j: int, k, cutoff: CutoffFamily):
    """Chart of the level-j cube at position k: flat sample indices (W,), the
    scaled coordinates u = (x - x_Q)/r as n arrays (W,), and |u| (W,).  W
    runs over the chart box in C order."""
    N = spec.samples_per_axis
    r = 2.0 ** -j
    lo, hi = (b[0] for b in _chart_bounds(spec, j, np.array([k]), cutoff))
    axes = [np.arange(a, b) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grids = [((idx / N - (ki + 0.5) * r) / r).reshape(-1)
             for idx, ki in zip(mesh, k)]
    flat = np.ravel_multi_index(tuple(mesh), spec.shape).reshape(-1)
    radius = np.sqrt(sum(g**2 for g in grids))
    return flat, grids, radius


def _monomial_exponents(n: int, m0: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for d in range(budget + 1):
            rec(prefix + [d], remaining - 1, budget - d)

    rec([], n, m0)
    return sorted(out, key=lambda e: (sum(e), e))


@dataclass
class MomentSystem:
    """Moment-matched polynomials P_{Q,f} of total degree <= m0 for the B
    (sample, cube) pairs of one chart: coefficients (B, d), and the
    condition number of the Gram matrix they share."""

    m0: int
    exponents: list[tuple[int, ...]]
    coefficients: np.ndarray
    condition: float

    def evaluate(self, grids, rows=slice(None)) -> np.ndarray:
        """P_{Q,f} on the chart, one row (W,) per cube of `rows`."""
        coeffs = self.coefficients[rows]
        out = np.zeros((len(coeffs), len(grids[0])), dtype=complex)
        for coeff, expo in zip(coeffs.T, self.exponents):
            out += coeff[:, None] * _mono(grids, expo)
        return out


def _mono(grids, expo) -> np.ndarray:
    out = np.ones_like(grids[0])
    for g, d in zip(grids, expo):
        if d:
            out = out * g**d
    return out


def _moment_rhs(weight: np.ndarray, grids, fvals: np.ndarray,
                m0: int) -> np.ndarray:
    """<u^a, phi f> on one chart for each row of fvals (B, W): (d, B)."""
    monos = [_mono(grids, e) for e in _monomial_exponents(len(grids), m0)]
    return np.stack([np.sum(weight * ma * fvals, axis=-1) for ma in monos])


def solve_moment_system(weight: np.ndarray, grids, rhs: np.ndarray,
                        m0: int, cubes: Sequence[DyadicCube]) -> MomentSystem:
    """Least squares on the Gram system <u^a, phi u^b> c = <u^a, phi f> of
    one chart, shared by the cubes `cubes` of every sample: weight and
    grids are (W,) on the chart, rhs (d, B) is `_moment_rhs` of each
    (sample, cube) pair.  One Gram matrix, one condition number and one
    lstsq with a right-hand side per pair; raises for the first cube if
    the system is ill-conditioned."""
    expos = _monomial_exponents(len(grids), m0)
    monos = [_mono(grids, e) for e in expos]
    G = np.array([[np.sum(weight * ma * mb) for mb in monos] for ma in monos])
    cond = float(np.linalg.cond(G))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise MomentConditioningError(cubes[0], cond)
    # lstsq, not np.linalg.solve: solve is another algorithm.  Each column
    # of a multi-RHS lstsq has the bits of its own single solve.
    coeffs = np.linalg.lstsq(G, rhs, rcond=None)[0].T
    return MomentSystem(m0, expos, coeffs, cond)


@dataclass
class OscillationReport:
    value: float
    argmax_cube: DyadicCube | None
    per_cube: list[tuple[DyadicCube, float]]
    refined_value: float | None = None


def oscillation_norm(f: GridFunction, sp: SpaceParams, cutoff: CutoffFamily,
                     m0: int, basis, cube_levels: Sequence[int] | None = None,
                     refine: bool = False) -> float:
    return oscillation_norm_report(f, sp, cutoff, m0, basis,
                                   cube_levels=cube_levels, refine=refine).value


def oscillation_norm_report(f: GridFunction | Sequence[GridFunction],
                            sp: SpaceParams, cutoff: CutoffFamily, m0: int,
                            basis, cube_levels: Sequence[int] | None = None,
                            refine: bool = False):
    """Definition-side norm: sup over cubes of the weighted TL norm of
    phi_Q (f - P_{Q,f}), evaluated one cube level at a time.

    f is one grid function (the result is one report) or a sequence of
    them on one grid (a list of reports, in order).  The samples of a
    sequence share every chart and moment system and fill the analysis
    stacks together; each report is bit for bit the one a call with its
    sample alone gives.  `refine` applies per sample."""
    single = isinstance(f, GridFunction)
    fs = [f] if single else list(f)
    if m0 < 0:
        raise ParameterError(f"moment order m0 must be at least 0, got {m0}")
    if not fs:
        return []
    spec = fs[0].spec
    if any(g.spec != spec for g in fs):
        raise GridMismatchError("the samples of one call must share a grid")
    data = np.stack([g.data.reshape(-1) for g in fs])
    if not np.all(np.isfinite(data)):
        raise ParameterError("f has non-finite samples")
    if cube_levels is None:
        cube_levels = range(spec.j_min, spec.J)
    tables: list[list[tuple[DyadicCube, float]]] = [[] for _ in fs]
    for j0 in cube_levels:
        cubes, vals = _level_oscillation(data, spec, sp, cutoff, m0, basis, j0)
        for table, row in zip(tables, vals.tolist()):
            table += zip(cubes, row)
    reports = []
    for g, table in zip(fs, tables):
        best, best_cube = 0.0, None
        for cube, val in table:
            if val > best:
                best, best_cube = val, cube
        refined = None
        if refine and best_cube is not None:
            refined = _refine_cube(g, sp, cutoff, m0, basis, best_cube, best)
        reports.append(OscillationReport(best, best_cube, table, refined))
    return reports[0] if single else reports


def _runs(keys: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) of each run of equal consecutive rows of keys."""
    change = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=-1)) + 1
    edges = [0, *change.tolist(), len(keys)]
    return list(zip(edges[:-1], edges[1:]))


@dataclass
class _ChartSystem:
    """The (sample, cube) rows of one level whose cubes share a chart, and
    their moment system.  The rows s * cubes + member run sample-major;
    per row its sample and the offset (R, 1) of its chart from the first
    member's flat sample indices `flat` (W,); the bump weight and the
    coordinates on the chart (W,)."""

    rows: np.ndarray
    sample: np.ndarray
    flat: np.ndarray
    shift: np.ndarray
    weight: np.ndarray
    grids: list
    system: MomentSystem

    def residuals(self, data: np.ndarray, a: int, b: int):
        """Flat sample indices and phi_Q (f - P_{Q,f}) of rows a..b-1, each
        (b - a, W); data holds one flat sample per row."""
        idx = self.flat + self.shift[a:b]
        poly = self.system.evaluate(self.grids, slice(a, b))
        return idx, self.weight * (data[self.sample[a:b, None], idx] - poly)


def _level_charts(data, spec, cutoff, m0, j0, ks, cubes) -> list[_ChartSystem]:
    """One moment system per distinct chart of the level-j0 cubes at
    positions ks, shared by every sample (row of data), in the order of
    the chart's first cube, so an ill-conditioned chart raises for the
    first such cube.  The right-hand sides, one per member cube of every
    sample in sample-major order, are summed over blocks of at most
    CHUNK_BYTES of samples.

    u = (x - x_Q)/r is a dyadic rational that depends on k only through the
    offset lo - k 2^{J-j0}, so cubes with equal offsets and chart shapes
    have bitwise-equal charts; only boundary-clipped cubes differ."""
    strides = spec.samples_per_axis ** np.arange(spec.n - 1, -1, -1)
    S, count = len(data), len(ks)
    lo, hi = _chart_bounds(spec, j0, ks, cutoff)
    keys = np.concatenate([lo - ks * (1 << (spec.J - j0)), hi - lo], axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    out = []
    for c in np.argsort(first):
        members = np.flatnonzero(inverse.reshape(-1) == c)
        flat, grids, radius = _cube_chart(spec, j0, ks[members[0]], cutoff)
        weight = cutoff.evaluate(radius)
        rows = (np.arange(S)[:, None] * count + members).reshape(-1)
        sample = rows // count
        shift = np.tile((lo[members] - lo[members[0]]) @ strides, S)[:, None]
        block = max(1, CHUNK_BYTES // (16 * len(flat)))
        rhs = np.concatenate(
            [_moment_rhs(weight, grids, data[sample[a:a + block, None],
                                             flat + shift[a:a + block]], m0)
             for a in range(0, len(rows), block)], axis=1)
        system = solve_moment_system(weight, grids, rhs, m0,
                                     [cubes[i] for i in members])
        out.append(_ChartSystem(rows, sample, flat, shift, weight, grids, system))
    return out


def _level_oscillation(data, spec, sp, cutoff, m0, basis, j0):
    """The level-j0 cubes in order, and per sample (row of data) the
    weighted TL norm of phi_Q (f - P_{Q,f}) of each: (samples, cubes).  The
    residuals of consecutive (sample, cube) rows, sample-major, are
    scattered into one (chunk,) + grid stack of at most CHUNK_BYTES,
    analyzed together and normed together."""
    n = spec.n
    ks = np.stack(np.unravel_index(np.arange((1 << j0) ** n), (1 << j0,) * n),
                  axis=-1)
    cubes = [DyadicCube(j0, tuple(k)) for k in ks.tolist()]
    charts = _level_charts(data, spec, cutoff, m0, j0, ks, cubes)
    total = len(data) * len(ks)
    rows = max(1, CHUNK_BYTES // (16 * spec.size))
    tl = np.empty(total)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        stack = np.zeros((stop - start, spec.size), dtype=complex)
        for chart in charts:
            a, b = np.searchsorted(chart.rows, (start, stop))
            if a < b:
                idx, residual = chart.residuals(data, a, b)
                stack[chart.rows[a:b, None] - start, idx] = residual
        c = basis.analyze_stack(stack.reshape((stop - start,) + spec.shape))
        tl[start:stop] = tl_norm(c, sp.gamma1, sp.p, sp.q)
    weight_j = 2.0 ** (-j0 * (sp.gamma2 - n / sp.p))
    return cubes, weight_j * tl.reshape(len(data), len(ks))


def _refine_cube(f, sp, cutoff, m0, basis, cube, moment_value) -> float:
    """Direct minimization over the polynomial, recorded when it undercuts
    the moment-matched solution by a noticeable margin."""
    from scipy.optimize import minimize

    spec = f.spec
    idx, grids, radius = _cube_chart(spec, cube.j, cube.k, cutoff)
    weight = cutoff.evaluate(radius)
    fvals = f.data.reshape(-1)[idx]
    expos = _monomial_exponents(spec.n, m0)
    rhs = _moment_rhs(weight, grids, fvals[None], m0)
    start = solve_moment_system(weight, grids, rhs, m0,
                                [cube]).coefficients[0].real

    def objective(coeffs):
        poly = np.zeros_like(grids[0])
        for coeff, expo in zip(coeffs, expos):
            poly += coeff * _mono(grids, expo)
        g = np.zeros(spec.size, dtype=complex)
        g[idx] = weight * (fvals - poly)
        c = basis.analyze(GridFunction(spec, g))
        return tl_norm(c, sp.gamma1, sp.p, sp.q)

    res = minimize(objective, start, method="Nelder-Mead",
                   options={"maxiter": 200, "xatol": 1e-6, "fatol": 1e-9})
    w = 2.0 ** (-cube.j * (sp.gamma2 - spec.n / sp.p))
    return float(min(moment_value, w * res.fun))


# -- maximal function and kernel sums ------------------------------------------

def dyadic_maximal(f: GridFunction) -> GridFunction:
    """M g (x) = max over dyadic cubes containing x of the average of |g|."""
    spec = f.spec
    h = np.abs(f.data)
    best = h.copy()
    for j0 in range(spec.J - 1, -1, -1):
        avg = _block_reduce_sum(h, j0, spec.J) / float(1 << (spec.n * (spec.J - j0)))
        best = np.maximum(best, _upsample(avg, spec.J))
    return GridFunction(spec, best)


def vector_maximal(fs: Sequence[GridFunction], A: float,
                   spec: GridSpec | None = None) -> GridFunction:
    """( sum_j M(|f_j|^A) )^{1/A} with the dyadic maximal operator.

    An empty sequence yields the zero function (the grid must then be
    supplied explicitly)."""
    if A <= 0:
        raise ParameterError(f"A must be positive, got {A}")
    if not fs:
        if spec is None:
            raise ParameterError("empty sequence: pass spec= for the zero field")
        return GridFunction.zeros(spec)
    spec = fs[0].spec
    acc = np.zeros(spec.shape, dtype=float)
    for f in fs:
        powered = GridFunction(spec, np.abs(f.data) ** A)
        acc += dyadic_maximal(powered).data.real
    return GridFunction(spec, acc ** (1.0 / A))


def level_indicator_field(c: CoeffField, j: int, s: float) -> GridFunction:
    """f_j = sum_{eps,k} 2^{j(s+n/2)} |a^eps_{j,k}| chi(2^j x - k)."""
    lvl = 2.0 ** (j * (s + c.spec.n / 2.0)) * _level_power_sum(c, j, 1.0)
    return GridFunction(c.spec, _upsample(lvl, c.spec.J))


def kernel_sum(c: CoeffField, j_prime: int, j: int, k: tuple[int, ...],
               gamma: float, s: float) -> float:
    """The discrete kernel sum pairing level j' mass against position k at
    level j, with decay exponent n + gamma in the normalized distance."""
    n = c.spec.n
    if j_prime not in c.levels:
        raise ParameterError(f"level {j_prime} not in field band")
    L = 1 << j_prime
    kp = np.stack(np.meshgrid(*([np.arange(L)] * n), indexing="ij"), axis=-1)
    if j >= j_prime:
        target = np.asarray(k, dtype=float) * 2.0 ** (j_prime - j)
        diff = min_image(kp - target, L)
    else:
        scaled = kp * 2.0 ** (j - j_prime)
        diff = min_image(scaled - np.asarray(k, dtype=float), 1 << j)
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    kern = (1.0 + dist) ** (-(n + gamma))
    total = 0.0
    for eps in detail_types(n):
        total += float(np.sum(np.abs(c.detail[(eps, j_prime)]) * kern))
    return 2.0 ** (j_prime * (s + n / 2.0)) * total


@dataclass
class KernelBoundReport:
    value: float
    maximal_min: float
    ratio: float
    guaranteed: bool


def kernel_bound_report(c: CoeffField, j_prime: int, j: int, k: tuple[int, ...],
                        gamma: float, s: float, A: float) -> KernelBoundReport:
    """Measured constant in the bound kernel_sum <= C M_A(f_{j'}) on Q_{j,k}
    (the extra 2^{n(j'-j)/A} factor applies when j < j')."""
    n = c.spec.n
    guaranteed = gamma > n / A + 1
    if not guaranteed:
        warnings.warn(
            f"gamma={gamma} <= n/A + 1 = {n / A + 1}: bound not guaranteed",
            UserWarning, stacklevel=2,
        )
    g_val = kernel_sum(c, j_prime, j, k, gamma, s)
    fj = level_indicator_field(c, j_prime, s)
    MA = vector_maximal([fj], A)
    cube = DyadicCube(j, tuple(k))
    box = MA.data[cube_sample_slices(c.spec, cube)]
    m_min = float(np.min(box.real))
    scale = 2.0 ** (n * (j_prime - j) / A) if j < j_prime else 1.0
    ratio = g_val / (scale * m_min) if m_min > 0 else (0.0 if g_val == 0 else np.inf)
    return KernelBoundReport(g_val, m_min, ratio, guaranteed)
