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

The oscillation norm takes one sample, a batch of samples on one grid, or
the samples of several grids (a J sweep).  A level-j0 cube's chart
coordinates u = (x - x_Q)/r on the 2^J grid are the dyadic rationals
(lo - k 2^{J-j0} + i) 2^{j0-J} - 1/2, exact in floating point, so they
depend only on J - j0 and the offset lo - k 2^{J-j0} and shape of the
(boundary-clipped) sample box: the interior cubes of a level share a chart,
the level-j0 charts of the 2^J grid are the level-(j0+1) charts of the
2^{J+1} grid, and no chart depends on the sample.  Within one call each
such geometry gets one weight, Gram matrix, condition number and lstsq,
with a right-hand side per (grid, sample, cube), in the order of its first
cube in (grid, level, position) order, so the first ill-conditioned cube
raises; all are solved before any cube is analyzed.

Every sup here and in `tent` runs over a finite table of candidates.
Where a sup has many rows, a ceiling per candidate prunes it (`_Pruner`)
in two exact passes per group of candidates: a sample of the oscillation
norm, or all of a tent part.  The pruner compares plain values (part I's
carry its t^m, as its ceilings do).  Pass 1 evaluates the group's
candidate of largest ceiling; its value is the group's limit L.  Pass 2
evaluates every other candidate whose ceiling is not below L.  A ceiling is
at least its candidate's value, so a skipped candidate lies below
L <= sup: it neither attains the sup nor ties with it, and the scan over the
evaluated candidates in table order with a strict >, which keeps the first
one attaining the max, gives the value and argmax of the complete table.
One rule covers the two edges.  A zero ceiling marks a candidate of value
exactly 0 (an all-zero residual, a pair admitting no level), which never
beats a sup that starts at 0, so it is never evaluated, and a group of zero
ceilings evaluates nothing.  Below 2^-800 a ceiling is not trusted: squares,
powers and products of numbers that small may have underflowed, which the
ceilings' relative slack (BOUND_SLACK = 1e-6, far above the rounding of
either side of a larger value) does not cover.  So at a limit at or below
2^-800 every candidate of nonzero ceiling is evaluated.  `table` evaluates
a group's remaining candidates on demand.

The oscillation norm bounds every (sample, cube) row.  Both bases are
orthonormal, so by Bessel the detail coefficients a of the residual
r = phi_Q (f - P_{Q,f}) satisfy sum |a|^2 <= cell sum |r|^2.  At a point
the TL integrand is the l^q norm of m = |E_n| x (detail levels) terms
2^{j(gamma1 + n/2)} |a_{j,k}|, and l^q <= max(1, m^{1/q - 1/2}) l^2 (Hoelder
for q < 2; l^q <= l^2 for q >= 2, q = inf included).  For p <= 2 the L^p
mean over the unit torus is at most the L^2 mean, and the L^2 norm of the
l^2 integrand is (sum_j 2^{2 j gamma1} sum_{eps,k} |a|^2)^{1/2}, since a
level-j cell has volume 2^{-nj}.  So a row's value is at most

    B = w_{j0} C (cell sum |r|^2)^{1/2},
    C = max_{j in band} 2^{j gamma1} max(1, m^{1/q - 1/2}),

with w_{j0} the Morrey weight of its level; its ceiling is B (1 +
BOUND_SLACK).  For p > 2 the L^p mean may exceed the L^2 mean, but the
integrand g is constant on the N = 2^{n j_max} cells of the finest detail
level, so ||g||_inf^2 <= N ||g||_2^2 (one cell's share of the L^2 mean) and
||g||_p <= ||g||_inf^{1 - 2/p} ||g||_2^{2/p} <= N^{1/2 - 1/p} ||g||_2.  So
C carries the factor 2^{n j_max max(0, 1/2 - 1/p)}, exactly 1 at p <= 2,
and every exponent has a finite ceiling.  The samples of every chart are
gathered once, in blocks of at most CHUNK_BYTES; each block gives the
right-hand sides of its rows and, once its geometry is solved, their
residuals and energies, with no transform.  An energy below 2^-800 may have
lost its squares to underflow: its ceiling is +inf unless the residual is
all zero, whose value is exactly 0.

The evaluator scatters the residuals of a sorted set of rows into stacks of
at most CHUNK_BYTES, which one batched wavelet analysis and one batched TL
norm consume.  Every per-cube sum still runs along one contiguous last
axis, each column of a multi-RHS lstsq has the bits of its own solve, and
the final root stays a scalar pow, so each value is bit for bit the one a
cube-by-cube, sample-by-sample evaluation gives, whichever rows share its
stack.  A report's `per_cube` is its sample's complete table.

Cube sups are exact over the finite dyadic family; when gamma2 = n/p and the
coarsest cube is the whole torus, the Morrey sup is attained there and the
evaluator returns bit-for-bit the plain Triebel-Lizorkin norm.

The TLM norm's sup has one row of at most J cube levels, so every cube
level is evaluated (`_morrey_cube_max` on the suffix aggregate of the levels
at or above it): on so few candidates a bound costs about as much as the
kernel calls it could save.  A field with one leading axis is a stack of
such rows, each cube level one kernel call for all of them; every step is
elementwise or a per-row sum, so each row's report has the bits of its own
field's, and a single field is the one-row stack.  Tent parts III/IV also
evaluate every cube level; parts I/II, with a row per time node, are pruned
with the Morrey bound of `tent`.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateRegimeWarning,
    GridMismatchError,
    MomentConditioningError,
    ParameterError,
)
from .grid import (
    DyadicCube,
    GridFunction,
    GridSpec,
    cube_sample_slices,
    flat_positions,
    min_image,
)
from .wavelet import CoeffField, chunk_rows, detail_types

CONDITION_LIMIT = 1e10
# relative room a cube's bound gets over its computed value, far above the
# rounding of either side
BOUND_SLACK = 1e-6
# below this residual energy the squares may have underflowed
_TRUSTED_ENERGY = 2.0 ** -800


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
        out = out.repeat(factor, axis=axis)
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
    return np.add.reduce(reshaped, axis=tuple(range(b + 1, b + 2 * n, 2)))


def _level_power_sum(c: CoeffField, j: int, q: float, rows=Ellipsis) -> np.ndarray:
    """sum_eps |a^eps_{j,k}|^q at level resolution, added in order (sum()'s
    leading 0 adds nothing), or the pointwise sup over eps of |a| when
    q = inf, for the rows `rows` of c's leading axes."""
    stack = [np.abs(c.detail[(eps, j)][rows]) for eps in detail_types(c.spec.n)]
    return np.maximum.reduce(stack) if q == np.inf else reduce(np.add, [a ** q for a in stack])


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


class _Pruner:
    """The two exact passes of a pruned sup (module docstring) over a flat
    table of candidates: their `ceilings`, a group id per candidate
    (`groups`, an int array) and `evaluate(sorted indices) -> values`.
    `values` and `done` hold what has been evaluated."""

    def __init__(self, ceilings, groups, evaluate):
        self.groups, self.evaluate = groups, evaluate
        self.values = np.zeros(len(ceilings))
        self.done = np.zeros(len(ceilings), dtype=bool)
        if not len(ceilings):
            return
        # pass 1: each group's candidate of largest ceiling (a NaN first);
        # not np.unique, whose 1-d form imports numpy.ma
        count, firsts = groups.max() + 1, []
        for m in map(self.members, range(count)):
            if len(m):
                first = m[np.argmax(ceilings[m])]
                if ceilings[first] != 0:
                    firsts.append(first)
        firsts = np.sort(np.array(firsts, dtype=int))
        self.run(firsts)
        limit = np.zeros(count)
        limit[groups[firsts]] = self.values[firsts]
        limit = limit[groups]
        self.run(np.flatnonzero(~self.done & (ceilings != 0) & (
            (limit <= _TRUSTED_ENERGY) | ~(ceilings < limit))))

    def members(self, g: int) -> np.ndarray:
        """The candidates of group g, in table order."""
        return np.flatnonzero(self.groups == g)

    def run(self, idx: np.ndarray) -> None:
        if len(idx):
            self.values[idx] = self.evaluate(idx)
            self.done[idx] = True

    def best(self, g: int) -> tuple[float, int | None]:
        """Group g's largest value among the evaluated candidates and the
        first candidate attaining it; (0.0, None) when none is positive."""
        m = self.members(g)
        m = m[self.done[m]]
        values = self.values[m]
        positive = np.flatnonzero(values > 0)
        if not len(positive):
            return 0.0, None
        i = positive[np.argmax(values[positive])]
        return float(values[i]), int(m[i])

    def table(self, g: int) -> np.ndarray:
        """Every value of group g in table order, the candidates not yet
        evaluated evaluated now."""
        m = self.members(g)
        self.run(m[~self.done[m]])
        return self.values[m]


def _first_cube(j0s, results, n: int, row: int = 0) -> tuple[float, DyadicCube | None]:
    """The largest of row `row` of the `_morrey_cube_max` results, one
    (values, flat positions) per cube level of j0s, and the first cube
    attaining it in cube-level order; (0.0, None) when none is positive."""
    best, cube = 0.0, None
    for j0, (vals, flat) in zip(j0s, results):
        if vals[row] > best:
            best, cube = float(vals[row]), _cube_at(j0, flat[row], n)
    return best, cube


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
    """`value` is the Morrey sup, `argmax_cube` the first cube, in level and
    position order, attaining it, and `per_level` every cube level's sup."""

    value: float
    argmax_cube: DyadicCube | None
    per_level: dict[int, float] = field(default_factory=dict)


def _all_finite(blocks) -> bool:
    """Whether every entry of every array is finite; a contiguous complex
    array is read as its real and imaginary parts, which is faster."""
    return all(np.isfinite(a.view(np.float64) if a.dtype == complex
                           and a.flags.c_contiguous else a).all() for a in blocks)


def _check_finite(blocks) -> None:
    if not _all_finite(blocks):
        raise ParameterError("coefficient field has non-finite detail coefficients")


def tl_norm(c: CoeffField, gamma1: float, p: float, q: float):
    """Plain Triebel-Lizorkin norm of a coefficient field (no cube sup): a
    float, or for a stacked field an array with one norm per batch index.
    ParameterError for a non-finite detail coefficient."""
    SpaceParams(gamma1, c.spec.n / p, p, q)          # parameter checks only
    _check_finite(c.detail.values())
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


def tlm_wavelet_norm(c: CoeffField, sp: SpaceParams):
    """The TLM norm of c: a float, or for a field with one leading axis an
    array with one norm per row (`tlm_wavelet_norm_report`)."""
    reps = _tlm_reports(c, sp)
    return np.array([rep.value for rep in reps]) if c.batch_shape else reps.value


def tlm_wavelet_norm_report(c: CoeffField, sp: SpaceParams):
    """The Morrey sup over every cube level j0 of the grid of the suffix
    aggregate V[j0] of the levels j >= j0, each cube level evaluated (module
    docstring): a `TlmReport`, or for a field with one leading axis a list
    with one report per row, each bit for bit the row's own.  A single
    field is the one-row stack.  ParameterError for more than one leading
    axis or a non-finite detail coefficient (in any row)."""
    return _tlm_reports(c, sp)


def _tlm_reports(c: CoeffField, sp: SpaceParams):
    """Both TLM entries' body: a degenerate regime warns at their caller."""
    batch = c.batch_shape
    if len(batch) > 1:
        raise ParameterError(f"the TLM norm takes one leading axis, not a {batch} stack")
    _check_finite(c.detail.values())
    if sp.degenerate(c.spec.n):
        warnings.warn(f"gamma2={sp.gamma2} > n/p={c.spec.n / sp.p}: degenerate "
                      "regime (continuum space contains only polynomials)",
                      DegenerateRegimeWarning, stacklevel=3)
    n, rows = c.spec.n, batch[0] if batch else 1
    q, j0s = sp.q, range(c.spec.j_min, c.spec.J)
    V = dict(_suffix_combine(_level_aggregates(c, sp.gamma1, q), q))
    # the cube levels above the finest detail level have nothing left: 0.0
    live = [j0 for j0 in j0s if j0 <= c.j_max] if c.levels else []
    found = []
    for j0 in live:
        Vj = V[max(j0, c.j_min)].reshape((rows,) + (1 << c.j_max,) * n)
        found += _morrey_cube_max(Vj if q == np.inf else Vj ** (1.0 / q),
                                  [j0], sp, c.spec)
    reports = []
    for row in range(rows):
        value, cube = _first_cube(live, found, n, row)
        per_level = dict.fromkeys(j0s, 0.0) if c.levels else {}
        per_level.update((j0, float(vals[row])) for j0, (vals, _) in zip(live, found))
        reports.append(TlmReport(value, cube, per_level))
    return reports if batch else reports[0]


def _cube_at(j0: int, flat: int, n: int) -> DyadicCube | None:
    """The level-j0 cube at flat position `flat`; None for j0 < 0."""
    if j0 < 0:
        return None
    j0, flat = int(j0), int(flat)
    # C order over (2^j0,)^n: each axis holds j0 bits of the flat position
    return DyadicCube(j0, tuple((flat >> (j0 * axis)) & ((1 << j0) - 1)
                                for axis in reversed(range(n))))


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
    (sample, cube) pairs of one chart: coefficients (B, d) over the chart's
    monomials u^a (each (W,)), and the condition number of the Gram matrix
    they share."""

    monos: list
    coefficients: np.ndarray
    condition: float

    def evaluate(self, rows=slice(None)) -> np.ndarray:
        """P_{Q,f} on the chart, one row (W,) per cube of `rows`."""
        coeffs = self.coefficients[rows]
        out = np.zeros((len(coeffs), len(self.monos[0])), dtype=complex)
        for coeff, mono in zip(coeffs.T, self.monos):
            out += coeff[:, None] * mono
        return out


def _monomials(grids, m0: int) -> list:
    """u^a on one chart (W,), for each exponent of total degree <= m0."""
    return [np.prod([g**d for g, d in zip(grids, expo)], axis=0)
            for expo in _monomial_exponents(len(grids), m0)]


def _moment_rhs(weight: np.ndarray, monos: list, fvals: np.ndarray) -> np.ndarray:
    """<u^a, phi f> on one chart for each row of fvals (B, W): (d, B)."""
    return np.stack([np.sum(weight * ma * fvals, axis=-1) for ma in monos])


def solve_moment_system(weight: np.ndarray, monos: list, rhs: np.ndarray,
                        cubes: Sequence[DyadicCube]) -> MomentSystem:
    """Least squares on the Gram system <u^a, phi u^b> c = <u^a, phi f> of
    one chart geometry, shared by the cubes `cubes` of every sample and
    grid: weight and the monomials are (W,) on the chart, rhs (d, B) is
    `_moment_rhs` of each (sample, cube) pair.  One Gram matrix, one
    condition number and one lstsq with a right-hand side per pair; raises
    for the first cube if the system is ill-conditioned."""
    G = np.array([[np.sum(weight * ma * mb) for mb in monos] for ma in monos])
    cond = float(np.linalg.cond(G))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise MomentConditioningError(cubes[0], cond)
    # lstsq, not np.linalg.solve: solve is another algorithm.  Each column
    # of a multi-RHS lstsq has the bits of its own single solve.
    coeffs = np.linalg.lstsq(G, rhs, rcond=None)[0].T
    return MomentSystem(monos, coeffs, cond)


@dataclass
class OscillationReport:
    """`value` is the sup over cubes and `argmax_cube` the first cube, in
    level and position order, that attains it (None when no cube is
    positive).  `per_cube` lists every cube with its value, level by
    level; the cubes the ceilings ruled out are evaluated on first access."""

    value: float
    argmax_cube: DyadicCube | None
    refined_value: float | None = None
    _rows: _CubeRows | None = field(default=None, repr=False, compare=False)
    _sup: _Pruner | None = field(default=None, repr=False, compare=False)
    _sample: int = field(default=0, repr=False, compare=False)

    @cached_property
    def per_cube(self) -> list[tuple[DyadicCube, float]]:
        return list(zip(self._rows.cubes(), self._sup.table(self._sample).tolist()))


def oscillation_norm(f: GridFunction, sp: SpaceParams, cutoff: CutoffFamily,
                     m0: int, basis, cube_levels: Sequence[int] | None = None,
                     refine: bool = False) -> float:
    return oscillation_norm_report(f, sp, cutoff, m0, basis,
                                   cube_levels=cube_levels, refine=refine).value


def oscillation_norm_report(f, sp: SpaceParams, cutoff: CutoffFamily, m0: int,
                            basis, cube_levels: Sequence[int] | None = None,
                            refine: bool = False):
    """Definition-side norm: sup over cubes of the weighted TL norm of
    phi_Q (f - P_{Q,f}).  Every cube gets a Bessel bound; only the cubes
    whose bound reaches the sup are analyzed (see the module docstring).

    f is one grid function (the result is one report) or a sequence of
    them on one grid (a list of reports, in order); with `basis` a sequence
    of bases, f holds one such sequence per basis and the result is one
    list per basis.  The samples of a call share every chart geometry and
    moment system and, on one grid, the analysis stacks; each report is bit
    for bit the one a call with its sample alone gives.  `cube_levels` and
    `refine` apply to every grid and sample."""
    if m0 < 0:
        raise ParameterError(f"moment order m0 must be at least 0, got {m0}")
    sweep = isinstance(basis, (list, tuple))
    single = not sweep and isinstance(f, GridFunction)
    groups = [list(fs) for fs in f] if sweep else [[f] if single else list(f)]
    bases = list(basis) if sweep else [basis]
    if len(groups) != len(bases):
        raise ParameterError(f"{len(groups)} sample sequences for {len(bases)} bases")
    tables = [_CubeRows(fs, sp, b, cube_levels) if fs else None
              for fs, b in zip(groups, bases)]
    _build_charts([t for t in tables if t is not None], cutoff, m0)
    out = []
    for fs, rows in zip(groups, tables):
        reports = []
        # the reports hold the pruner, which holds the rows: no cycle keeps
        # the rows alive past the reports
        sup = None if rows is None else _Pruner(rows.ceiling, rows.sample_of,
                                                 rows.evaluate)
        for s, g in enumerate(fs):
            best, row = sup.best(s)
            best_cube = None if row is None else rows.cube(row)
            refined = None
            if refine and best_cube is not None:
                refined = _refine_cube(g, sp, cutoff, m0, rows.basis, best_cube,
                                       best)
            reports.append(OscillationReport(best, best_cube, refined, rows, sup, s))
        out.append(reports)
    return out if sweep else out[0][0] if single else out[0]


@dataclass
class _ChartSystem:
    """The (sample, cube) rows s * count + i of the member cubes i of one
    level of one grid that share a chart, sample-major; a row's samples sit
    at the box offsets `flat` (W,) from the flat index `origins[i]` of its
    cube's box origin.  The bump weight (W,) and the moment system are
    those of the chart's geometry, set when it is solved."""

    rows: np.ndarray
    count: int
    flat: np.ndarray
    origins: np.ndarray
    weight: np.ndarray | None = None
    system: MomentSystem | None = None

    def samples(self, data: np.ndarray, rows):
        """Flat sample indices and samples of the rows `rows` (a slice or an
        index array) of this chart, each (len(rows), W); data holds one
        flat sample per row."""
        sample, cube = np.divmod(self.rows[rows], self.count)
        idx = self.flat + self.origins[cube, None]
        return idx, data[sample[:, None], idx]

    def residuals(self, vals: np.ndarray, rows) -> np.ndarray:
        """phi_Q (f - P_{Q,f}) of the rows `rows`, from their samples vals."""
        return self.weight * (vals - self.system.evaluate(rows))


def _build_charts(tables: list[_CubeRows], cutoff: CutoffFamily, m0: int) -> None:
    """The charts of every level of every table (grid), keyed by the offset
    lo - k 2^{J-j0} and the shape of their sample box, and one solve per
    distinct geometry (J - j0, key), in the order of its first cube (module
    docstring)."""
    geometries: dict[tuple, tuple] = {}     # key -> (spec, first cube, members)
    for t in tables:
        spec, S = t.spec, len(t.data)
        for start, j0, ks in t.levels:
            count = len(ks)
            lo, hi = _chart_bounds(spec, j0, ks, cutoff)
            keys = np.concatenate([lo - ks * (1 << (spec.J - j0)), hi - lo], axis=1)
            origins = np.ravel_multi_index(tuple(lo.T), spec.shape)
            _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                          return_inverse=True)
            for c in np.argsort(first):
                members = np.flatnonzero(inverse.reshape(-1) == c)
                m = members[0]
                rows = (np.arange(S)[:, None] * count + members).reshape(-1)
                flat = np.ravel_multi_index(np.indices(hi[m] - lo[m]), spec.shape)
                chart = _ChartSystem(rows, count, flat.reshape(-1), origins)
                t.chart_of[start + rows] = len(t.charts)
                t.chart_row[start + rows] = np.arange(len(rows))
                t.charts.append(chart)
                geometries.setdefault(
                    (spec.J - j0, *keys[m].tolist()),
                    (spec, DyadicCube(j0, tuple(ks[m].tolist())), []),
                )[2].append((t, start, chart))
    for spec, cube, members in geometries.values():
        _solve_geometry(spec, cube, members, cutoff, m0)


def _solve_geometry(spec: GridSpec, cube: DyadicCube, members: list,
                    cutoff: CutoffFamily, m0: int) -> None:
    """Solve one chart geometry, first met at `cube` of grid `spec`, for
    its member charts, (table, level start, chart) triples: one chart,
    weight and set of monomials, one gather of every member's samples in
    blocks of at most CHUNK_BYTES, and from each block the right-hand
    sides of one lstsq and, after it, its rows' ceilings."""
    _, grids, radius = _cube_chart(spec, cube.j, cube.k, cutoff)
    weight = cutoff.evaluate(radius)
    monos = _monomials(grids, m0)
    size = chunk_rows(len(weight))
    blocks = [(t, start, c, slice(a, a + size)) for t, start, c in members
              for a in range(0, len(c.rows), size)]
    vals = [c.samples(t.data, rows)[1] for t, _, c, rows in blocks]
    rhs = np.concatenate([_moment_rhs(weight, monos, v) for v in vals], axis=1)
    system = solve_moment_system(weight, monos, rhs, [cube])
    at = 0
    for _, _, c in members:
        c.weight = weight
        c.system = replace(system,
                           coefficients=system.coefficients[at:at + len(c.rows)])
        at += len(c.rows)
    for (t, start, c, rows), v in zip(blocks, vals):
        r, idx = c.residuals(v, rows), start + c.rows[rows]
        energy = np.sum(r.real ** 2 + r.imag ** 2, axis=-1)
        low = energy < _TRUSTED_ENERGY         # the squares may have underflowed
        energy[low] = np.where(np.any(r[low] != 0, axis=-1), np.inf, 0.0)
        t.ceiling[idx] = (t.weight[idx] * t.factor
                          * np.sqrt(t.spec.cell_volume * energy) * (1.0 + BOUND_SLACK))


def _bound_factor(sp: SpaceParams, levels: range, n: int) -> float:
    """C with weighted TL norm <= C (cell sum |r|^2)^{1/2} for every residual
    r (module docstring): max over the detail levels of 2^{j gamma1}, times
    max(1, m^{1/q - 1/2}) for the m = |E_n| (levels) terms at a point, times
    N^{max(0, 1/2 - 1/p)} for the N = 2^{n j_max} finest-level cells."""
    m = len(detail_types(n)) * len(levels)
    return max(2.0 ** (j * sp.gamma1) for j in levels) \
        * max(1.0, m ** (1.0 / sp.q - 0.5)) \
        * 2.0 ** (n * max(levels) * max(0.0, 0.5 - 1.0 / sp.p))


class _CubeRows:
    """The (sample, cube) rows of the samples of one grid in an oscillation
    call, level-major, then sample-major, then in cube order.  Per row: its
    sample (`sample_of`), its chart (`chart_of`), its row in that chart
    (`chart_row`), its Morrey weight, its ceiling (the bound times
    1 + BOUND_SLACK, which its computed value never exceeds).
    `_build_charts` fills in the charts and the ceilings; a `_Pruner` over
    the rows, grouped by sample, evaluates them."""

    def __init__(self, fs, sp, basis, cube_levels):
        spec = fs[0].spec
        if any(g.spec != spec for g in fs):
            raise GridMismatchError("the samples of one sequence must share a grid")
        self.data = np.stack([g.data.reshape(-1) for g in fs])
        if not np.all(np.isfinite(self.data)):
            raise ParameterError("f has non-finite samples")
        self.spec, self.sp, self.basis = spec, sp, basis
        n, S = spec.n, len(fs)
        self.factor = _bound_factor(sp, basis.detail_levels, n)
        if cube_levels is None:
            cube_levels = range(spec.j_min, spec.J)
        self.levels: list[tuple[int, int, np.ndarray]] = []   # (start, j0, ks)
        self.charts: list[_ChartSystem] = []
        # one array per level, after an empty one for an empty level list
        sample_of, weight = [np.empty(0, int)], [np.empty(0)]
        start = 0
        for j0 in cube_levels:
            ks = flat_positions(j0, n)
            sample_of.append(np.repeat(np.arange(S), len(ks)))
            weight.append(np.full(S * len(ks), 2.0 ** (-j0 * (sp.gamma2 - n / sp.p))))
            self.levels.append((start, j0, ks))
            start += S * len(ks)
        self.sample_of = np.concatenate(sample_of)
        self.weight = np.concatenate(weight)
        self.chart_of = np.empty(start, int)
        self.chart_row = np.empty(start, int)
        self.ceiling = np.full(start, np.inf)

    def cube(self, row: int) -> DyadicCube:
        start, j0, ks = self.levels[bisect_right(self.levels, row,
                                                 key=lambda lv: lv[0]) - 1]
        return DyadicCube(j0, tuple(ks[(row - start) % len(ks)].tolist()))

    def cubes(self) -> list[DyadicCube]:
        """The cubes of one sample's rows, in table order."""
        return [DyadicCube(j0, tuple(k)) for _, j0, ks in self.levels
                for k in ks.tolist()]

    def evaluate(self, rows: np.ndarray) -> np.ndarray:
        """The values of the sorted rows `rows`: their residuals are
        scattered into (chunk,) + grid stacks of at most CHUNK_BYTES,
        analyzed together and normed together.  A row's bits do not depend
        on the rows that share its stack."""
        spec, sp = self.spec, self.sp
        size = chunk_rows(spec.size)
        out = np.empty(len(rows))
        for start in range(0, len(rows), size):
            chunk = rows[start:start + size]
            stack = np.zeros((len(chunk), spec.size), dtype=complex)
            ids = self.chart_of[chunk]
            for c in dict.fromkeys(ids.tolist()):
                at = np.flatnonzero(ids == c)
                chart, rows_c = self.charts[c], self.chart_row[chunk[at]]
                idx, vals = chart.samples(self.data, rows_c)
                stack[at[:, None], idx] = chart.residuals(vals, rows_c)
            coeffs = self.basis.analyze_stack(
                stack.reshape((len(chunk),) + spec.shape))
            out[start:start + size] = self.weight[chunk] * tl_norm(
                coeffs, sp.gamma1, sp.p, sp.q)
        return out


def _refine_cube(f, sp, cutoff, m0, basis, cube, moment_value) -> float:
    """Direct minimization over the polynomial, recorded when it undercuts
    the moment-matched solution by a noticeable margin."""
    from scipy.optimize import minimize

    spec = f.spec
    idx, grids, radius = _cube_chart(spec, cube.j, cube.k, cutoff)
    weight = cutoff.evaluate(radius)
    fvals = f.data.reshape(-1)[idx]
    monos = _monomials(grids, m0)
    rhs = _moment_rhs(weight, monos, fvals[None])
    start = solve_moment_system(weight, monos, rhs, [cube]).coefficients[0].real

    def objective(coeffs):
        poly = np.zeros_like(grids[0])
        for coeff, mono in zip(coeffs, monos):
            poly += coeff * mono
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
    level j, with decay exponent n + gamma in the normalized distance.
    ParameterError unless Q_{j,k} is a cube of the n-torus."""
    n = c.spec.n
    if j_prime not in c.levels:
        raise ParameterError(f"level {j_prime} not in field band")
    if len(k) != n:
        raise ParameterError(f"cube position {k} has {len(k)} entries, not n={n}")
    DyadicCube(j, tuple(k))         # ParameterError off the torus
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
