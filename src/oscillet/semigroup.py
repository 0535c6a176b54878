"""Fractional heat propagator, calibrated reconstruction family, and the
time-dependent coefficient fields they produce.

The propagator is the spectral multiplier exp(-t (2 pi |m|)^{2 beta}) on the
integer frequency lattice.  The calibrated family is built radially from the
detail window of the Meyer pair: w(r) = omega(r) / sqrt(2 beta ln 2), which
makes the squared Calderon integral int_0^inf w(t^{1/(2 beta)} |xi|)^2 dt/t
equal to one for every nonzero lattice frequency (the dyadic shells of the
window tile the ray exactly), while the companion constant of the damped
integral is computed by quadrature and recorded.  The quadrature is
`_quadpack.quad`, a pure-Python port of QUADPACK's `dqagse` with the bits
of `scipy.integrate.quad`, so calibrating loads no scipy.

Time grids (`grid.TimeGrid`, re-exported here) are logarithmic midpoint
rules for the measure dt/t.  A heat lift is a `CoeffField` on a time grid,
tagged with the beta of its semigroup.

The heat lift is evaluated on chunks of time nodes at band resolution:
`evolve_coefficients` builds the propagated spectra of a chunk only at the
basis's band support (the union of the window supports, 1,849 of 4,096
frequencies at 2-d J=6) as one (chunk, band) stack, and every level block
of the chunk reads its support from it and transforms at once.  A chunk
holds at most CHUNK_BYTES of that stack, the bound shared with the
oscillation norm and the tent parts.

The reconstruction `pi_phi_report(family, basis, tcf)` runs on a heat lift.
It reads the calibrated multiplier from one table per time grid and grid,
kept on the family (the last one only), and skips the nodes whose
multiplier is zero at every lattice radius: they add nothing.  The other
nodes are synthesized a chunk of at most CHUNK_BYTES of grid rows at a
time, transformed, and added in node order, bit for bit a node-by-node
sum.  It keeps that spatial round trip, since accumulating the synthesis
spectra in Fourier space would change the bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GridMismatchError, ParameterError, QuadratureWarning
from .grid import GridFunction, GridSpec, TimeGrid, flat_positions, min_image
from .norms import _level_power_sum
from .wavelet import CoeffField, MeyerWindow, TWO_PI, _fft_last, chunk_rows


@dataclass(frozen=True)
class SemigroupSpec:
    """e^{-t(-Delta)^beta} on the grid's frequency lattice."""

    beta: float
    spec: GridSpec

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ParameterError(f"beta must be finite and positive, got {self.beta}")

    def symbol(self) -> np.ndarray:
        """|2 pi m|^{2 beta} in FFT order."""
        return (TWO_PI**2 * self.spec.lattice_norm2()) ** self.beta

    def multiplier(self, t: float) -> np.ndarray:
        if t < 0:
            raise ParameterError(f"time must be nonnegative, got {t}")
        return np.exp(-t * self.symbol())


def heat_apply(sg: SemigroupSpec, f: GridFunction, t: float) -> GridFunction:
    """Propagate one snapshot; exact for every lattice mode."""
    if f.spec != sg.spec:
        raise GridMismatchError("grid function does not match semigroup grid")
    F = np.fft.fftn(f.data)
    return GridFunction(sg.spec, np.fft.ifftn(F * sg.multiplier(t)))


def default_time_grid(spec: GridSpec, beta: float, L: int = 256,
                      t_max: float = 4.0) -> TimeGrid:
    """Covers every level's transition scale t ~ 2^{-2 j beta} within band."""
    return TimeGrid(2.0 ** (-2 * beta * (spec.J + 1)), t_max, L)


def evolve_coefficients(sg: SemigroupSpec, basis, f: GridFunction,
                        tg: TimeGrid) -> CoeffField:
    """The field on the time grid tg (tagged with sg.beta) whose row ell
    equals analyze(heat_apply(f, t_ell)); computed in frequency space on
    the basis's band support only, one chunk of nodes at a time: a
    (chunk, band) stack of the propagated spectra, then one masked
    multiply, fold and small transform per level block for the whole
    chunk."""
    if basis.spec != sg.spec:
        raise GridMismatchError("basis and semigroup grids differ")
    if not np.all(np.isfinite(f.data)):
        raise ParameterError("f has non-finite samples")
    band = basis.band_support()
    F = basis.fourier(f).reshape(-1)[band]
    symbol = sg.symbol().reshape(-1)[band]
    out = CoeffField(sg.spec, basis.family, basis.j_min, basis.j_max, tg=tg,
                     beta=sg.beta)
    eps0 = (0,) * sg.spec.n
    nodes = tg.nodes()
    rows = chunk_rows(band.size)
    for start in range(0, tg.L, rows):
        chunk = slice(start, start + rows)
        Ft = F * np.exp(-nodes[chunk, None] * symbol)
        for (eps, j), coeffs in basis._coeffs_from_band(Ft):
            block = out.scaling if eps == eps0 else out.detail[(eps, j)]
            block[chunk] = coeffs
    return out


# -- calibrated family and reconstruction ---------------------------------------

@dataclass
class CalibratedFamily:
    beta: float
    window: MeyerWindow
    scale: float                 # w(r) = scale * omega(r)
    C_beta: float
    admissibility: dict = field(default_factory=dict)
    # the last multiplier table built, under the key it was built for; a
    # copy made with dataclasses.replace shares it, and the key holds every
    # input of the table (C_beta is not one)
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def radial(self, r: np.ndarray) -> np.ndarray:
        return self.scale * self.window.omega(np.asarray(r, dtype=float))

    def multiplier_table(self, tg: TimeGrid,
                         spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        """phi-hat(t^{1/(2 beta)} |xi|) at the lattice radii |xi| = 2 pi |m|:
        a table over the nodes x the distinct radii, and the index of each
        grid point's radius (spec.shape), both read-only.  Built once per
        time grid and grid; only the last one is kept."""
        key = (self.beta, self.scale, self.window, tg, spec)
        if key not in self._tables:
            self._tables.clear()
            radii, where = np.unique(TWO_PI * np.sqrt(spec.lattice_norm2()),
                                     return_inverse=True)
            scales = np.array([t ** (1.0 / (2.0 * self.beta)) for t in tg.nodes()])
            table = (self.radial(scales[:, None] * radii),
                     where.reshape(spec.shape))
            for arr in table:
                arr.setflags(write=False)
            self._tables[key] = table
        return self._tables[key]


def calibrate_family(beta: float, profile: str = "polynomial",
                     n_check: int = 5) -> CalibratedFamily:
    """The calibrated family of `beta` on the Meyer window `profile`: C_beta
    from the damped integral (iii), and the residuals of the Calderon
    identity (ii) at `n_check` radii and of the vanishing moments (i).

    The integrals run through `_quadpack.quad`, a port of QUADPACK's
    `dqagse` that returns the bits of `scipy.integrate.quad` at limit 200,
    so calibrating imports no scipy.  A quadrature that stops short of its
    tolerance warns with QuadratureWarning and names QUADPACK's ier."""
    from . import _quadpack

    if not (np.isfinite(beta) and beta > 0):
        raise ParameterError(f"beta must be finite and positive, got {beta}")
    window = MeyerWindow(profile)
    scale = 1.0 / np.sqrt(2.0 * beta * np.log(2.0))

    class Integrand:
        """t -> g(t, w(r(t))) with w(r) = scale omega(r); `many` evaluates
        omega once for a whole rule, every other operation per point as in
        the one-point call."""

        def __init__(self, r, g):
            self.r, self.g = r, g

        def __call__(self, t):
            return self.g(t, scale * window.omega(np.asarray([self.r(t)], dtype=float))[0])

        def many(self, ts):
            om = window.omega(np.asarray([self.r(t) for t in ts], dtype=float))
            return [self.g(t, scale * o) for t, o in zip(ts, om)]

    def quad(f, a, b):
        val, err, _, ier, _ = _quadpack.quad(f, a, b, limit=200)
        if ier > 0:
            warnings.warn(f"calibration quadrature at beta={beta} stopped "
                          f"short of its tolerance (QUADPACK ier={ier})",
                          QuadratureWarning, stacklevel=3)
        return val, err

    # (iii): damped scalar integral over the support of r = t^{1/(2 beta)}
    lo, hi = (TWO_PI / 3.0) ** (2 * beta), (8.0 * np.pi / 3.0) ** (2 * beta)
    val, err = quad(Integrand(lambda t: t ** (1.0 / (2 * beta)),
                              lambda t, w: w * np.exp(-t) / t), lo, hi)
    if val <= 0:
        raise ParameterError("calibration integral vanished; bad window")
    C_beta = 1.0 / val

    # (ii): squared Calderon integral per sample radius (should be 1)
    radii = np.exp(np.linspace(np.log(0.3), np.log(200.0), n_check))
    resid_ii = 0.0
    for r0 in radii:
        tlo = (TWO_PI / (3.0 * r0)) ** (2 * beta)
        thi = (8.0 * np.pi / (3.0 * r0)) ** (2 * beta)
        v, _ = quad(Integrand(lambda t: t ** (1.0 / (2 * beta)) * r0,
                              lambda t, w: w ** 2 / t), tlo, thi)
        resid_ii = max(resid_ii, abs(v - 1.0))

    # (i): all spatial moments vanish because phi-hat is 0 near the origin
    rr = np.linspace(0, TWO_PI / 3.0 * 0.999, 64)
    resid_i = float(np.max(np.abs(window.omega(rr))))

    fam = CalibratedFamily(beta, window, scale, C_beta)
    fam.admissibility = {
        "moment_residual": resid_i,
        "calderon_residual": resid_ii,
        "damped_integral": val,
        "damped_integral_quad_error": err,
    }
    return fam


@dataclass
class ReconstructionReport:
    coverage_low: float    # worst missing lower-tail mass fraction estimate
    coverage_high: float
    step: float
    warning: str | None = None


def pi_phi_report(family: CalibratedFamily, basis, tcf: CoeffField):
    """C_beta int (F(t, .) * phi^beta_t)(x) dt/t of the heat lift tcf on its
    time grid, F(t, .) the synthesis of its row at t by the Meyer basis
    `basis`; ParameterError if tcf has no time grid.

    The nodes whose multiplier is not zero at some lattice radius are
    synthesized and transformed a chunk at a time (at most CHUNK_BYTES of
    grid rows) and added in node order, bit for bit a node-by-node sum."""
    tg, spec = tcf.tg, tcf.spec
    if tg is None:
        raise ParameterError("need a coefficient field with a time grid")
    acc = np.zeros(spec.shape, dtype=complex)
    weights = tg.weights()
    table, where = family.multiplier_table(tg, spec)
    live = np.flatnonzero(np.any(table, axis=1))
    rows = chunk_rows(spec.size)
    for start in range(0, live.size, rows):
        ells = live[start:start + rows]
        stack = basis.synthesize_stack(tcf[ells])
        for ell, F in zip(ells, _fft_last(stack, spec.n)):
            acc += weights[ell] * table[ell][where] * F
    out = GridFunction(spec, np.fft.ifftn(family.C_beta * acc))

    # coverage of the annulus tau = t |xi|^{2 beta} in [(2pi/3)^{2b}, (8pi/3)^{2b}]
    beta = family.beta
    tau_lo, tau_hi = (TWO_PI / 3.0) ** (2 * beta), (8 * np.pi / 3.0) ** (2 * beta)
    r_max = TWO_PI * (spec.samples_per_axis / 2.0) * np.sqrt(spec.n)
    r_min = TWO_PI
    cov_low = tau_lo / (tg.t_min * r_max ** (2 * beta))   # want >= 1
    cov_high = (tg.t_max * r_min ** (2 * beta)) / tau_hi  # want >= 1
    warning = None
    if cov_low < 1.0 or cov_high < 1.0:
        warning = (
            f"time grid does not cover the calibration annulus for all lattice "
            f"modes (low={cov_low:.3g}, high={cov_high:.3g})"
        )
        warnings.warn(warning, UserWarning, stacklevel=2)
    report = ReconstructionReport(cov_low, cov_high, tg.step, warning)
    return out, report


# -- decay-bound reports ---------------------------------------------------------

def _heat_beta(tcf: CoeffField) -> float:
    """The beta of a field on a time grid; ParameterError if either is
    missing."""
    if tcf.tg is None or tcf.beta is None:
        raise ParameterError("need a coefficient field with a time grid and beta")
    return tcf.beta


def cross_level_kernel_matrix(spec: GridSpec, j: int, j_prime: int,
                              N: float) -> np.ndarray:
    """(1 + |2^{j-j'} k' - k|)^{-N} for k at level j (rows), k' at level j'
    (cols), with periodic minimal-image distance at the level-j chart."""
    kj = flat_positions(j, spec.n).astype(float)
    kp = flat_positions(j_prime, spec.n).astype(float)
    diff = 2.0 ** (j - j_prime) * kp[None, :, :] - kj[:, None, :]
    diff = min_image(diff, float(1 << j))
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    return (1.0 + dist) ** (-N)


def _banded_kernel_sums(spec: GridSpec, levels, v: dict[int, np.ndarray],
                        N: float, band: int, kernels: dict) -> dict[int, np.ndarray]:
    """Per level j of `levels`: the sum over the levels j' of v within
    `band` of j, added in j' order, of cross_level_kernel_matrix(spec, j,
    j', N) @ v[j'].  `kernels` keeps each matrix under (n, j, j', N), the
    only arguments it depends on."""
    out = {}
    for j in levels:
        acc = np.zeros((1 << j) ** spec.n)
        for jp, vec in v.items():
            if abs(j - jp) <= band:
                key = (spec.n, j, jp, N)
                if key not in kernels:
                    kernels[key] = cross_level_kernel_matrix(spec, j, jp, N)
                acc += kernels[key] @ vec
        out[j] = acc
    return out


def coupling_denominators(c0: CoeffField, N: float, band: int = 3,
                          kernels: dict | None = None) -> dict[int, np.ndarray]:
    """D[j][k] = sum_{|j-j'|<=band} sum_{eps',k'} |a0| (1+|2^{j-j'}k'-k|)^{-N}.
    A caller hands one `kernels` dict to every call to build each kernel
    matrix once (`_banded_kernel_sums`)."""
    # per level, the sum over detail types of |a| as a flat position vector
    sums = {j: _level_power_sum(c0, j, 1.0).reshape(-1) for j in c0.levels}
    return _banded_kernel_sums(c0.spec, c0.levels, sums, N, band,
                               {} if kernels is None else kernels)


@dataclass
class DecayReport:
    ctilde_grid: np.ndarray
    max_r1: np.ndarray            # per ctilde, regime tau >= 1
    max_r2: float                 # regime tau <= 1
    seam_residual: float          # both-branch mismatch at the node nearest tau=1
    seam_gap: float               # worst |log tau| of that node
    violations: int
    n_pairs: int


def check_decay_bounds(tcf: CoeffField, c0: CoeffField, N: float,
                       ctilde_grid: Sequence[float] | None = None,
                       band: int = 3,
                       denominators: dict[int, np.ndarray] | None = None
                       ) -> DecayReport:
    """Measured constants in the two-regime coefficient decay bound for
    heat-evolved data against the initial coefficients.  `denominators`
    holds coupling_denominators(c0, N, band), built here when None; a
    caller that checks several lifts of c0 builds it once and hands it to
    each call."""
    beta = _heat_beta(tcf)
    if ctilde_grid is None:
        ctilde_grid = np.arange(0.05, 2.0001, 0.05)
    ctilde_grid = np.asarray(ctilde_grid, dtype=float)
    denoms = (coupling_denominators(c0, N, band=band) if denominators is None
              else denominators)
    nodes = tcf.tg.nodes()
    scale = max(c0.max_abs(), 1e-300)
    atol = 1e-12 * scale

    ratios_hi, taus_hi = [], []
    max_r2 = 0.0
    violations = 0
    seam_residual = 0.0
    seam_gap = 0.0
    for (eps, j), block in tcf.detail.items():
        D = denoms[j]
        tau = nodes * 2.0 ** (2.0 * beta * j)
        absb = np.abs(block.reshape(tcf.tg.L, -1))
        ok = D > atol
        if np.any(~ok):
            violations += int(np.sum(absb[:, ~ok] > atol))
        R = absb[:, ok] / D[None, ok]
        hi = tau >= 1.0
        if np.any(hi):
            ratios_hi.append(R[hi].reshape(-1))
            taus_hi.append(np.repeat(tau[hi], int(np.sum(ok))))
        if np.any(~hi):
            max_r2 = max(max_r2, float(np.max(R[~hi])) if R[~hi].size else 0.0)
        # seam: evaluate both branch formulas at the node nearest tau = 1 and
        # confirm they differ exactly by the exponential factor (reference
        # ctilde = 1); also record how close the grid comes to the seam
        if np.any(hi) and np.any(~hi) and R.shape[1]:
            ell = int(np.argmin(np.abs(np.log(tau))))
            r2_branch = float(np.max(R[ell]))
            r1_branch = float(np.max(R[ell] * np.exp(tau[ell])))
            if r2_branch > 0:
                seam_residual = max(
                    seam_residual,
                    abs(r1_branch * np.exp(-tau[ell]) / r2_branch - 1.0),
                )
            seam_gap = max(seam_gap, abs(float(np.log(tau[ell]))))
    max_r1 = np.zeros_like(ctilde_grid)
    n_pairs = 0
    if ratios_hi:
        Rh = np.concatenate(ratios_hi)
        Th = np.concatenate(taus_hi)
        pos = Rh > 0          # underflowed-to-zero pairs carry no information
        logR, Tp = np.log(Rh[pos]), Th[pos]
        n_pairs = int(np.sum(pos))
        if logR.size:
            # the pairs of one (block, node) share tau, and x -> x + c rounds
            # monotonically, so max(logR + ct tau) over a run of equal tau
            # is max(logR) + ct tau: the same bits from one max per run, and
            # one max per row of the (ctilde, run) table; the exp stays a
            # scalar call per value, since an array exp may round differently
            starts = np.flatnonzero(np.r_[True, Tp[1:] != Tp[:-1]])
            peak, tau = np.maximum.reduceat(logR, starts), Tp[starts]
            table = peak + ctilde_grid[:, None] * tau
            max_r1 = np.array([float(np.exp(np.clip(top, -745, 709)))
                               for top in np.max(table, axis=1)])
    return DecayReport(ctilde_grid, max_r1, max_r2, seam_residual, seam_gap,
                       violations, n_pairs)


def fit_ctilde(reports: Sequence[tuple[int, DecayReport]],
               growth_tol: float = 0.05) -> tuple[float, float]:
    """Largest ctilde whose max ratio grows less than growth_tol per unit J.

    Returns (ctilde, worst growth at that ctilde)."""
    if not reports:
        raise ParameterError("no reports")
    grid = reports[0][1].ctilde_grid
    reports = sorted(reports, key=lambda item: item[0])
    for idx in range(len(grid) - 1, -1, -1):
        worst = 0.0
        ok = True
        for (J0, r0), (J1, r1) in zip(reports[:-1], reports[1:]):
            if r0.max_r1[idx] <= 0:
                ok = False
                break
            growth = (r1.max_r1[idx] / r0.max_r1[idx]) ** (1.0 / (J1 - J0)) - 1.0
            worst = max(worst, growth)
            if growth > growth_tol:
                ok = False
                break
        if ok:
            return float(grid[idx]), worst
    return 0.0, np.inf


@dataclass
class DualBoundReport:
    max_ratio: float
    violations: int
    concentration: float   # integrand mass fraction within [tstar/4, 4 tstar]


def check_dual_bound(c_rec: CoeffField, tcf: CoeffField, N: float,
                     band: int = 3) -> DualBoundReport:
    """Reconstructed coefficients against the time-integrated envelope of the
    evolved field."""
    beta = _heat_beta(tcf)
    nodes, weights = tcf.tg.nodes(), tcf.tg.weights()
    spec = tcf.spec

    # per level j': T[k'] = int (max{t 2^{2j'b}, t^{-1} 2^{-2j'b}})^{-N} |a(t)| dt/t
    T: dict[int, np.ndarray] = {}
    concentration = 0.0
    for j in tcf.levels:
        tau = nodes * 2.0 ** (2 * beta * j)
        damp = np.maximum(tau, 1.0 / tau) ** (-N)
        total = _level_power_sum(tcf, j, 1.0).reshape(tcf.tg.L, -1)
        integrand = damp[:, None] * total * weights[:, None]
        T[j] = integrand.sum(axis=0)
        flat = int(np.argmax(T[j])) if T[j].size else 0
        prof = integrand[:, flat]
        mass = prof.sum()
        if mass > 0:
            near = (tau >= 0.25) & (tau <= 4.0)
            concentration = max(concentration, float(prof[near].sum() / mass))

    max_ratio, violations = 0.0, 0
    scale = max(c_rec.max_abs(), 1e-300)
    atol = 1e-12 * scale
    rhs_of = _banded_kernel_sums(spec, c_rec.levels, T, N, band, {})
    for (eps, j), arr in c_rec.detail.items():
        rhs = rhs_of[j]
        lhs = np.abs(arr.reshape(-1))
        ok = rhs > atol
        violations += int(np.sum(lhs[~ok] > atol))
        if np.any(ok):
            max_ratio = max(max_ratio, float(np.max(lhs[ok] / rhs[ok])))
    return DualBoundReport(max_ratio, violations, concentration)
