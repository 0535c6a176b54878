"""Fractional heat propagator, calibrated reconstruction family, and the
time-dependent coefficient fields they produce.

The propagator is the spectral multiplier exp(-t (2 pi |m|)^{2 beta}) on the
integer frequency lattice.  The calibrated family is built radially from the
detail window of the Meyer pair: w(r) = omega(r) / sqrt(2 beta ln 2), which
makes the squared Calderon integral int_0^inf w(t^{1/(2 beta)} |xi|)^2 dt/t
equal to one for every nonzero lattice frequency (the dyadic shells of the
window tile the ray exactly), while the companion constant of the damped
integral is computed by quadrature and recorded.

Time grids (`grid.TimeGrid`, re-exported here) are logarithmic midpoint
rules for the measure dt/t.  A heat lift is a `CoeffField` on a time grid,
tagged with the beta of its semigroup.

The heat lift is evaluated on chunks of time nodes: `evolve_coefficients`
builds the propagated spectra of a chunk as one (chunk,) + grid stack and
transforms every level block of the chunk at once, and `frames_from_tcf`
synthesizes one chunk of slices at a time.  A chunk holds at most
CHUNK_BYTES of complex grid rows, the bound shared with the oscillation norm
and the tent parts.  The reconstruction reads the calibrated multiplier from
one table per time grid and grid, kept on the family (the last one only),
and transforms its frames a chunk at a time, adding them in node order.
Every value is bit for bit the one a node-by-node evaluation gives; the
reconstruction keeps its spatial round trip, since accumulating in Fourier
space would change the bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import GridFunction, GridSpec, TimeGrid, flat_positions, min_image
from .norms import _level_power_sum
from .wavelet import CHUNK_BYTES, CoeffField, MeyerWindow, TWO_PI, _fft_last


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
    equals analyze(heat_apply(f, t_ell)); computed in frequency
    space, one chunk of nodes at a time: a (chunk,) + grid stack of the
    propagated spectra, then one masked multiply, fold and small transform
    per level block for the whole chunk."""
    if basis.spec != sg.spec:
        raise GridMismatchError("basis and semigroup grids differ")
    if not np.all(np.isfinite(f.data)):
        raise ParameterError("f has non-finite samples")
    F = basis.fourier(f)
    symbol = sg.symbol()
    out = CoeffField(sg.spec, basis.family, basis.j_min, basis.j_max, tg=tg,
                     beta=sg.beta)
    blocks = [(eps, j) for j in basis.detail_levels
              for eps in basis.detail_type_list()]
    eps0 = (0,) * sg.spec.n
    nodes = tg.nodes()
    rows = max(1, CHUNK_BYTES // (16 * sg.spec.size))
    for start in range(0, tg.L, rows):
        chunk = slice(start, start + rows)
        ts = nodes[chunk].reshape((-1,) + (1,) * sg.spec.n)
        Ft = F * np.exp(-ts * symbol)
        for eps, j in blocks:
            out.detail[(eps, j)][chunk] = basis._coeffs_from_fourier(Ft, eps, j)
        out.scaling[chunk] = basis._coeffs_from_fourier(Ft, eps0, basis.j_min)
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
    from scipy.integrate import quad

    if not (np.isfinite(beta) and beta > 0):
        raise ParameterError(f"beta must be finite and positive, got {beta}")
    window = MeyerWindow(profile)
    scale = 1.0 / np.sqrt(2.0 * beta * np.log(2.0))

    def w(r):
        return scale * window.omega(np.asarray([r], dtype=float))[0]

    # (iii): damped scalar integral over the support of r = t^{1/(2 beta)}
    lo, hi = (TWO_PI / 3.0) ** (2 * beta), (8.0 * np.pi / 3.0) ** (2 * beta)
    val, err = quad(lambda t: w(t ** (1.0 / (2 * beta))) * np.exp(-t) / t, lo, hi,
                    limit=200)
    if val <= 0:
        raise ParameterError("calibration integral vanished; bad window")
    C_beta = 1.0 / val

    # (ii): squared Calderon integral per sample radius (should be 1)
    radii = np.exp(np.linspace(np.log(0.3), np.log(200.0), n_check))
    resid_ii = 0.0
    for r0 in radii:
        tlo = (TWO_PI / (3.0 * r0)) ** (2 * beta)
        thi = (8.0 * np.pi / (3.0 * r0)) ** (2 * beta)
        v, _ = quad(lambda t: w(t ** (1.0 / (2 * beta)) * r0) ** 2 / t, tlo, thi,
                    limit=200)
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


def pi_phi_report(family: CalibratedFamily, frames: Iterable[GridFunction],
                  tg: TimeGrid, spec: GridSpec):
    """C_beta int (F(t, .) * phi^beta_t)(x) dt/t on the time grid.

    `frames` yields one GridFunction per node, in node order.  The frames of
    the nodes whose multiplier is not zero are transformed a chunk at a time
    (at most CHUNK_BYTES of grid rows) and added in node order, bit for bit
    a node-by-node sum."""
    acc = np.zeros(spec.shape, dtype=complex)
    weights = tg.weights()
    table, where = family.multiplier_table(tg, spec)
    live = np.any(table, axis=1)
    rows = max(1, CHUNK_BYTES // (16 * spec.size))
    for ells, stack in _live_chunks(frames, spec, live, rows):
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


def _live_chunks(frames: Iterable[GridFunction], spec: GridSpec,
                 live: np.ndarray, rows: int):
    """(node indices, stacked data) of the frames at the nodes where `live`
    is set, `rows` frames at a time, in node order; checks that there is
    one frame on `spec` per node."""
    ells, datas = [], []
    count = 0
    for ell, frame in enumerate(frames):
        if frame.spec != spec:
            raise GridMismatchError("frame grid does not match")
        count += 1
        if ell < len(live) and live[ell]:
            ells.append(ell)
            datas.append(frame.data)
            if len(ells) == rows:
                yield ells, np.stack(datas)
                ells, datas = [], []
    if count != len(live):
        raise ParameterError(f"expected {len(live)} frames, got {count}")
    if ells:
        yield ells, np.stack(datas)


def frames_from_tcf(basis, tcf: CoeffField) -> Iterable[GridFunction]:
    """The synthesized slice of every node, in node order; one chunk of nodes
    of at most CHUNK_BYTES is synthesized at a time."""
    rows = max(1, CHUNK_BYTES // (16 * tcf.spec.size))
    for start in range(0, tcf.tg.L, rows):
        for data in basis.synthesize_stack(tcf[start:start + rows]):
            yield GridFunction(tcf.spec, data)


def heat_frames(sg: SemigroupSpec, f: GridFunction, tg: TimeGrid):
    F = np.fft.fftn(f.data)
    symbol = sg.symbol()
    for t in tg.nodes():
        yield GridFunction(sg.spec, np.fft.ifftn(F * np.exp(-t * symbol)))


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


def coupling_denominators(c0: CoeffField, N: float,
                          band: int = 3) -> dict[int, np.ndarray]:
    """D[j][k] = sum_{|j-j'|<=band} sum_{eps',k'} |a0| (1+|2^{j-j'}k'-k|)^{-N}."""
    # per level, the sum over detail types of |a| as a flat position vector
    sums = {j: _level_power_sum(c0, j, 1.0).reshape(-1) for j in c0.levels}
    out = {}
    for j in c0.levels:
        acc = np.zeros((1 << j) ** c0.spec.n)
        for jp in c0.levels:
            if abs(j - jp) > band:
                continue
            K = cross_level_kernel_matrix(c0.spec, j, jp, N)
            acc += K @ sums[jp]
        out[j] = acc
    return out


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
                       band: int = 3) -> DecayReport:
    """Measured constants in the two-regime coefficient decay bound for
    heat-evolved data against the initial coefficients."""
    beta = _heat_beta(tcf)
    if ctilde_grid is None:
        ctilde_grid = np.arange(0.05, 2.0001, 0.05)
    ctilde_grid = np.asarray(ctilde_grid, dtype=float)
    denoms = coupling_denominators(c0, N, band=band)
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
    if ratios_hi:
        Rh = np.concatenate(ratios_hi)
        Th = np.concatenate(taus_hi)
        pos = Rh > 0          # underflowed-to-zero pairs carry no information
        logR, Tp = np.log(Rh[pos]), Th[pos]
        max_r1 = np.array([
            float(np.exp(np.clip(np.max(logR + ct * Tp), -745, 709)))
            if logR.size else 0.0
            for ct in ctilde_grid
        ])
        n_pairs = int(np.sum(pos))
    else:
        max_r1 = np.zeros_like(ctilde_grid)
        n_pairs = 0
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
    for (eps, j), arr in c_rec.detail.items():
        rhs = np.zeros((1 << j) ** spec.n)
        for jp in tcf.levels:
            if abs(j - jp) > band:
                continue
            K = cross_level_kernel_matrix(spec, j, jp, N)
            rhs += K @ T[jp]
        lhs = np.abs(arr.reshape(-1))
        ok = rhs > atol
        violations += int(np.sum(lhs[~ok] > atol))
        if np.any(ok):
            max_ratio = max(max_ratio, float(np.max(lhs[ok] / rhs[ok])))
    return DualBoundReport(max_ratio, violations, concentration)
