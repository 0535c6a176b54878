"""Experiment orchestration: generators, the property experiments, reporting.

Every experiment is driven by a master seed; per-sample and per-level seeds
are derived through numpy SeedSequence spawn keys, so runs are reproducible
and coarse content is shared across resolutions in a J sweep (the sweep then
measures truncation growth, not sampling noise).

Pass criteria are stability-based: measured constants must not grow faster
than a fixed rate per unit J, identities must hold to fixed tolerances.
Reports are plain dictionaries serialized with sorted keys; nothing
time-dependent enters them; the only timestamp lives in the digest's
metadata block.

Every runner and negative control takes its bases, inputs and time grid
from the same helpers (`_sweep`, `_sample`, `_time_grid`).  What does not
depend on the sample is built once per sweep point: the Riesz matrix of
each J, the reconstruction's multiplier table of each (J, time grid), the
initial data of each decay-bounds (variant, J), shared by its betas.  The
heat-side negative controls run on the loop's own lifts and reports (the
level boost on sample 0 at the sweep endpoints, the miscalibrated
reconstruction and the misattributed decay on the first J), so they add no
lift.  Warnings are muted in one place, `run_experiment`; the runners and
the library functions they call leave the caller's warning filters alone.
"""

from __future__ import annotations

import csv
import json
import os
import time
import warnings
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, GridSpec, rel_l2_error
from .norms import (
    CutoffFamily,
    SpaceParams,
    oscillation_norm_report,
    tlm_wavelet_norm,
)
from .operators import (
    CzoGeneratorParams,
    _random_detail_field,
    czo_boundedness_experiment,
    ratio_growth,
    riesz_matrix,
    riesz_tent_experiment,
)
from .semigroup import (
    SemigroupSpec,
    calibrate_family,
    check_decay_bounds,
    default_time_grid,
    evolve_coefficients,
    fit_ctilde,
    frames_from_tcf,
    pi_phi_report,
)
from .tent import TentParams, check_embeddings, tent_norms
from .wavelet import CoeffField, WaveletIndex, build_basis

GROWTH_LIMIT = 0.10          # boundedness claims: < 10% ratio growth per unit J
IDENTITY_TOL = 1e-3          # reconstruction-type identities
DECAY_STABILITY = 0.20       # measured decay constants: +-20% band across the sweep
PARTS = ("I", "II", "III", "IV")   # the four tent parts


@dataclass
class ExperimentConfig:
    kind: str
    n: int = 1
    J_sweep: tuple[int, ...] = (8, 9, 10)
    j_min: int = 0
    sp: SpaceParams = dataclass_field(default_factory=lambda: SpaceParams(0.0, 0.3, 2.0, 2.0))
    m: float = 3.0
    m_prime: float = 1.0
    beta: float = 1.0
    samples: int = 20
    seed: int = 42
    family: str = "meyer"
    profile: str = "polynomial"
    time_nodes: int = 256
    m0: int | None = None      # moment order; None picks 1 for gamma1 <= 0 else 3

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ParameterError(
                f"unknown experiment kind {self.kind!r}; "
                f"expected one of {EXPERIMENT_KINDS}")
        if self.samples < 1:
            raise ParameterError(f"samples must be at least 1, got {self.samples}")
        J = tuple(self.J_sweep)
        if not J or any(a >= b for a, b in zip(J, J[1:])):
            raise ParameterError(
                f"J_sweep must be a non-empty, strictly increasing list of "
                f"levels, got {J}")
        if self.m0 is not None and self.m0 < 0:
            raise ParameterError(f"m0 must be auto or at least 0, got {self.m0}")
        if self.family != "meyer" and self.kind != "norm-equivalence":
            raise ParameterError(
                f"{self.kind} runs on the Meyer basis only; family "
                f"{self.family!r} applies to norm-equivalence")

    def tent_params(self) -> TentParams:
        return TentParams(self.sp, self.m, self.m_prime, self.beta)


@dataclass
class TestFunctionSpec:
    kind: str   # random-coeff-in-ball | fourier-bump | smooth-bump | polynomial | adversarial-single-cube
    params: dict
    seed: int


def generate_test_function(tfs: TestFunctionSpec, basis) -> GridFunction:
    """Deterministic under seed; random fields are rescaled to the requested
    Morrey norm (exact, so trivially within the 1% prescription)."""
    spec = basis.spec
    kind = tfs.kind
    if kind == "random-coeff-in-ball":
        sp: SpaceParams = tfs.params["sp"]
        target = tfs.params.get("target_norm", 1.0)
        c = _random_detail_field(basis, sp, tfs.seed)
        if target != 1.0:
            c = c.scaled(target)
        return basis.synthesize(c)
    if kind == "fourier-bump":
        center = tfs.params.get("center_freq", spec.samples_per_axis // 8)
        width = tfs.params.get("width", max(center / 2.0, 1.0))
        rng = np.random.default_rng(tfs.seed)
        radius = np.sqrt(spec.lattice_norm2())
        envelope = np.exp(-((radius - center) ** 2) / (2 * width**2))
        envelope[radius == 0] = 0.0
        phase = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        F = envelope * phase
        # hermitian part keeps the sample real
        Fc = np.conj(F[tuple(slice(None, None, -1) for _ in range(spec.n))])
        Fc = np.roll(Fc, 1, axis=tuple(range(spec.n)))
        f = GridFunction(spec, np.fft.ifftn((F + Fc) / 2.0) * spec.size)
        return basis.band_limit(f)
    if kind == "smooth-bump":
        center = tfs.params.get("center", (0.5,) * spec.n)
        width = tfs.params.get("width", 0.1)
        grids = spec.meshgrid()
        r2 = sum((_wrap(g - c0)) ** 2 for g, c0 in zip(grids, center))
        data = np.exp(-r2 / (2 * width**2))
        data = data - np.mean(data)
        return basis.band_limit(GridFunction(spec, data))
    if kind == "polynomial":
        if tfs.params.get("target_norm") is not None:
            raise ParameterError(
                "polynomial test functions have no oscillation content to "
                "normalize; target_norm is infeasible")
        degree = tfs.params.get("degree", 0)
        coeffs = tfs.params.get("coeffs")
        if coeffs is None:
            rng = np.random.default_rng(tfs.seed)
            coeffs = rng.standard_normal(degree + 1)
        grids = spec.meshgrid()
        data = np.zeros(spec.shape, dtype=complex)
        for d, cd in enumerate(coeffs):
            data += cd * grids[0] ** d
        return GridFunction(spec, data)
    if kind == "adversarial-single-cube":
        c = CoeffField(spec, basis.family, basis.j_min, basis.j_max)
        idx = WaveletIndex(tuple(tfs.params["eps"]), tfs.params["j"],
                           tuple(tfs.params["k"]))
        c.set(idx, tfs.params.get("amplitude", 1.0))
        return basis.synthesize(c)
    raise ParameterError(f"unknown test-function kind {kind!r}")


def _wrap(x: np.ndarray) -> np.ndarray:
    return (x + 0.5) % 1.0 - 0.5


def _band_stability(values_by_J: dict) -> float:
    """Max relative deviation from the sweep mean (the +-20% style check)."""
    vals = np.array([values_by_J[J] for J in sorted(values_by_J)], dtype=float)
    if np.all(vals == 0):
        return 0.0
    mean = float(np.mean(vals))
    if mean == 0:
        return np.inf
    return float(np.max(np.abs(vals - mean)) / mean)


# -- the shared sweep pieces -----------------------------------------------------

def _sweep(cfg: ExperimentConfig, family: str = "meyer", endpoints: bool = False):
    """(J, basis) for each J of the sweep, or for its first and last J."""
    Js = (cfg.J_sweep[0], cfg.J_sweep[-1]) if endpoints else cfg.J_sweep
    return ((J, build_basis(family, GridSpec(n=cfg.n, J=J, j_min=cfg.j_min),
                            profile=cfg.profile)) for J in Js)


def _sample(cfg: ExperimentConfig, basis, s: int = 0) -> GridFunction:
    """Input sample s of the sweep; the negative controls use sample 0."""
    return generate_test_function(TestFunctionSpec(
        "random-coeff-in-ball", {"sp": cfg.sp}, seed=cfg.seed + 104729 * s),
        basis)


def _time_grid(cfg: ExperimentConfig, beta: float | None = None):
    """The sweep's one time grid (at cfg.beta unless `beta` is given): node
    positions shared across J, so seam quantities compare without jitter."""
    return default_time_grid(GridSpec(cfg.n, max(cfg.J_sweep), cfg.j_min),
                             cfg.beta if beta is None else beta,
                             L=cfg.time_nodes)


def _lift(basis, f: GridFunction, tg, beta: float) -> CoeffField:
    return evolve_coefficients(SemigroupSpec(beta, basis.spec), basis, f, tg)


def _one_coefficient(basis, j: int, k: tuple[int, ...]) -> CoeffField:
    """The field with a single unit coefficient of type (1, 0, ...) at (j, k)."""
    c = CoeffField(basis.spec, basis.family, basis.j_min, basis.j_max)
    c.set(WaveletIndex((1,) + (0,) * (basis.spec.n - 1), j, k), 1.0)
    return c


# -- experiments -----------------------------------------------------------------

def run_norm_equivalence(cfg: ExperimentConfig) -> dict:
    """Oscillation norm against the wavelet norm: per-sample ratios, per-J
    brackets, endpoint drift and cross-basis overlap."""
    rows = []
    # the moment order follows the smoothness index: low orders avoid
    # absorbing coarse periodic content into the per-cube polynomial, high
    # smoothness needs more matched moments
    m0 = cfg.m0 if cfg.m0 is not None else (3 if cfg.sp.gamma1 > 0 else 1)
    brackets: dict[str, dict[int, tuple[float, float]]] = {}
    meyer_osc: dict[tuple[int, int], float] = {}     # (J, sample) -> value
    cutoff = CutoffFamily(n=cfg.n)
    for family in dict.fromkeys(("meyer", cfg.family)):
        per_J = {}
        for J, basis in _sweep(cfg, family=family):
            ratios = []
            fs = [_sample(cfg, basis, s) for s in range(cfg.samples)]
            oscs = [rep.value for rep in
                    oscillation_norm_report(fs, cfg.sp, cutoff, m0, basis)]
            for s, (f, osc) in enumerate(zip(fs, oscs)):
                wav = tlm_wavelet_norm(basis.analyze(f), cfg.sp)
                if family == "meyer":
                    meyer_osc[(J, s)] = osc
                if wav <= 0:
                    continue
                ratio = osc / wav
                ratios.append(ratio)
                rows.append({"experiment": "norm-equivalence", "family": family,
                             "J": J, "sample": s, "oscillation": osc,
                             "wavelet": wav, "ratio": ratio})
            per_J[J] = (min(ratios), max(ratios))
        brackets[family] = per_J
    drift = _bracket_drift(cfg, brackets["meyer"])
    vals = [b for per in brackets.values() for b in per.values()]
    overlap = max(v[0] for v in vals) <= min(v[1] for v in vals)

    # negative control: pairing the oscillation norm with a wavelet norm of
    # mismatched smoothness must break the bracket stability
    control = _mismatched_smoothness_control(cfg, m0, meyer_osc)
    passed = (all(d < GROWTH_LIMIT for d in drift.values()) and overlap
              and control["detected"])
    report = {
        "kind": "norm-equivalence",
        "params": _sp_dict(cfg.sp),
        "moment_order": m0,
        "brackets": {f: {str(J): list(b) for J, b in per.items()}
                     for f, per in brackets.items()},
        "bracket_drift": drift,
        "brackets_overlap": overlap,
        "negative_control": control,
        "passed": bool(passed),
    }
    if cfg.sp.degenerate(cfg.n):
        report["note"] = ("gamma2 > n/p: degenerate regime; the equivalence "
                          "experiment still runs at finite scale")
    return {"report": report, "rows": rows}


def _mismatched_smoothness_control(cfg: ExperimentConfig, m0: int,
                                   meyer_osc: dict[tuple[int, int], float]) -> dict:
    """Oscillation at gamma1 against coefficients weighted at gamma1 + 3/4:
    the ratio drifts like 2^{0.75 per level} and must violate the drift
    limit (three samples at the sweep endpoints suffice).  meyer_osc holds
    the Meyer oscillation norms already computed for the same inputs, keyed
    by (J, sample); only the missing ones are evaluated here."""
    sp_wrong = SpaceParams(cfg.sp.gamma1 + 0.75, cfg.sp.gamma2, cfg.sp.p,
                           cfg.sp.q)
    cutoff = CutoffFamily(n=cfg.n)
    endpoints = {}
    for J, basis in _sweep(cfg, endpoints=True):
        ratios = []
        for s in range(3):
            f = _sample(cfg, basis, s)
            wav = tlm_wavelet_norm(basis.analyze(f), sp_wrong)
            if (J, s) in meyer_osc:
                osc = meyer_osc[(J, s)]
            else:
                osc = oscillation_norm_report(f, cfg.sp, cutoff, m0, basis).value
            if wav > 0:
                ratios.append(osc / wav)
        endpoints[J] = (min(ratios), max(ratios))
    drift = _bracket_drift(cfg, endpoints)
    return {"kind": "mismatched-smoothness", "gamma1_wrong": sp_wrong.gamma1,
            "drift": drift, "detected": bool(max(drift.values()) > GROWTH_LIMIT)}


def _bracket_drift(cfg: ExperimentConfig, brackets_by_J: dict) -> dict:
    """Relative change of each bracket end from the first J of the sweep to
    the last."""
    J0, J1 = cfg.J_sweep[0], cfg.J_sweep[-1]
    return {end: abs(brackets_by_J[J1][i] / brackets_by_J[J0][i] - 1.0)
            if brackets_by_J[J0][i] > 0 else np.inf
            for i, end in enumerate(("low", "high"))}


def run_semigroup_characterization(cfg: ExperimentConfig) -> dict:
    """Forward heat lift into the tent norms, reverse reconstruction bound,
    and the reconstruction identity, across the J sweep."""
    tp = cfg.tent_params()
    bad = tp.characterization_preconditions(cfg.n)
    if bad:
        raise ParameterError("characterization preconditions violated: " + "; ".join(bad))
    rows = []
    part_max = {name: {} for name in PARTS}
    reverse_max, residual_max, surjectivity = {}, {}, {}
    tg = _time_grid(cfg)
    fam = calibrate_family(cfg.beta, profile=cfg.profile)
    control = None
    for J, basis in _sweep(cfg):
        peaks = {name: 0.0 for name in part_max}
        rev_peak, res_peak = 0.0, 0.0
        for s in range(cfg.samples):
            f = _sample(cfg, basis, s)
            tcf = _lift(basis, f, tg, cfg.beta)
            rep = tent_norms(tcf, tp)
            rec, _ = pi_phi_report(fam, frames_from_tcf(basis, tcf), tg, basis.spec)
            rec_norm = tlm_wavelet_norm(basis.analyze(rec), cfg.sp)
            residual = rel_l2_error(rec, f)
            combined = rep.combined
            reverse = rec_norm / combined if combined > 0 else 0.0
            for name, val in zip(PARTS, rep.values):
                peaks[name] = max(peaks[name], val)
            rev_peak = max(rev_peak, reverse)
            res_peak = max(res_peak, residual)
            rows.append({"experiment": "semigroup-characterization", "J": J,
                         "sample": s, "combined": combined,
                         **{f"part_{name}": v for name, v in zip(PARTS, rep.values)},
                         "reverse_ratio": reverse, "residual": residual})
            if J == cfg.J_sweep[0] and s == 0:
                control = _miscalibrated_reconstruction_control(fam, basis, f, tcf)
        for name in part_max:
            part_max[name][J] = peaks[name]
        reverse_max[J] = rev_peak
        residual_max[J] = res_peak
        surjectivity[J] = _surjectivity_probe(basis, fam, tg, tp, cfg)
    growths = {name: ratio_growth(vals) for name, vals in part_max.items()}
    rev_growth = ratio_growth(reverse_max)
    passed = (all(g < GROWTH_LIMIT for g in growths.values())
              and rev_growth < GROWTH_LIMIT
              and max(residual_max.values()) < IDENTITY_TOL
              and control["detected"])
    report = {
        "kind": "semigroup-characterization",
        "params": {**_sp_dict(cfg.sp), "m": cfg.m, "m_prime": cfg.m_prime,
                   "beta": cfg.beta},
        "preconditions_checked": ["1 < p < m", "gamma1 - gamma2 < 0 < beta",
                                  "m_prime > 0"],
        "forward_max_by_J": {n_: {str(J): v for J, v in d.items()}
                             for n_, d in part_max.items()},
        "forward_growth": growths,
        "reverse_max_by_J": {str(J): v for J, v in reverse_max.items()},
        "reverse_growth": rev_growth,
        "residual_max": max(residual_max.values()),
        "surjectivity_probe": {str(J): v for J, v in surjectivity.items()},
        "negative_control": control,
        "passed": bool(passed),
    }
    return {"report": report, "rows": rows}


def _miscalibrated_reconstruction_control(fam, basis, f, tcf) -> dict:
    """Inflating the calibration constant by half must push the
    reconstruction residual far beyond the identity tolerance; run on the
    sweep's first J and sample 0 (f and its lift tcf)."""
    bad_fam = replace(fam, C_beta=1.5 * fam.C_beta)
    rec, _ = pi_phi_report(bad_fam, frames_from_tcf(basis, tcf), tcf.tg,
                           basis.spec)
    residual = rel_l2_error(rec, f)
    return {"kind": "miscalibrated-reconstruction", "residual": residual,
            "detected": bool(residual > IDENTITY_TOL)}


def _surjectivity_probe(basis, fam, tg, tp, cfg) -> dict:
    """Feed a synthetic admissible tent field (not a heat lift) through the
    reconstruction and bound its Morrey norm by the tent norm."""
    spec = basis.spec
    c = _random_detail_field(basis, cfg.sp, cfg.seed + 31)
    tcf = CoeffField(spec, basis.family, basis.j_min, basis.j_max, tg=tg,
                     beta=cfg.beta)
    nodes = tg.nodes()
    for (eps, j), arr in tcf.detail.items():
        tau = nodes * 2.0 ** (2 * cfg.beta * j)
        profile = np.where(tau <= 1.0, tau**tp.m_prime, tau ** (-(tp.m + 1.0)))
        arr[:] = profile.reshape((-1,) + (1,) * spec.n) * c.detail[(eps, j)]
    rep = tent_norms(tcf, tp)
    rec, _ = pi_phi_report(fam, frames_from_tcf(basis, tcf), tg, spec)
    image_norm = tlm_wavelet_norm(basis.analyze(rec), cfg.sp)
    combined = rep.combined
    return {"tent_norm": combined, "image_norm": image_norm,
            "ratio": image_norm / combined if combined > 0 else 0.0}


def run_czo_boundedness(cfg: ExperimentConfig) -> dict:
    """Admissible matrices must stay J-stable; the decay-violating control
    must blow up and be flagged."""
    admissible = czo_boundedness_experiment(
        CzoGeneratorParams(N0=6.0, C=1.0), cfg.sp, cfg.samples, cfg.seed,
        J_sweep=cfg.J_sweep, n=cfg.n, j_min=cfg.j_min,
        growth_limit=GROWTH_LIMIT, profile=cfg.profile)
    sp_control = SpaceParams(1.5, 0.3, 2.0, 2.0)
    control_params = CzoGeneratorParams(
        N0=0.2, C=1.0, band=np.inf, window_cells=np.inf,
        density=0.1, saturation=3.0)
    control = czo_boundedness_experiment(
        control_params, sp_control, cfg.samples, cfg.seed,
        J_sweep=cfg.J_sweep, n=cfg.n, j_min=cfg.j_min,
        growth_limit=GROWTH_LIMIT, declared_N0=6.0, profile=cfg.profile)
    control_flagged = (not control.certified) and control.growth_per_J > 0.50
    rows = []
    for tag, rep in (("admissible", admissible), ("control", control)):
        for J, s, in_n, out_n, ratio in rep.per_sample:
            rows.append({"experiment": "czo-boundedness", "variant": tag,
                         "J": J, "sample": s, "in_norm": in_n,
                         "out_norm": out_n, "ratio": ratio})
    report = {
        "kind": "czo-boundedness",
        "params": _sp_dict(cfg.sp),
        "admissible": _boundedness_dict(admissible),
        "control": _boundedness_dict(control),
        "control_params": _sp_dict(sp_control),
        "control_flagged": bool(control_flagged),
        "passed": bool(admissible.passed and control_flagged),
    }
    return {"report": report, "rows": rows}


def run_riesz_tent(cfg: ExperimentConfig) -> dict:
    """Tent-part ratios of the Riesz transform on heat-lifted data."""
    tp = cfg.tent_params()
    rows = []
    part_ratio_max = {name: {} for name in PARTS}
    boost_by_J = {}
    tg = _time_grid(cfg)
    for J, basis in _sweep(cfg):
        peaks = {name: 0.0 for name in part_ratio_max}
        mat = riesz_matrix(basis, 1)
        for s in range(cfg.samples):
            tcf = _lift(basis, _sample(cfg, basis, s), tg, cfg.beta)
            result = riesz_tent_experiment(tcf, tp, mat)
            row = {"experiment": "riesz-tent", "J": J, "sample": s}
            for name in PARTS:
                r = result["ratios"][name]
                row[f"ratio_{name}"] = r
                if r is not None and np.isfinite(r):
                    peaks[name] = max(peaks[name], r)
            row["cross_part_iii"] = result["cross_part_iii"]
            rows.append(row)
            if s == 0 and J in (cfg.J_sweep[0], cfg.J_sweep[-1]):
                boost_by_J[J] = _level_boost_ratio(tcf, tp,
                                                   max(result["input_parts"]))
        for name in part_ratio_max:
            part_ratio_max[name][J] = peaks[name]
    growths = {name: ratio_growth(vals) for name, vals in part_ratio_max.items()}
    control = _level_boost_control(boost_by_J)
    passed = (all(g < GROWTH_LIMIT for g in growths.values())
              and control["detected"])
    report = {
        "kind": "riesz-tent",
        "params": {**_sp_dict(cfg.sp), "m": cfg.m, "m_prime": cfg.m_prime,
                   "beta": cfg.beta, "n": cfg.n},
        "ratio_max_by_J": {n_: {str(J): v for J, v in d.items()}
                           for n_, d in part_ratio_max.items()},
        "ratio_growth": growths,
        "negative_control": control,
        "passed": bool(passed),
    }
    return {"report": report, "rows": rows}


def _level_boost_ratio(tcf: CoeffField, tp: TentParams, combined_in: float) -> float:
    """Combined tent norm of the lift tcf with its coefficients boosted by
    2^{j/2} (an unbounded diagonal operator), over tcf's own combined norm
    `combined_in`."""
    boosted = tcf.map_detail(lambda eps, j, block: block * 2.0 ** (j / 2.0))
    return tent_norms(boosted, tp).combined / combined_in if combined_in > 0 else 0.0


def _level_boost_control(ratio_by_J: dict) -> dict:
    """The level-boost ratios of sample 0 at the sweep endpoints must grow
    across the sweep."""
    growth = ratio_growth(ratio_by_J)
    return {"kind": "level-boost", "ratio_by_J": {str(J): v for J, v in
                                                  ratio_by_J.items()},
            "growth": growth, "detected": bool(growth > GROWTH_LIMIT)}


def run_decay_bounds(cfg: ExperimentConfig) -> dict:
    """Two-regime decay constants for heat-evolved single-coefficient data,
    with the fitted exponential rate."""
    rows = []
    betas = (0.5, 1.0) if cfg.beta == 1.0 else (cfg.beta,)
    all_pass = True
    by_beta = {}
    j_star = max(cfg.j_min, (cfg.j_min + min(cfg.J_sweep) - 2) // 2)
    k_star = (3 % (1 << j_star),) * cfg.n
    # single-coefficient data at two separated levels gate the pass: the
    # measured constant must hold at every resolution and comparably
    # across the coefficient level.  The random field is informational:
    # its max ratio is an extreme over a sample set that grows with J.
    variants = [("single", j_star), ("single-fine", j_star + 2), ("random", None)]
    # the initial data of each (variant, J) and its synthesis, shared by the
    # betas: (basis, c0, f)
    inputs = {}
    for J, basis in _sweep(cfg):
        for variant, j_coeff in variants:
            if j_coeff is not None:
                c0 = _one_coefficient(basis, j_coeff, (3 % (1 << j_coeff),) * cfg.n)
            else:
                c0 = _random_detail_field(basis, cfg.sp, cfg.seed + 17)
            inputs[(variant, J)] = (basis, c0, basis.synthesize(c0))
    control = None
    for beta in betas:
        tg = _time_grid(cfg, beta)
        by_variant = {}
        gate_values = []
        for variant, j_coeff in variants:
            reports = []
            for J in cfg.J_sweep:
                basis, c0, f = inputs[(variant, J)]
                tcf = _lift(basis, f, tg, beta)
                rep = check_decay_bounds(tcf, c0, N=4.0)
                reports.append((J, rep))
                rows.append({"experiment": "decay-bounds", "beta": beta,
                             "variant": variant, "J": J, "max_r2": rep.max_r2,
                             "seam_residual": rep.seam_residual,
                             "violations": rep.violations})
                if (beta, variant, J) == (cfg.beta, "single", cfg.J_sweep[0]):
                    control = _misattributed_decay_control(basis, tcf, rep,
                                                           j_star, k_star)
            ctilde, _worst = fit_ctilde(reports, 0.05)
            idx = int(np.argmin(np.abs(reports[0][1].ctilde_grid - ctilde)))
            r1_by_J = {J: rep.max_r1[idx] for J, rep in reports}
            stability = _band_stability(r1_by_J)
            seam = max(rep.seam_residual for _, rep in reports)
            ok = ctilde > 0 and stability < DECAY_STABILITY and seam < 1e-8
            by_variant[variant] = {
                "ctilde": ctilde,
                "max_r1_by_J": {str(J): v for J, v in r1_by_J.items()},
                "stability": stability,
                "max_r2_by_J": {str(J): rep.max_r2 for J, rep in reports},
                "seam_residual": seam,
                "passed": bool(ok),
                "gating": j_coeff is not None,
            }
            if j_coeff is not None:
                all_pass = all_pass and ok
                gate_values.append(max(r1_by_J.values()))
        # scale uniformity: the two single-coefficient constants comparable
        if len(gate_values) == 2 and min(gate_values) > 0:
            cross = max(gate_values) / min(gate_values)
            by_variant["cross_level_ratio"] = cross
            all_pass = all_pass and cross < 4.0
        by_beta[str(beta)] = by_variant
    all_pass = all_pass and control["detected"]
    report = {"kind": "decay-bounds",
              "params": {"N": 4.0, "j_star": j_star, "n": cfg.n,
                         "time_nodes": cfg.time_nodes},
              "by_beta": by_beta,
              "negative_control": control,
              "passed": bool(all_pass)}
    return {"report": report, "rows": rows}


def _misattributed_decay_control(basis, tcf, rep_true, j_star, k_true) -> dict:
    """Checking the lift of one wavelet against initial data positioned on
    the opposite side of the torus must blow the measured constant up; run
    on the lift tcf of the unit coefficient at (j_star, k_true), whose
    report against its own initial data is rep_true."""
    k_wrong = tuple((k + (1 << j_star) // 2) % (1 << j_star) for k in k_true)
    rep_wrong = check_decay_bounds(tcf, _one_coefficient(basis, j_star, k_wrong),
                                   N=4.0)
    blowup = (rep_wrong.max_r2 / rep_true.max_r2
              if rep_true.max_r2 > 0 else np.inf)
    return {"kind": "misattributed-initial-data", "blowup": blowup,
            "detected": bool(blowup > 10.0)}


def run_embeddings(cfg: ExperimentConfig) -> dict:
    """Coefficient bounds behind the tent embeddings for heat data, plus the
    adversarial growing profile that must be flagged."""
    tp = cfg.tent_params()
    rows = []
    high_by_J, low_by_J = {}, {}
    flagged_control = False
    tg = _time_grid(cfg)
    for J, basis in _sweep(cfg):
        emb = check_embeddings(_lift(basis, _sample(cfg, basis), tg, cfg.beta), tp)
        high_by_J[J] = emb.ratio_high
        low_by_J[J] = emb.ratio_low
        rows.append({"experiment": "embeddings", "J": J,
                     "ratio_high": emb.ratio_high, "ratio_low": emb.ratio_low,
                     "slope": emb.slope_high, "flagged": emb.flagged})
        if J == cfg.J_sweep[-1]:
            bad = CoeffField(basis.spec, basis.family, basis.j_min, basis.j_max,
                             tg=tg, beta=cfg.beta)
            j_mid = (basis.j_min + basis.j_max) // 2
            tau = tg.nodes() * 2.0 ** (2 * cfg.beta * j_mid)
            key = ((1,) + (0,) * (cfg.n - 1), j_mid)
            sel = (slice(None),) + (0,) * cfg.n
            bad.detail[key][sel] = np.where(tau >= 1, tau, 1.0)
            flagged_control = check_embeddings(bad, tp).flagged
    passed = (_band_stability(high_by_J) < DECAY_STABILITY
              and _band_stability(low_by_J) < DECAY_STABILITY
              and flagged_control)
    report = {
        "kind": "embeddings",
        "params": {**_sp_dict(cfg.sp), "m": cfg.m, "m_prime": cfg.m_prime,
                   "beta": cfg.beta},
        "ratio_high_by_J": {str(J): v for J, v in high_by_J.items()},
        "ratio_low_by_J": {str(J): v for J, v in low_by_J.items()},
        "control_flagged": bool(flagged_control),
        "passed": bool(passed),
    }
    return {"report": report, "rows": rows}


_RUNNERS = {
    "norm-equivalence": run_norm_equivalence,
    "semigroup-characterization": run_semigroup_characterization,
    "czo-boundedness": run_czo_boundedness,
    "riesz-tent": run_riesz_tent,
    "decay-bounds": run_decay_bounds,
    "embeddings": run_embeddings,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> dict:
    # the one place that mutes warnings: the library warns per call, a run
    # of the suite reports its verdicts instead
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _RUNNERS[cfg.kind](cfg)


def default_suite(seed: int = 42) -> list[ExperimentConfig]:
    """The six experiment kinds at desk-scale defaults."""
    return [
        ExperimentConfig("norm-equivalence", sp=SpaceParams(0.0, 0.3, 2.0, 2.0),
                         J_sweep=(7, 8), samples=6, seed=seed,
                         family="daubechies"),
        ExperimentConfig("semigroup-characterization",
                         sp=SpaceParams(-0.2, 0.1, 2.0, 2.0),
                         J_sweep=(9, 10), samples=6, seed=seed,
                         time_nodes=192),
        ExperimentConfig("czo-boundedness", sp=SpaceParams(0.0, 0.3, 2.0, 2.0),
                         J_sweep=(8, 9, 10), samples=10, seed=seed),
        ExperimentConfig("riesz-tent", n=2, J_sweep=(5, 6),
                         sp=SpaceParams(-0.2, 0.1, 2.0, 2.0), samples=3,
                         seed=seed, time_nodes=96),
        ExperimentConfig("decay-bounds", J_sweep=(8, 9, 10), seed=seed,
                         time_nodes=128),
        ExperimentConfig("embeddings", sp=SpaceParams(-0.2, 0.1, 2.0, 2.0),
                         J_sweep=(7, 8), seed=seed, time_nodes=128),
    ]


def run_all(configs: list[ExperimentConfig], out_dir: str) -> dict:
    """Run every experiment, isolate failures, write reports, CSV and digest."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {"experiments": {}, "passed": True}
    all_rows = []
    for cfg in configs:
        try:
            result = run_experiment(cfg)
            report = result["report"]
            all_rows.extend(result["rows"])
        except Exception as exc:   # isolate per-experiment failures
            report = {"kind": cfg.kind, "error": repr(exc), "passed": False}
        label = cfg.kind
        serial = 2
        while label in summary["experiments"]:
            label = f"{cfg.kind}-{serial}"
            serial += 1
        summary["experiments"][label] = report
        summary["passed"] = summary["passed"] and bool(report.get("passed"))
        write_report(report, os.path.join(out_dir, f"report_{label}.json"))
    write_report(summary, os.path.join(out_dir, "summary.json"))
    write_rows_csv(all_rows, os.path.join(out_dir, "samples.csv"))
    write_digest(summary, os.path.join(out_dir, "digest.txt"))
    return summary


# -- reporting helpers --------------------------------------------------------------

def _sp_dict(sp: SpaceParams) -> dict:
    return {"gamma1": sp.gamma1, "gamma2": sp.gamma2, "p": sp.p,
            "q": sp.q if sp.q != np.inf else "inf"}


def _boundedness_dict(rep) -> dict:
    return {
        "max_ratio_by_J": {str(J): v for J, v in rep.max_ratio_by_J.items()},
        "growth_per_J": rep.growth_per_J,
        "certified": rep.certified,
        "passed": rep.passed,
        "notes": rep.notes,
    }


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1, default=_jsonable)
        fh.write("\n")


def write_rows_csv(rows: list[dict], path: str) -> None:
    keys = sorted({k for row in rows for k in row})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in keys})


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (np.floating, np.integer)):
        return repr(v.item())
    if isinstance(v, float):
        return repr(v)
    return v


def write_digest(summary: dict, path: str) -> None:
    lines = ["oscillet experiment digest", "=" * 28]
    for kind, rep in sorted(summary["experiments"].items()):
        status = "PASS" if rep.get("passed") else "FAIL"
        lines.append(f"{status}  {kind}")
        if "error" in rep:
            lines.append(f"      error: {rep['error']}")
    lines.append("-" * 28)
    lines.append(f"overall: {'PASS' if summary['passed'] else 'FAIL'}")
    lines.append("")
    lines.append("# metadata (excluded from determinism comparisons)")
    lines.append(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
