"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantity.  Run with `pytest tests/test_acceptance.py -v -s`.

Desk scale: n=1 at J <= 11, n=2 at J <= 7.  Stated tolerances are asserted
as written; runtime limits are asserted where the criterion carries one.
"""

import time

import numpy as np
import pytest

from oscillet.grid import GridFunction, GridSpec, rel_l2_error
from oscillet.harness import ExperimentConfig
from oscillet.norms import SpaceParams, tl_norm, tlm_wavelet_norm
from oscillet.operators import (
    CzoGeneratorParams,
    _random_detail_field,
    apply_matrix,
    czo_boundedness_experiment,
    riesz_apply,
    riesz_matrix,
)
from oscillet.semigroup import (
    SemigroupSpec,
    calibrate_family,
    default_time_grid,
    evolve_coefficients,
    pi_phi_report,
)
from oscillet.wavelet import TWO_PI, WaveletIndex, build_basis


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def timed(t0, limit):
    dt = time.time() - t0
    return dt, dt < limit


def test_criterion_01_basis_validity():
    t0 = time.time()
    spec = GridSpec(1, 10, 0)
    basis = build_basis("meyer", spec)
    idxs = [WaveletIndex((0,), 0, (0,))]
    for j in basis.detail_levels:
        idxs += [WaveletIndex((1,), j, (k,)) for k in range(1 << j)]
    B = np.stack([basis.basis_function(i).values for i in idxs])
    G = (B @ np.conj(B.T)) * spec.cell_volume
    gram_dev = float(np.max(np.abs(G - np.eye(len(idxs)))))

    rng = np.random.default_rng(0)
    f = basis.band_limit(GridFunction(spec, rng.standard_normal(spec.shape)))
    rt = rel_l2_error(basis.synthesize(basis.analyze(f)), f)

    daub = build_basis("daubechies", spec, m0=6)
    x = spec.axis_coordinates()
    moments = []
    for eps_j, k in [(5, 10), (6, 33)]:
        psi = daub.basis_function(WaveletIndex((1,), eps_j, (k,)))
        for alpha in range(daub.m0):
            moments.append(abs(spec.cell_volume
                               * np.sum(x**alpha * psi.data.real)))
    mom_dev = max(moments)
    dt, in_time = timed(t0, 30.0)
    ok = gram_dev < 1e-8 and rt < 1e-8 and mom_dev < 1e-6 and in_time
    report(1, ok, f"gram={gram_dev:.2e} roundtrip={rt:.2e} "
                  f"moments={mom_dev:.2e} time={dt:.1f}s")


def test_criterion_02_window_identities():
    basis = build_basis("meyer", GridSpec(1, 10, 0))
    w = basis.window
    worst = 0.0
    for j in range(2, 11):
        m = np.arange(-(1 << 10) // 2, (1 << 10) // 2)
        xi = TWO_PI * m / (1 << j)
        sel = (np.abs(xi) >= TWO_PI / 3) & (np.abs(xi) <= 2 * TWO_PI / 3)
        xi = np.abs(xi[sel])
        if xi.size == 0:
            continue
        id1 = np.abs(w.omega(xi) ** 2 + w.omega(2 * xi) ** 2 - 1)
        id2 = np.abs(w.omega(xi) ** 2 + w.omega(TWO_PI - xi) ** 2 - 1)
        worst = max(worst, float(np.max(id1)), float(np.max(id2)))
    report(2, worst < 1e-10, f"max identity deviation on lattice = {worst:.2e}")


@pytest.mark.slow
def test_criterion_03_norm_equivalence():
    t0 = time.time()
    from oscillet.harness import run_norm_equivalence

    results = []
    for g1, g2, p, q in [(0.0, 0.3, 2.0, 2.0), (-0.2, 0.1, 2.0, 2.0),
                         (0.5, 0.6, 3.0, 2.0)]:
        cfg = ExperimentConfig("norm-equivalence",
                               sp=SpaceParams(g1, g2, p, q),
                               J_sweep=(8, 9, 10), samples=20, seed=42)
        rep = run_norm_equivalence(cfg)["report"]
        results.append((rep["params"], rep["bracket_drift"], rep["passed"]))
    dt, in_time = timed(t0, 300.0)
    drifts = ["(lo {low:.3f}, hi {high:.3f})".format(**d) for _, d, _ in results]
    ok = all(r[2] for r in results) and in_time
    report(3, ok, f"bracket endpoint drifts {drifts} time={dt:.0f}s")


def test_criterion_04_collapse_identity():
    spec = GridSpec(1, 9, 0)
    basis = build_basis("meyer", spec)
    worst = 0.0
    for s in range(20):
        sp = SpaceParams(0.15, 1.0 / 2.0, 2.0, 2.0)
        c = _random_detail_field(basis, sp, 42 + s)
        diff = abs(tlm_wavelet_norm(c, sp) - tl_norm(c, 0.15, 2.0, 2.0))
        worst = max(worst, diff)
    report(4, worst < 1e-12, f"max |tlm - tl| at gamma2=n/p: {worst:.2e}")


@pytest.mark.slow
def test_criterion_05_czo_boundedness():
    t0 = time.time()
    sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
    adm = czo_boundedness_experiment(CzoGeneratorParams(N0=6.0, C=1.0), sp,
                                     samples=20, seed=42, J_sweep=(8, 9, 10))
    sp_ctrl = SpaceParams(1.5, 0.3, 2.0, 2.0)
    ctrl_params = CzoGeneratorParams(N0=0.2, C=1.0, band=np.inf,
                                     window_cells=np.inf, saturation=3.0)
    ctrl = czo_boundedness_experiment(ctrl_params, sp_ctrl, samples=20,
                                      seed=42, J_sweep=(8, 9, 10),
                                      declared_N0=6.0)
    dt, in_time = timed(t0, 180.0)
    ok = (adm.certified and adm.growth_per_J < 0.10
          and (not ctrl.certified) and ctrl.growth_per_J > 0.50 and in_time)
    report(5, ok, f"admissible growth {adm.growth_per_J:.3f}/J, control growth "
                  f"{ctrl.growth_per_J:.3f}/J flagged={not ctrl.certified} "
                  f"time={dt:.0f}s")


@pytest.mark.slow
def test_criterion_06_decay_bounds():
    from oscillet.harness import run_decay_bounds

    cfg = ExperimentConfig("decay-bounds", J_sweep=(8, 9, 10), seed=42,
                           time_nodes=256)
    rep = run_decay_bounds(cfg)["report"]
    details = []
    ok = rep["passed"]
    for beta, variants in rep["by_beta"].items():
        sv = variants["single"]
        ok = ok and sv["ctilde"] > 0 and sv["stability"] < 0.2 \
            and sv["seam_residual"] < 1e-8
        details.append(f"beta={beta}: ctilde={sv['ctilde']:.2f} "
                       f"stab={sv['stability']:.3f} seam={sv['seam_residual']:.1e}")
    report(6, ok, "; ".join(details))


def test_criterion_07_reconstruction_identity():
    spec = GridSpec(1, 9, 0)
    basis = build_basis("meyer", spec)
    sg = SemigroupSpec(1.0, spec)
    fam = calibrate_family(1.0)
    tg = default_time_grid(spec, 1.0, L=256)
    rng = np.random.default_rng(2)
    c = basis.analyze(basis.band_limit(
        GridFunction(spec, rng.standard_normal(spec.shape))))
    c.scaling[:] = 0.0
    f = basis.synthesize(c)
    rec, _ = pi_phi_report(fam, basis, evolve_coefficients(sg, basis, f, tg))
    resid = rel_l2_error(rec, f)
    report(7, resid < 1e-3, f"reconstruction residual = {resid:.2e} (L=256)")


@pytest.mark.slow
def test_criterion_08_semigroup_characterization():
    from oscillet.harness import run_semigroup_characterization

    t0 = time.time()
    cfg = ExperimentConfig("semigroup-characterization",
                           sp=SpaceParams(-0.2, 0.1, 2.0, 2.0),
                           J_sweep=(9, 10, 11), samples=20, seed=42,
                           time_nodes=256)
    rep = run_semigroup_characterization(cfg)["report"]
    growths = {k: float(v) for k, v in rep["forward_growth"].items()}
    dt = time.time() - t0
    ok = rep["passed"]
    report(8, ok, f"forward growth {growths}, reverse growth "
                  f"{float(rep['reverse_growth']):.3f}, residual "
                  f"{rep['residual_max']:.1e} time={dt:.0f}s")


def test_criterion_09_riesz_exactness():
    spec = GridSpec(1, 9, 0)
    basis = build_basis("meyer", spec)
    rng = np.random.default_rng(3)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    rr = riesz_apply(riesz_apply(f, 1), 1)
    ident_dev = float(np.max(np.abs(rr.data + (f.data - np.mean(f.data)))))

    from oscillet.grid import l2_inner
    band_dev = 0.0
    phi_a = basis.basis_function(WaveletIndex((1,), 3, (2,)))
    for j_far in (5, 6, 7):
        phi_b = basis.basis_function(WaveletIndex((1,), j_far, (1,)))
        band_dev = max(band_dev, abs(l2_inner(phi_a, riesz_apply(phi_b, 1))))

    mat = riesz_matrix(basis, 1)
    fb = basis.band_limit(f)
    via_mat = apply_matrix(mat, basis.analyze(fb))
    via_mult = basis.analyze(riesz_apply(fb, 1))
    two_path = max(np.max(np.abs(via_mat.detail[k] - via_mult.detail[k]))
                   for k in via_mat.detail)
    ok = ident_dev < 1e-10 and band_dev < 1e-10 and two_path < 1e-8
    report(9, ok, f"sum R^2 dev={ident_dev:.1e}, band entries={band_dev:.1e}, "
                  f"two-path={two_path:.1e}")


@pytest.mark.slow
def test_criterion_10_riesz_tent():
    from oscillet.harness import run_riesz_tent

    t0 = time.time()
    cfg = ExperimentConfig("riesz-tent", n=2, J_sweep=(5, 6, 7),
                           sp=SpaceParams(-0.2, 0.1, 2.0, 2.0), samples=10,
                           seed=42, time_nodes=128)
    rep = run_riesz_tent(cfg)["report"]
    dt, in_time = timed(t0, 300.0)
    growths = {k: round(float(v), 3) for k, v in rep["ratio_growth"].items()}
    ok = rep["passed"] and in_time
    report(10, ok, f"tent-part ratio growth {growths} time={dt:.0f}s")


@pytest.mark.slow
def test_criterion_11_embedding_bounds():
    from oscillet.harness import run_embeddings

    cfg = ExperimentConfig("embeddings", sp=SpaceParams(-0.2, 0.1, 2.0, 2.0),
                           J_sweep=(8, 9, 10), seed=42, time_nodes=192)
    rep = run_embeddings(cfg)["report"]
    ok = rep["passed"] and rep["control_flagged"]
    report(11, ok, f"high {rep['ratio_high_by_J']}, low {rep['ratio_low_by_J']}, "
                   f"control flagged={rep['control_flagged']}")


@pytest.mark.slow
def test_criterion_12_determinism(tmp_path):
    from oscillet.cli import main as cli_main

    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        cli_main(["verify", "--suite", "default", "--seed", "42",
                  "--out", str(out)])
        outs.append(out)
    a, b = outs
    same = True
    for name in sorted(p.name for p in a.iterdir()):
        if name == "digest.txt":
            la = [l for l in (a / name).read_text().splitlines()
                  if not l.startswith("#")]
            lb = [l for l in (b / name).read_text().splitlines()
                  if not l.startswith("#")]
            same = same and la == lb
        else:
            same = same and (a / name).read_bytes() == (b / name).read_bytes()
    report(12, same, "verify --suite default --seed 42 byte-identical "
                     "modulo digest metadata")
