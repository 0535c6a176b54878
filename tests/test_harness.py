import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from oscillet.errors import ParameterError
from oscillet.grid import GridFunction, GridSpec
from oscillet.harness import (
    ExperimentConfig,
    TestFunctionSpec,
    default_suite,
    generate_test_function,
    run_all,
    run_embeddings,
    run_experiment,
)
from oscillet.norms import SpaceParams, tl_norm, tlm_wavelet_norm
from oscillet.cli import _config_from_values, _parse_config_file, main as cli_main


class TestGenerators:
    def test_polynomial_degree_zero(self, meyer1d):
        tfs = TestFunctionSpec("polynomial", {"degree": 0, "coeffs": [2.0]}, 0)
        f = generate_test_function(tfs, meyer1d)
        c = meyer1d.analyze(f)
        for arr in c.detail.values():
            assert np.max(np.abs(arr)) < 1e-10

    def test_deterministic(self, meyer1d):
        sp = SpaceParams(0.0, 0.3, 2.0, 2.0)
        tfs = TestFunctionSpec("random-coeff-in-ball", {"sp": sp}, seed=7)
        a = generate_test_function(tfs, meyer1d)
        b = generate_test_function(tfs, meyer1d)
        np.testing.assert_array_equal(a.data, b.data)

    def test_target_norm(self, meyer1d):
        sp = SpaceParams(0.1, 0.3, 2.0, 2.0)
        tfs = TestFunctionSpec("random-coeff-in-ball", {"sp": sp}, seed=3)
        f = generate_test_function(tfs, meyer1d)
        norm = tlm_wavelet_norm(meyer1d.analyze(f), sp)
        assert 0.99 <= norm <= 1.01

    def test_infeasible_polynomial_norm(self, meyer1d):
        tfs = TestFunctionSpec("polynomial", {"degree": 2, "target_norm": 1.0}, 0)
        with pytest.raises(ParameterError):
            generate_test_function(tfs, meyer1d)

    def test_other_kinds_band_limited(self, meyer1d):
        for kind, params in [("fourier-bump", {"center_freq": 20}),
                             ("smooth-bump", {"width": 0.07}),
                             ("adversarial-single-cube",
                              {"eps": (1,), "j": 4, "k": (3,)})]:
            f = generate_test_function(TestFunctionSpec(kind, params, 5), meyer1d)
            g = meyer1d.synthesize(meyer1d.analyze(f))
            from oscillet.grid import rel_l2_error
            assert rel_l2_error(g, f) < 1e-8


class TestNormEquivalencePieces:
    def test_collapse_ratio_exact(self, meyer1d):
        # gamma2 = n/p: the Morrey norm equals the plain norm on random fields
        sp = SpaceParams(0.1, 0.5, 2.0, 2.0)
        for seed in range(3):
            tfs = TestFunctionSpec("random-coeff-in-ball", {"sp": sp}, seed=seed)
            f = generate_test_function(tfs, meyer1d)
            c = meyer1d.analyze(f)
            assert tlm_wavelet_norm(c, sp) == tl_norm(c, 0.1, 2.0, 2.0)

    def test_polynomial_inputs_excluded(self, meyer1d):
        cfg = ExperimentConfig("norm-equivalence", J_sweep=(7,), samples=2,
                               seed=1)
        tfs = TestFunctionSpec("polynomial", {"degree": 0, "coeffs": [1.0]}, 0)
        f = generate_test_function(tfs, meyer1d)
        c = meyer1d.analyze(f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert tlm_wavelet_norm(c, cfg.sp) < 1e-10


@pytest.mark.parametrize("family, samples", [("meyer", 3), ("meyer", 2),
                                             ("daubechies", 2)])
def test_norm_equivalence_computes_each_oscillation_norm_once(
        monkeypatch, family, samples):
    # one oscillation call per family sweep evaluates every sample once; the
    # Meyer sweep also takes the negative control's samples the loop does
    # not run (its third at both endpoints, when samples < 3), and the
    # control reads the loop's floats; each (family, J) stacks its samples
    # for one TLM call, and the Meyer endpoints the control's three for one
    # more
    from oscillet import harness
    from oscillet.norms import CutoffFamily

    real = harness.oscillation_norm_report
    calls, tlm_rows = [], []

    def counting(fs_by_grid, *args, **kwargs):
        calls.append([g.spec.J for fs in fs_by_grid for g in fs])
        return real(fs_by_grid, *args, **kwargs)

    def counting_tlm(c, sp):
        tlm_rows.append((c.spec.J, c.batch_shape, sp.gamma1))
        return tlm_wavelet_norm(c, sp)

    cfg = ExperimentConfig("norm-equivalence", J_sweep=(6, 7, 8),
                           samples=samples, seed=5, family=family)
    monkeypatch.setattr(harness, "oscillation_norm_report", counting)
    monkeypatch.setattr(harness, "tlm_wavelet_norm", counting_tlm)
    out = harness.run_norm_equivalence(cfg)
    families = 1 if family == "meyer" else 2
    extra = 2 * (3 - samples)            # control samples at both endpoints
    assert len(calls) == families
    assert sum(map(len, calls)) == families * len(cfg.J_sweep) * samples + extra
    g1, g1_wrong = cfg.sp.gamma1, cfg.sp.gamma1 + 0.75
    assert tlm_rows == [(6, (3,), g1_wrong), (6, (samples,), g1),
                        (7, (samples,), g1),
                        (8, (3,), g1_wrong), (8, (samples,), g1)] \
        + [(J, (samples,), g1) for J in cfg.J_sweep] * (families - 1)
    # every row's wavelet norm is its sample's own, bit for bit
    bases = {(fam, J): basis for fam in ("meyer", family)
             for J, basis in harness._sweep(cfg, family=fam)}
    for row in out["rows"]:
        basis = bases[(row["family"], row["J"])]
        one = tlm_wavelet_norm(basis.analyze(harness._sample(cfg, basis, row["sample"])),
                               cfg.sp)
        assert row["wavelet"].hex() == one.hex()
    # the control against its inputs drawn and evaluated on their own
    m0 = out["report"]["moment_order"]
    sp_wrong = SpaceParams(cfg.sp.gamma1 + 0.75, cfg.sp.gamma2, cfg.sp.p,
                           cfg.sp.q)
    fresh = {}
    for J, basis in harness._sweep(cfg, endpoints=True):
        for s in range(3):
            f = harness._sample(cfg, basis, s)
            fresh[(J, s)] = (
                real(f, cfg.sp, CutoffFamily(n=cfg.n), m0, basis).value,
                tlm_wavelet_norm(basis.analyze(f), sp_wrong))
    assert out["report"]["negative_control"] == \
        harness._mismatched_smoothness_control(cfg, sp_wrong.gamma1, fresh)


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        ExperimentConfig("not-a-kind")


def test_run_all_empty(tmp_path):
    summary = run_all([], str(tmp_path))
    assert summary["passed"] is True
    assert summary["experiments"] == {}
    assert os.path.exists(tmp_path / "summary.json")


def test_run_all_isolates_failures(tmp_path):
    # an impossible configuration fails its own experiment, the summary
    # still gets written
    cfg = ExperimentConfig("semigroup-characterization",
                           sp=SpaceParams(0.5, 0.1, 2.0, 2.0),  # gamma1 > gamma2
                           J_sweep=(7,), samples=1, time_nodes=16)
    summary = run_all([cfg], str(tmp_path))
    rep = summary["experiments"]["semigroup-characterization"]
    assert not rep["passed"]
    assert "error" in rep


def test_run_all_writes_reports(tmp_path):
    cfg = ExperimentConfig("czo-boundedness", J_sweep=(7, 8), samples=3, seed=1)
    summary = run_all([cfg], str(tmp_path))
    assert (tmp_path / "report_czo-boundedness.json").exists()
    assert (tmp_path / "samples.csv").exists()
    assert (tmp_path / "digest.txt").exists()
    with open(tmp_path / "report_czo-boundedness.json") as fh:
        rep = json.load(fh)
    assert rep["kind"] == "czo-boundedness"


def test_czo_control_reuses_the_admissible_draws(tmp_path, monkeypatch):
    # both sweeps draw the same normals; the control reads them from the
    # admissible sweep's dict and seeds no generator for a sample, and the
    # reports are the bytes of two separate dicts
    from oscillet import harness

    cfg = ExperimentConfig("czo-boundedness", J_sweep=(6, 7), samples=2, seed=3)
    experiment = harness.czo_boundedness_experiment
    seeded = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        # sample draws are seeded per (level, type); matrix draws per block pair
        if isinstance(seed, np.random.SeedSequence) and len(seed.spawn_key) == 2:
            seeded[-1] += 1
        return default_rng(seed)

    def per_sweep(*args, **kwargs):
        seeded.append(0)
        return experiment(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(harness, "czo_boundedness_experiment", per_sweep)
    run_all([cfg], str(tmp_path / "shared"))
    assert seeded[0] > 0 and seeded[1] == 0

    def separate(*args, draws=None, **kwargs):
        return experiment(*args, draws={}, **kwargs)

    monkeypatch.setattr(harness, "czo_boundedness_experiment", separate)
    run_all([cfg], str(tmp_path / "separate"))
    for name in ("report_czo-boundedness.json", "samples.csv", "summary.json"):
        assert ((tmp_path / "shared" / name).read_bytes()
                == (tmp_path / "separate" / name).read_bytes()), name


def test_cli_verify_deterministic(tmp_path):
    # two runs of a one-experiment suite produce byte-identical reports;
    # only the digest metadata block may differ
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "kind = czo-boundedness\nJ_sweep = 7,8\nsamples = 3\nseed = 42\n"
        "gamma1 = 0.0\ngamma2 = 0.3\np = 2.0\nq = 2.0\n")
    for out in (out_a, out_b):
        rc = cli_main(["verify", "--config", str(cfg_path), "--seed", "42",
                       "--out", str(out)])
        assert rc in (0, 1)
    for name in ("report_czo-boundedness.json", "summary.json", "samples.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    da = [l for l in (out_a / "digest.txt").read_text().splitlines()
          if not l.startswith("#")]
    db = [l for l in (out_b / "digest.txt").read_text().splitlines()
          if not l.startswith("#")]
    assert da == db


def test_cli_config_template(tmp_path):
    path = tmp_path / "template.txt"
    rc = cli_main(["verify", "--write-config-template", str(path)])
    assert rc == 0
    text = path.read_text()
    assert "kind" in text and "seed" in text
    # every key the parser takes is in the template, at its default
    assert _config_from_values(_parse_config_file(str(path))) == \
        ExperimentConfig("norm-equivalence")


def test_cli_verify_seed_comes_from_the_file_unless_given(tmp_path):
    def samples_csv(seed_line, *seed_arg):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("kind = czo-boundedness\nJ_sweep = 6,7\n"
                            f"samples = 2\n{seed_line}")
        out = tmp_path / "out"
        cli_main(["verify", "--config", str(cfg_path), *seed_arg,
                  "--out", str(out)])
        return (out / "samples.csv").read_bytes()

    at_7 = samples_csv("seed = 7\n")
    assert at_7 != samples_csv("seed = 42\n")
    assert samples_csv("seed = 42\n", "--seed", "7") == at_7
    assert samples_csv("") == samples_csv("seed = 42\n")


@pytest.mark.parametrize("text, message", [
    ("kind = czo-boundedness\nsampels = 2\n", "unknown config key 'sampels'"),
    ("kind = czo-boundedness\ngamma1 = 0.5\n", "gamma2, p, q missing"),
    ("samples = 2\n", "'kind' is missing"),
    ("kind = czo-boundedness\nsamples = two\n", "'samples': cannot parse 'two'"),
    ("kind = czo-boundedness\nm0 = 2.5\n", "'m0': cannot parse"),
    ("kind = czo-boundedness\nsamples 2\n", "line 2: expected 'key = value'"),
    ("kind = riesz-tent\nsamples = 0\n", "samples must be at least 1, got 0"),
    ("kind = czo-boundedness\nJ_sweep = 7,7\n",
     "J_sweep must be a non-empty, strictly increasing list of levels, got (7, 7)"),
    ("kind = czo-boundedness\nJ_sweep = 9,8\n",
     "J_sweep must be a non-empty, strictly increasing list of levels, got (9, 8)"),
    ("kind = norm-equivalence\nm0 = -1\n", "m0 must be auto or at least 0, got -1"),
    ("kind = riesz-tent\nfamily = daubechies\n",
     "riesz-tent runs on the Meyer basis only; family 'daubechies' applies to "
     "norm-equivalence"),
], ids=["unknown-key", "partial-space-params", "no-kind", "samples-not-int",
        "m0-not-int", "no-equals-sign", "zero-samples", "repeated-J",
        "decreasing-J", "negative-m0", "non-meyer-family"])
def test_bad_config_files_are_rejected(tmp_path, text, message):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    with pytest.raises(ParameterError, match=re.escape(message)):
        _config_from_values(_parse_config_file(str(path)))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=re.escape(message)):
        cli_main(["verify", "--config", str(path), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("kind", ["semigroup-characterization", "riesz-tent"])
def test_a_run_without_samples_is_rejected(kind):
    # with no sample drawn, every per-J peak would stay 0 and the growth
    # gate would pass on nothing
    with pytest.raises(ParameterError, match="samples must be at least 1"):
        ExperimentConfig(kind, samples=0)


@pytest.mark.parametrize("kind", ["semigroup-characterization",
                                  "czo-boundedness", "riesz-tent",
                                  "decay-bounds", "embeddings"])
def test_a_non_meyer_family_is_rejected_outside_norm_equivalence(kind):
    # these kinds run on the Meyer basis whatever the family says; a
    # Daubechies config used to run Meyer and report as if nothing were amiss
    with pytest.raises(ParameterError, match="runs on the Meyer basis only"):
        ExperimentConfig(kind, n=2, J_sweep=(4, 5), samples=1, time_nodes=16,
                         family="daubechies",
                         sp=SpaceParams(-0.2, 0.1, 2.0, 2.0))
    ExperimentConfig(kind, family="meyer")


def test_an_empty_sweep_is_rejected():
    # a config file cannot name one: an empty J_sweep does not parse
    with pytest.raises(ParameterError, match="J_sweep must be a non-empty"):
        ExperimentConfig("norm-equivalence", J_sweep=())


def test_cli_osc_norm_rejects_a_negative_moment_order(tmp_path, meyer1d):
    cpath = tmp_path / "c.json"
    from oscillet.wavelet import coeff_field_to_json
    cpath.write_text(coeff_field_to_json(meyer1d.analyze(
        GridFunction(meyer1d.spec, np.ones(meyer1d.spec.shape)))))
    # one line on exit, as `verify --config` gives, not a traceback
    with pytest.raises(SystemExit,
                       match="^oscillet norm: moment order m0 must be at least "
                             "0, got -1$"):
        cli_main(["norm", "--kind", "osc", "--m0", "-1", "--gamma1", "0.0",
                  "--gamma2", "0.3", "--p", "2", "--q", "2", "--in", str(cpath)])


def test_cli_tl_norm_rejects_a_nonfinite_coefficient(tmp_path, meyer1d):
    # one line on exit, not "value": NaN and exit 0; the JSON reader
    # rejects the coefficient before any norm sees it
    from oscillet.wavelet import coeff_field_to_json
    c = meyer1d.analyze(GridFunction(meyer1d.spec, np.ones(meyer1d.spec.shape)))
    c.detail[((1,), 3)][2] = np.nan
    cpath = tmp_path / "c.json"
    cpath.write_text(coeff_field_to_json(c))
    report = tmp_path / "norm.json"
    with pytest.raises(SystemExit,
                       match=r"^oscillet norm: non-finite coefficient \(nan\+0j\) "
                             r"at WaveletIndex\(eps=\(1,\), j=3, k=\(2,\)\)$"):
        cli_main(["norm", "--kind", "tl", "--gamma1", "0.0", "--gamma2", "0.3",
                  "--p", "2", "--q", "2", "--in", str(cpath),
                  "--report", str(report)])
    assert not report.exists()


def test_cli_norm_rejects_a_file_with_a_bad_header(tmp_path, meyer1d):
    # a grid-function file read as a coefficient field: the reader rejects
    # its header, and the command exits with that one line
    from oscillet.grid import write_grid_function
    path = tmp_path / "f.bin"
    write_grid_function(GridFunction.zeros(meyer1d.spec), str(path))
    with pytest.raises(SystemExit,
                       match=r"^oscillet norm: unsupported header: .*\(expected "
                             r"\(2, 3\)\)"):
        cli_main(["norm", "--kind", "tlm", "--gamma1", "0.0", "--gamma2", "0.3",
                  "--p", "2", "--q", "2", "--in", str(path)])


@pytest.mark.parametrize("kind", ["tl", "tlm", "osc"])
def test_cli_norm_rejects_a_time_field(tmp_path, meyer1d, kind):
    # the one stack a coefficient file holds; one line on exit, not a
    # traceback from a report built for one value
    from oscillet.semigroup import SemigroupSpec, default_time_grid, evolve_coefficients
    from oscillet.wavelet import write_coeff_field
    f = GridFunction(meyer1d.spec, np.ones(meyer1d.spec.shape))
    tcf = evolve_coefficients(SemigroupSpec(1.0, meyer1d.spec), meyer1d, f,
                              default_time_grid(meyer1d.spec, 1.0, L=4))
    path = tmp_path / "t.bin"
    write_coeff_field(tcf, str(path))
    with pytest.raises(SystemExit,
                       match="^oscillet norm: a norm takes a single field, "
                             "not a time field$"):
        cli_main(["norm", "--kind", kind, "--gamma1", "0.0", "--gamma2", "0.3",
                  "--p", "2", "--q", "2", "--in", str(path)])


def test_czo_boundedness_rejects_an_unknown_profile():
    # as every other experiment does: the profile reaches its Meyer bases
    cfg = ExperimentConfig("czo-boundedness", J_sweep=(6, 7), samples=2,
                           profile="nonexistent-profile")
    with pytest.raises(ParameterError, match="unknown profile"):
        run_experiment(cfg)


@pytest.mark.parametrize("kind", ["norm-equivalence", "czo-boundedness"])
def test_experiments_without_a_heat_lift_ignore_beta(kind):
    # neither builds a semigroup or a time grid, so beta and time_nodes are
    # never read, let alone validated
    cfg = ExperimentConfig(kind, J_sweep=(5, 6), samples=1, beta=-1.0,
                           time_nodes=0)
    assert run_experiment(cfg)["report"]["kind"] == kind


def test_run_experiment_is_the_one_place_that_mutes_warnings():
    # the embeddings control's growing profile warns (tent-to-Bloch bound
    # violated); run_experiment mutes it and restores the caller's filters
    cfg = ExperimentConfig("embeddings", sp=SpaceParams(-0.2, 0.1, 2.0, 2.0),
                           J_sweep=(5, 6), time_nodes=32)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_embeddings(cfg)
        assert caught
        del caught[:]
        filters = list(warnings.filters)
        run_experiment(cfg)
        assert list(warnings.filters) == filters
    assert caught == []


def test_cli_transform_norm_pipeline(tmp_path, rng):
    from oscillet.grid import write_grid_function
    spec = GridSpec(1, 7, 0)
    from oscillet.wavelet import build_basis
    basis = build_basis("meyer", spec)
    f = basis.band_limit(GridFunction(spec, rng.standard_normal(spec.shape)))
    fpath = tmp_path / "f.bin"
    write_grid_function(f, str(fpath))
    cpath = tmp_path / "c.json"
    assert cli_main(["transform", "--family", "meyer", "--in", str(fpath),
                     "--out", str(cpath)]) == 0
    rpath = tmp_path / "norm.json"
    assert cli_main(["norm", "--kind", "tlm", "--gamma1", "0.0",
                     "--gamma2", "0.3", "--p", "2", "--q", "2",
                     "--in", str(cpath), "--report", str(rpath)]) == 0
    with open(rpath) as fh:
        rep = json.load(fh)
    assert rep["value"] > 0
    # inverse transform recovers what was analyzed
    back_path = tmp_path / "back.bin"
    assert cli_main(["transform", "--inverse", "--in", str(cpath),
                     "--out", str(back_path)]) == 0
    from oscillet.grid import read_grid_function, rel_l2_error
    back = read_grid_function(str(back_path))
    assert rel_l2_error(back, f) < 1e-8


def test_cli_semigroup_reconstruct_tent(tmp_path, rng):
    from oscillet.grid import read_grid_function, rel_l2_error, write_grid_function
    from oscillet.wavelet import build_basis
    spec = GridSpec(1, 7, 0)
    basis = build_basis("meyer", spec)
    c = basis.analyze(basis.band_limit(
        GridFunction(spec, rng.standard_normal(spec.shape))))
    c.scaling[:] = 0.0
    f = basis.synthesize(c)
    fpath, tpath = tmp_path / "f.bin", tmp_path / "tcf.bin"
    write_grid_function(f, str(fpath))
    assert cli_main(["semigroup", "--beta", "1.0", "--L", "256",
                     "--in", str(fpath), "--out", str(tpath)]) == 0
    rec_path = tmp_path / "rec.bin"
    rep_path = tmp_path / "rec.json"
    assert cli_main(["reconstruct", "--in", str(tpath), "--out", str(rec_path),
                     "--report", str(rep_path)]) == 0
    rec = read_grid_function(str(rec_path))
    assert rel_l2_error(rec, f) < 1e-3
    tent_path = tmp_path / "tent.json"
    assert cli_main(["tent", "--gamma1", "-0.2", "--gamma2", "0.1",
                     "--p", "2", "--q", "2", "--m", "3", "--mprime", "1",
                     "--beta", "1.0", "--in", str(tpath),
                     "--report", str(tent_path)]) == 0
    with open(tent_path) as fh:
        rep = json.load(fh)
    assert rep["combined"] > 0


def test_cli_tent_takes_beta_from_the_file(tmp_path, rng):
    from oscillet.grid import write_grid_function
    from oscillet.wavelet import build_basis, read_coeff_field, write_coeff_field
    spec = GridSpec(1, 6, 0)
    basis = build_basis("meyer", spec)
    fpath, tpath = tmp_path / "f.bin", tmp_path / "tcf.bin"
    write_grid_function(basis.band_limit(
        GridFunction(spec, rng.standard_normal(spec.shape))), str(fpath))
    assert cli_main(["semigroup", "--beta", "0.75", "--L", "32",
                     "--in", str(fpath), "--out", str(tpath)]) == 0

    def parts(path, *beta):
        out = tmp_path / "tent.json"
        assert cli_main(["tent", "--gamma1", "-0.2", "--gamma2", "0.1",
                         "--p", "2", "--q", "2", "--m", "3", "--mprime", "1",
                         *beta, "--in", str(path), "--report", str(out)]) == 0
        with open(out) as fh:
            return json.load(fh)["values"]

    assert parts(tpath) == parts(tpath, "--beta", "0.75")
    with pytest.raises(SystemExit, match="beta"):
        parts(tpath, "--beta", "1.0")
    # a file without beta falls back to 1.0, which gives other parts
    untagged = read_coeff_field(str(tpath))
    untagged.beta = None
    upath = tmp_path / "untagged.bin"
    write_coeff_field(untagged, str(upath))
    assert parts(upath) == parts(upath, "--beta", "1.0") != parts(tpath)


def test_default_suite_covers_all_kinds():
    from oscillet.harness import EXPERIMENT_KINDS
    kinds = [cfg.kind for cfg in default_suite()]
    assert sorted(kinds) == sorted(EXPERIMENT_KINDS)


def test_cli_czo_gen_and_apply(tmp_path, rng):
    from oscillet.wavelet import build_basis
    from oscillet.operators import read_matrix_jsonl, validate_decay

    mpath = tmp_path / "mat.jsonl"
    assert cli_main(["czo", "--gen", "--J", "8", "--N0", "4.0",
                     "--seed", "7", "--out", str(mpath)]) == 0
    mat = read_matrix_jsonl(str(mpath))
    assert validate_decay(mat).ok

    spec = GridSpec(1, 8, 0)
    basis = build_basis("meyer", spec)
    f = basis.band_limit(GridFunction(spec, rng.standard_normal(spec.shape)))
    from oscillet.wavelet import coeff_field_to_json
    cpath = tmp_path / "c.json"
    cpath.write_text(coeff_field_to_json(basis.analyze(f)))
    opath = tmp_path / "out.json"
    assert cli_main(["czo", "--apply", "--matrix", str(mpath),
                     "--in", str(cpath), "--out", str(opath)]) == 0
    assert opath.exists()


def test_cli_riesz(tmp_path, rng):
    from oscillet.grid import read_grid_function, write_grid_function
    spec = GridSpec(1, 6, 0)
    x = spec.meshgrid()[0]
    f = GridFunction(spec, np.cos(2 * np.pi * x))
    fpath, opath = tmp_path / "f.bin", tmp_path / "g.bin"
    write_grid_function(f, str(fpath))
    assert cli_main(["riesz", "--l", "1", "--in", str(fpath),
                     "--out", str(opath)]) == 0
    g = read_grid_function(str(opath))
    np.testing.assert_allclose(g.data.real, np.sin(2 * np.pi * x), atol=1e-12)


# -- sweep invariants built once: the runners against the per-sample paths ----

def test_riesz_tent_one_matrix_per_J_matches_one_per_sample():
    from oscillet import harness
    from oscillet.operators import riesz_matrix, riesz_tent_experiment
    from oscillet.tent import tent_norms

    cfg = ExperimentConfig("riesz-tent", n=2, J_sweep=(4, 5), samples=2,
                           time_nodes=16, sp=SpaceParams(-0.2, 0.1, 2.0, 2.0))
    tp, tg = cfg.tent_params(), harness._time_grid(cfg)
    want_rows, want_boost = [], {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = run_experiment(cfg)
        for J, basis in harness._sweep(cfg):
            for s in range(cfg.samples):
                tcf = harness._lift(basis, harness._sample(cfg, basis, s), tg,
                                    cfg.beta)
                result = riesz_tent_experiment(tcf, tp, riesz_matrix(basis, 1))
                want_rows.append([result["ratios"][name] for name in harness.PARTS]
                                 + [result["cross_part_iii"]])
        # the control as a run of its own: sample 0 lifted again and both
        # tent norms evaluated again
        for J, basis in harness._sweep(cfg, endpoints=True):
            tcf = harness._lift(basis, harness._sample(cfg, basis), tg, cfg.beta)
            boosted = tcf.map_detail(lambda eps, j, block: block * 2.0 ** (j / 2.0))
            want_boost[str(J)] = (tent_norms(boosted, tp).combined
                                  / tent_norms(tcf, tp).combined)
    got_rows = [[row[f"ratio_{name}"] for name in harness.PARTS]
                + [row["cross_part_iii"]] for row in got["rows"]]
    np.testing.assert_array_equal(np.array(got_rows, dtype=float),
                                  np.array(want_rows, dtype=float))
    assert list(got["report"]["negative_control"]["ratio_by_J"]) == ["4", "5"]
    np.testing.assert_array_equal(
        [got["report"]["negative_control"]["ratio_by_J"][J] for J in ("4", "5")],
        [want_boost[J] for J in ("4", "5")])


def test_heat_controls_on_the_loop_lifts_match_their_own_lifts():
    from dataclasses import replace

    from oscillet import harness
    from oscillet.grid import rel_l2_error
    from oscillet.semigroup import (
        calibrate_family,
        check_decay_bounds,
        pi_phi_report,
    )

    sp = SpaceParams(-0.2, 0.1, 2.0, 2.0)
    semi = ExperimentConfig("semigroup-characterization", J_sweep=(6, 7),
                            samples=2, time_nodes=32, sp=sp)
    decay = ExperimentConfig("decay-bounds", J_sweep=(6, 7), time_nodes=32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got_semi = run_experiment(semi)["report"]["negative_control"]
        got_decay = run_experiment(decay)["report"]["negative_control"]
        # the miscalibrated reconstruction with its own lift, family and table
        J0, basis = next(harness._sweep(semi))
        f = harness._sample(semi, basis)
        tg = harness._time_grid(semi)
        tcf = harness._lift(basis, f, tg, semi.beta)
        fam = calibrate_family(semi.beta)
        bad = replace(fam, C_beta=1.5 * fam.C_beta, _tables={})
        rec, _ = pi_phi_report(bad, basis, tcf)
        # the misattributed decay with its own basis and lift
        J0, basis = next(harness._sweep(decay))
        j_star = max(0, (min(decay.J_sweep) - 2) // 2)
        k_true = 3 % (1 << j_star)
        k_wrong = (k_true + (1 << j_star) // 2) % (1 << j_star)
        c_true = harness._one_coefficient(basis, j_star, (k_true,))
        c_wrong = harness._one_coefficient(basis, j_star, (k_wrong,))
        lift = harness._lift(basis, basis.synthesize(c_true),
                             harness._time_grid(decay), decay.beta)
        blowup = (check_decay_bounds(lift, c_wrong, N=4.0).max_r2
                  / check_decay_bounds(lift, c_true, N=4.0).max_r2)
    assert got_semi["residual"] == rel_l2_error(rec, f)
    assert got_decay["blowup"] == blowup


def test_decay_bounds_build_one_denominator_set_per_variant_and_J(monkeypatch):
    """The report with one coupling_denominators per (variant, J), built by
    the harness and shared by the betas, and one kernel matrix per level
    pair, shared by every set, equals the report whose every check builds
    its own."""
    from oscillet import harness, semigroup

    cfg = ExperimentConfig("decay-bounds", J_sweep=(6, 7), time_nodes=32)
    builds, own_builds, checks, kernels = [], [], [], []
    build = semigroup.coupling_denominators
    check = harness.check_decay_bounds
    kernel = semigroup.cross_level_kernel_matrix

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    def counting_own_build(*args, **kwargs):
        own_builds.append(args)
        return build(*args, **kwargs)

    def counting_kernel(spec, j, j_prime, N):
        kernels.append((spec.n, j, j_prime, N))
        return kernel(spec, j, j_prime, N)

    def counting_check(*args, **kwargs):
        checks.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(harness, "coupling_denominators", counting_build)
    monkeypatch.setattr(semigroup, "coupling_denominators", counting_own_build)
    monkeypatch.setattr(harness, "check_decay_bounds", counting_check)
    monkeypatch.setattr(semigroup, "cross_level_kernel_matrix", counting_kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = run_experiment(cfg)
        # 2 betas x 3 variants x 2 J, plus the control
        assert len(checks) == 13
        # 3 variants x 2 J, plus the control's own initial data
        assert len(builds) == 7 and not own_builds
        # each pair of levels 0..5 at most 3 apart, once
        assert sorted(kernels) == [(1, j, jp, 4.0) for j in range(6)
                                   for jp in range(6) if abs(j - jp) <= 3]
        monkeypatch.setattr(harness, "check_decay_bounds",
                            lambda *args, denominators=None, **kwargs:
                            check(*args, **kwargs))
        want = run_experiment(cfg)
    assert len(own_builds) == 13
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("defect", ["matrix", "coefficient"])
def test_cli_bad_input_exits_with_one_line(tmp_path, meyer1d, defect):
    # a malformed matrix for `czo --apply` and a NaN coefficient for
    # `transform --inverse`: exit status 1, one line on stderr, no traceback
    from oscillet.operators import (CzoGeneratorParams, generate_random_czo,
                                    write_matrix_jsonl)
    from oscillet.wavelet import coeff_field_to_json

    c = meyer1d.analyze(GridFunction(meyer1d.spec, np.ones(meyer1d.spec.shape)))
    if defect == "coefficient":
        c.detail[((1,), 3)][2] = np.nan
    cpath = tmp_path / "c.json"
    cpath.write_text(coeff_field_to_json(c))
    if defect == "matrix":
        mpath = tmp_path / "m.jsonl"
        write_matrix_jsonl(generate_random_czo(
            meyer1d.spec, 0, 5, CzoGeneratorParams(N0=4.0, C=0.5), seed=8),
            str(mpath))
        lines = mpath.read_text().splitlines()
        mpath.write_text("\n".join(lines + [lines[-1]]) + "\n")   # a duplicate
        argv = ["czo", "--apply", "--matrix", str(mpath), "--in", str(cpath),
                "--out", str(tmp_path / "out.json")]
    else:
        argv = ["transform", "--inverse", "--in", str(cpath),
                "--out", str(tmp_path / "out.bin")]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "oscillet.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(f"oscillet {argv[0]}: ")
    assert "Traceback" not in done.stderr
    assert not any(tmp_path.glob("out.*"))
