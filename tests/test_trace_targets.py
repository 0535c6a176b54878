"""The benchmark's tracer wraps named entry points of the library; a rename
must fail here, not only in a benchmark run."""

import importlib.util
import os

from oscillet.harness import ExperimentConfig, run_experiment

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    _tracer().check_targets()


def test_harness_inputs_go_through_generate_test_function():
    tracer = _tracer()
    cfg = ExperimentConfig("norm-equivalence", J_sweep=(5, 6), samples=1)
    with tracer.installed(tracer.Tracer()) as t:
        run_experiment(cfg)
    # one input per (J, sample) of the loop, plus the control's samples 1
    # and 2 at both endpoints
    assert t.stats["harness.generate_input"][0] == 2 * 1 + 2 * 3
    assert t.stats["norms.oscillation"][0] == 2 * 1 + 2 * 2


def test_norm_equivalence_solves_each_moment_system_once_per_sweep_point():
    # one oscillation call per (family, J) takes every sample, so the moment
    # systems do not grow with the sample count; from three samples on, the
    # negative control has every sample it needs and evaluates none itself
    tracer = _tracer()
    counts = {}
    for samples in (3, 5):
        cfg = ExperimentConfig("norm-equivalence", J_sweep=(5, 6),
                               samples=samples)
        with tracer.installed(tracer.Tracer()) as t:
            run_experiment(cfg)
        assert t.stats["norms.oscillation"][0] == 2
        counts[samples] = t.stats["norms.moment_solve"][0]
    assert counts[3] == counts[5] > 0


def test_heat_experiments_build_each_sweep_invariant_once(monkeypatch):
    # one Riesz matrix per J; one lift per (J, sample), the negative
    # controls reusing the loop's; one multiplier table per (J, time grid)
    from oscillet.norms import SpaceParams
    from oscillet.semigroup import CalibratedFamily

    tracer = _tracer()
    sp = SpaceParams(-0.2, 0.1, 2.0, 2.0)
    tables = []
    radial = CalibratedFamily.radial
    monkeypatch.setattr(CalibratedFamily, "radial",
                        lambda fam, r: tables.append(r.shape) or radial(fam, r))
    for samples in (2, 3):
        riesz = ExperimentConfig("riesz-tent", n=2, J_sweep=(4, 5),
                                 samples=samples, time_nodes=16, sp=sp)
        with tracer.installed(tracer.Tracer()) as t:
            run_experiment(riesz)
        assert t.stats["operators.riesz_matrix"][0] == 2
        assert t.stats["semigroup.evolve"][0] == 2 * samples
        assert t.stats["tent.norms"][0] == 2 * 2 * samples + 2

        semi = ExperimentConfig("semigroup-characterization", J_sweep=(6, 7),
                                samples=samples, time_nodes=32, sp=sp)
        del tables[:]
        with tracer.installed(tracer.Tracer()) as t:
            run_experiment(semi)
        assert t.stats["semigroup.evolve"][0] == 2 * samples
        # the samples, the surjectivity probe of each J and the control
        assert t.stats["semigroup.reconstruct"][0] == 2 * samples + 2 + 1
        assert len(tables) == 2
