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
