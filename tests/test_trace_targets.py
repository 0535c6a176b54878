"""The benchmark's tracer wraps named entry points of the library; a rename
must fail here, not only in a benchmark run."""

import importlib.util
import itertools
import os

import numpy as np

from oscillet.grid import GridSpec, enumerate_cubes
from oscillet.harness import ExperimentConfig, run_experiment
from oscillet.norms import CutoffFamily

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
    # the control's three samples at both endpoints, sample 0 among them,
    # drawn once by the sweep; one oscillation call takes them all
    assert t.stats["harness.generate_input"][0] == 2 * 3
    assert t.stats["norms.oscillation"][0] == 1


def _distinct_charts(cfg) -> int:
    """The distinct chart coordinates u = (x - x_Q)/r of every cube of a
    sweep, from the definition."""
    cutoff = CutoffFamily(n=cfg.n)
    charts = set()
    for J in cfg.J_sweep:
        spec = GridSpec(n=cfg.n, J=J, j_min=cfg.j_min)
        N = spec.samples_per_axis
        for cube in enumerate_cubes(spec, spec.j_min, J - 1):
            R = cutoff.support_radius * cube.side
            axes = []
            for c in cube.center:
                lo = max(0, int(np.floor((c - R) * N)))
                hi = min(N, int(np.ceil((c + R) * N)) + 1)
                axes.append(((np.arange(lo, hi) / N - c) / cube.side).tobytes())
            charts.add(tuple(axes))
    return len(charts)


def test_norm_equivalence_solves_each_moment_system_once_per_sweep_point():
    # one oscillation call per family sweep takes every sample of every J,
    # so the moment systems grow with neither the sample count nor the
    # sweep: one solve per distinct chart of the sweep; from three samples
    # on, every input is drawn once per (J, sample)
    tracer = _tracer()
    shapes = ((1, (5, 6, 7)), (2, (3, 4)))
    for (n, J_sweep), family, samples in itertools.product(
            shapes, ("meyer", "daubechies"), (3, 5)):
        cfg = ExperimentConfig("norm-equivalence", n=n, J_sweep=J_sweep,
                               samples=samples, family=family)
        with tracer.installed(tracer.Tracer()) as t:
            run_experiment(cfg)
        families = 1 if family == "meyer" else 2
        charts = _distinct_charts(cfg)
        assert charts < sum((1 << (n * J)) - 1 for J in J_sweep)
        assert t.stats["norms.oscillation"][0] == families
        assert t.stats["norms.moment_solve"][0] == families * charts
        assert t.stats["harness.generate_input"][0] == \
            families * len(J_sweep) * samples


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
