"""The benchmark workloads and the spans each one must (and must not) fire.

A workload turns a seed into one call into the program: an experiment config
for `oscillet.harness.run_experiment`, or an argv for `oscillet.cli.main`.
BENCHMARK.json lists the ones the benchmark measures; riesz-2d is defined
here for runs by name (README.md says why it is not listed).
Nothing here imports oscillet at module level, so the parent process can
list workloads without paying the import.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile

from tracer import SPANS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")   # records, temp outputs
# BLAS/OpenMP pools read these at load time, so they are set before numpy is
# imported (in the environment of every process the benchmark starts).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1

# Sample counts per experiment workload.  The J sweeps, time nodes and space
# parameters are the acceptance-criterion shapes (crit 03, 08, 10); only the
# sample count is shortened.  The report's verdict at these counts depends on
# the seed (README.md lists the failing seeds); the references pin it.
OSC_SAMPLES = 3
HEAT_SAMPLES = 5
RIESZ_SAMPLES = 10

NAMES = ("osc-1d", "heat-1d", "riesz-2d", "verify-default")

# Spans a workload must fire.  Every span not listed is predicted not to fire
# on the three experiment workloads (the "bypass" side of each layer);
# verify-default fires every span.
MUST_FIRE = {
    "osc-1d": {
        "wavelet.build_basis", "wavelet.meyer.analyze",
        "wavelet.meyer.synthesize", "norms.oscillation", "norms.tl",
        "norms.moment_solve", "norms.tlm", "harness.generate_input",
    },
    "heat-1d": {
        "wavelet.build_basis", "wavelet.meyer.analyze",
        "wavelet.meyer.synthesize", "norms.tlm", "semigroup.evolve",
        "semigroup.reconstruct", "semigroup.calibrate", "tent.norms",
        "harness.generate_input",
    },
    "riesz-2d": {
        "wavelet.build_basis", "wavelet.meyer.synthesize", "norms.tlm",
        "semigroup.evolve", "tent.norms", "operators.riesz_matrix",
        "operators.apply_time", "operators.validate_decay",
        "harness.generate_input",
    },
    "verify-default": set(SPANS),
}


def parse_seeds(tokens) -> list[int]:
    """["0-3", "42"] -> [0, 1, 2, 3, 42]"""
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def thread_env(env: dict) -> dict:
    """`env` with the BLAS thread cap applied (1, below nproc on any host:
    one closed-loop caller, so no pool threads contend with it)."""
    return {**env, **{v: str(BLAS_THREADS) for v in THREAD_VARS}}


def use_checkout_src():
    """Import oscillet from this checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "oscillet", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} not found; run from a checkout "
                         "of the repository")
    sys.path.insert(0, SRC)
    import oscillet

    if os.path.abspath(oscillet.__file__) != init:
        raise SystemExit(f"perfbench: imported oscillet from "
                         f"{oscillet.__file__}, not {init}")
    return oscillet


def experiment_config(name: str, seed: int):
    from oscillet.harness import ExperimentConfig
    from oscillet.norms import SpaceParams

    if name == "osc-1d":
        return ExperimentConfig(
            "norm-equivalence", n=1, family="meyer",
            sp=SpaceParams(0.0, 0.3, 2.0, 2.0), J_sweep=(8, 9, 10),
            samples=OSC_SAMPLES, seed=seed)
    if name == "heat-1d":
        return ExperimentConfig(
            "semigroup-characterization", n=1,
            sp=SpaceParams(-0.2, 0.1, 2.0, 2.0), J_sweep=(9, 10, 11),
            m=3.0, m_prime=1.0, beta=1.0, time_nodes=256,
            samples=HEAT_SAMPLES, seed=seed)
    if name == "riesz-2d":
        return ExperimentConfig(
            "riesz-tent", n=2, sp=SpaceParams(-0.2, 0.1, 2.0, 2.0),
            J_sweep=(5, 6, 7), time_nodes=128, samples=RIESZ_SAMPLES,
            seed=seed)
    raise KeyError(name)


class Workload:
    """One prepared workload: `call()` is the timed region, `collect()`
    returns what the correctness check reads, `cleanup()` removes files."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.result = None
        self.out_dir = None
        if name == "verify-default":
            from oscillet import cli

            self._main = cli.main
            self.cfg = None
        else:
            from oscillet import harness

            self._run = harness.run_experiment
            self.cfg = experiment_config(name, seed)

    def call(self):
        if self.cfg is not None:
            self.result = self._run(self.cfg)
            return
        os.makedirs(RESULTS, exist_ok=True)
        self.out_dir = tempfile.mkdtemp(prefix="verify-", dir=RESULTS)
        argv = ["verify", "--suite", "default", "--seed", str(self.seed),
                "--out", self.out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            self.result = self._main(argv)

    def collect(self) -> dict:
        """Experiment workloads: {"report", "rows"}.  verify-default: the
        exit code and every output file's bytes."""
        if self.cfg is not None:
            return self.result
        files = {}
        for fname in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, fname), "rb") as fh:
                files[fname] = fh.read()
        return {"exit_code": self.result, "files": files}

    def cleanup(self):
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            self.out_dir = None
        self.result = None
