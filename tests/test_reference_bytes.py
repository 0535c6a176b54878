"""Program outputs against the benchmark's references.

`perfbench/refs/verify-default.json` pins the sha256 of every file that
`oscillet verify --suite default` writes (the digest without its `#`
metadata lines).  Checking seeds 42 and 0-3 here makes a drift in any
report bit a test failure, not only a benchmark failure.  `perfbench/refs/heat-1d.json`
pins the heat-1d workload's report and rows (1e-12 relative); it runs the
1-d heat lift at J=11 and L=256, which the default suite does not.
`perfbench/refs/osc-1d.json` pins the osc-1d workload the same way, at
seeds 0-7 and 42; its oscillation norm at J 8-10 runs the largest cube
families of any workload.  `perfbench/refs/riesz-2d.json` pins the riesz-2d
workload at seed 42: the only 2-d tent parts and Riesz path any reference
covers.  Its seed 10 is a known mismatch, kept as a strict xfail.  The tests
read `perfbench/` and write nothing there.
"""

import importlib.util
import os
import sys

import pytest

from oscillet.cli import main as cli_main
from oscillet.harness import run_experiment

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")


def _load(name):
    """perfbench/<name>.py as a module, perfbench's own imports resolved."""
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


def _check():
    return _load("check")


def _check_verify(tmp_path, seed):
    check = _check()
    out = tmp_path / "verify"
    rc = cli_main(["verify", "--suite", "default", "--seed", str(seed),
                   "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    result = check.check("verify-default", seed,
                         {"exit_code": rc, "files": files},
                         check.load_refs("verify-default"))
    assert result["reference"]
    assert result["ok"], result["errors"]


def test_verify_default_is_byte_identical_to_the_references(tmp_path):
    _check_verify(tmp_path, 42)


@pytest.mark.parametrize("seed", range(4))
def test_verify_default_is_byte_identical_at_more_seeds(tmp_path, seed):
    # the pruned Morrey sups pick their exact pairs from the data
    _check_verify(tmp_path, seed)


def _check_experiment(workload, seed=42):
    """Run an experiment workload at `seed` and check it against its
    references."""
    check = _check()
    cfg = _load("workloads").experiment_config(workload, seed)
    result = check.check(workload, seed, run_experiment(cfg),
                         check.load_refs(workload))
    assert result["reference"]
    assert result["ok"], result["errors"]


def test_heat_1d_matches_the_references():
    _check_experiment("heat-1d")


def test_osc_1d_matches_the_references():
    _check_experiment("osc-1d")


@pytest.mark.parametrize("seed", range(8))
def test_osc_1d_matches_the_references_at_more_seeds(seed):
    # every input draws another argmax cube, which the pruned sup must find
    _check_experiment("osc-1d", seed)


def test_riesz_2d_matches_the_references():
    _check_experiment("riesz-2d")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ratio_growth.I reads 2.4e-12 relative off its reference, above the "
    "1e-12 gate, since the heat pipeline was batched over time nodes"))
def test_riesz_2d_seed_10_matches_the_references():
    _check_experiment("riesz-2d", 10)
