"""scipy is imported only where it runs: the calibration quadrature
(`semigroup.calibrate_family`) and the direct minimization of
`norms._refine_cube`.  Every command and experiment that never calibrates
stays free of it, and its import time with it."""

import json
import os
import subprocess
import sys

from oscillet.semigroup import calibrate_family

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

SCRIPT = """
import json, sys

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

seen = {}
import oscillet, oscillet.cli, oscillet.harness
seen["import"] = scipy_loaded()

import numpy as np
from oscillet.grid import GridFunction, GridSpec
from oscillet.harness import ExperimentConfig, run_experiment
from oscillet.wavelet import build_basis, coeff_field_to_json
run_experiment(ExperimentConfig("norm-equivalence", J_sweep=(5, 6), samples=1))
seen["norm-equivalence"] = scipy_loaded()

basis = build_basis("meyer", GridSpec(1, 6, 0))
f = GridFunction(basis.spec, np.random.default_rng(0).standard_normal(64))
with open("c.json", "w") as fh:
    fh.write(coeff_field_to_json(basis.analyze(f)))
rc = oscillet.cli.main(["norm", "--kind", "tlm", "--gamma1", "0.0",
                        "--gamma2", "0.3", "--p", "2", "--q", "2",
                        "--in", "c.json", "--report", "norm.json"])
assert rc == 0
seen["norm --kind tlm"] = scipy_loaded()

from oscillet.semigroup import calibrate_family
seen["C_beta"] = calibrate_family(1.0).C_beta.hex()
seen["calibrate_family"] = scipy_loaded()
print(json.dumps(seen))
"""


def test_scipy_loads_only_with_the_calibration(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert not seen["import"]
    assert not seen["norm-equivalence"]
    assert not seen["norm --kind tlm"]
    assert seen["calibrate_family"]
    assert seen["C_beta"] == calibrate_family(1.0).C_beta.hex()
