"""scipy is imported only where it runs: the direct minimization of
`norms._refine_cube` (`oscillation_norm_report(..., refine=True)`).  The
calibration quadrature (`semigroup.calibrate_family`) runs the QUADPACK port
of `oscillet._quadpack`, so every command and experiment, `verify` and
`reconstruct` included, stays free of scipy and its import time."""

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
from oscillet.grid import GridFunction, GridSpec, write_grid_function
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

# the verify command on the experiment that calibrates
with open("cfg.txt", "w") as fh:
    fh.write("kind = semigroup-characterization\\nJ_sweep = 6,7\\n"
             "gamma1 = -0.2\\ngamma2 = 0.1\\np = 2.0\\nq = 2.0\\n"
             "samples = 1\\ntime_nodes = 32\\n")
oscillet.cli.main(["verify", "--config", "cfg.txt", "--out", "reports"])
with open("reports/report_semigroup-characterization.json") as fh:
    assert "error" not in json.load(fh)
seen["verify"] = scipy_loaded()

write_grid_function(f, "f.bin")
assert oscillet.cli.main(["semigroup", "--L", "16", "--in", "f.bin",
                          "--out", "t.bin"]) == 0
assert oscillet.cli.main(["reconstruct", "--in", "t.bin", "--out", "r.bin",
                          "--report", "rec.json"]) == 0
seen["reconstruct"] = scipy_loaded()

from oscillet.norms import CutoffFamily, SpaceParams, oscillation_norm_report
rep = oscillation_norm_report(basis.synthesize(basis.analyze(f)),
                              SpaceParams(0.0, 0.3, 2.0, 2.0),
                              CutoffFamily(n=1), 1, basis, refine=True)
assert rep.refined_value is not None
seen["refine"] = scipy_loaded()
print(json.dumps(seen))
"""


def test_scipy_loads_only_with_the_refinement(tmp_path):
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
    assert not seen["calibrate_family"]
    assert seen["C_beta"] == calibrate_family(1.0).C_beta.hex()
    assert not seen["verify"]
    assert not seen["reconstruct"]
    assert seen["refine"]
