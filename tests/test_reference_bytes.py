"""The default suite's output files against the benchmark's references.

`perfbench/refs/verify-default.json` pins the sha256 of every file that
`oscillet verify --suite default` writes (the digest without its `#`
metadata lines).  Checking seed 42 here makes a drift in any report bit a
test failure, not only a benchmark failure.
"""

import importlib.util
import os

from oscillet.cli import main as cli_main

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "check.py")


def _check():
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_default_is_byte_identical_to_the_references(tmp_path):
    check = _check()
    out = tmp_path / "verify"
    rc = cli_main(["verify", "--suite", "default", "--seed", "42",
                   "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    result = check.check("verify-default", 42, {"exit_code": rc, "files": files},
                         check.load_refs("verify-default"))
    assert result["reference"]
    assert result["ok"], result["errors"]
