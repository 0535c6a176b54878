"""Correctness check applied to every workload run.

A run fails if it raises (for verify-default, also if an experiment raised
inside `run_all`, which writes the exception into that report), writes a
non-finite number, or, for a seed with a shipped reference
(refs/<workload>.json, made by make_refs.py at the commit that defines
correct), differs from that reference:

- experiment workloads (osc-1d, heat-1d, riesz-2d): the report and the
  per-sample rows, every number to a relative tolerance of 1e-12 (the
  ROADMAP gate), everything else exactly;
- verify-default: every output file byte for byte, except the `#` metadata
  lines of digest.txt (criterion 12's rule), and the exit code.

The report's `passed` verdict is recorded for every run but is an output like
any other, pinned by the reference, not a failure by itself: at the seed
commit it depends on the seed at every affordable sample count (see
README.md), so requiring it would fail runs of an unchanged program.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

REL_TOL = 1e-12
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def _plain(obj):
    """numpy scalars and arrays to Python values, recursively."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    return obj


def canonical(result: dict) -> bytes:
    """Stable serialization of an experiment result, hashed into the record."""
    return json.dumps(_plain(result), sort_keys=True, separators=(",", ":")
                      ).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def nonfinite_paths(obj, path="$") -> list[str]:
    """JSON-style paths of every NaN or infinite number in `obj`."""
    out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            out += nonfinite_paths(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out += nonfinite_paths(v, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        out.append(path)
    return out


def mismatches(got, want, path="$", rel_tol=REL_TOL) -> list[str]:
    """Paths where `got` differs from `want`: numbers beyond rel_tol,
    anything else (keys, lengths, strings, bools, None) exactly."""
    if isinstance(want, bool) or isinstance(got, bool) or None in (got, want):
        return [] if type(got) is type(want) and got == want \
            else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if got == want or abs(got - want) <= rel_tol * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        out = []
        for k in sorted(want):
            out += mismatches(got[k], want[k], f"{path}.{k}", rel_tol)
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += mismatches(g, w, f"{path}[{i}]", rel_tol)
        return out
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def load_refs(workload: str) -> dict:
    path = os.path.join(REF_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def _digest_body(data: bytes) -> bytes:
    lines = data.decode().splitlines()
    return "\n".join(l for l in lines if not l.startswith("#")).encode()


def verify_fingerprint(collected: dict) -> dict:
    """Per-file sha256 of a verify out dir (digest.txt without its `#`
    metadata lines), the exit code and the suite verdict."""
    files = collected["files"]
    shas = {name: sha256(_digest_body(data) if name == "digest.txt" else data)
            for name, data in files.items()}
    summary = json.loads(files["summary.json"]) if "summary.json" in files \
        else {}
    return {"exit_code": collected["exit_code"], "files": shas,
            "suite_passed": summary.get("passed")}


def _csv_nonfinite(data: bytes) -> list[str]:
    bad = []
    for r, row in enumerate(csv.reader(io.StringIO(data.decode()))):
        for c, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                continue
            if not math.isfinite(v):
                bad.append(f"samples.csv[{r}][{c}]")
    return bad


def check(workload: str, seed: int, collected, refs: dict) -> dict:
    """Returns {"ok", "errors", "sha256", "verdict", "reference"}."""
    errors: list[str] = []
    ref = refs.get(str(seed))
    if workload == "verify-default":
        fp = verify_fingerprint(collected)
        for name, data in collected["files"].items():
            if name.endswith(".json"):
                errors += [f"{name}: non-finite {p}" for p in nonfinite_paths(
                    json.loads(data))]
            elif name.endswith(".csv"):
                errors += _csv_nonfinite(data)
        if "summary.json" not in collected["files"]:
            errors.append("summary.json missing")
        else:
            # run_all catches an experiment that raises and writes its
            # exception into the report; that experiment raised all the same
            experiments = json.loads(collected["files"]["summary.json"]
                                     ).get("experiments", {})
            errors += [f"experiment {label} raised: {rep['error']}"
                       for label, rep in experiments.items()
                       if "error" in rep]
        if ref is not None:
            if fp["exit_code"] != ref["exit_code"]:
                errors.append(f"exit code {fp['exit_code']} != reference "
                              f"{ref['exit_code']}")
            if set(fp["files"]) != set(ref["files"]):
                errors.append(f"output files {sorted(fp['files'])} != "
                              f"reference {sorted(ref['files'])}")
            for name in sorted(set(fp["files"]) & set(ref["files"])):
                if fp["files"][name] != ref["files"][name]:
                    errors.append(f"{name}: bytes differ from reference")
        return {"ok": not errors, "errors": errors[:20], "sha256": fp["files"],
                "verdict": fp["suite_passed"], "reference": ref is not None}

    result = _plain(collected)
    report = result["report"]
    errors += [f"non-finite {p}" for p in nonfinite_paths(result)]
    if ref is not None:
        errors += mismatches(result, ref)
    return {"ok": not errors, "errors": errors[:20],
            "sha256": {"result": sha256(canonical(result))},
            "verdict": report.get("passed"), "reference": ref is not None}
