"""Smoke test of the benchmark itself (about four minutes on two cores):

    python3 perfbench/selftest.py

1. The correctness check rejects what it must: a perturbed number, a
   non-finite value, a flipped verdict, a changed verify output file.
2. The tracer fails loudly on a missing target and restores every binding.
3. Each workload runs at minimal length (`--seconds 1`) traced, heat-1d also
   untraced: correct, no failed run, every check against a shipped
   reference, every span the workload must call fires, no span it must
   bypass fires, and unattributed time stays under 5% of the traced wall.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 42
UNATTRIBUTED_PCT_LIMIT = 5.0


def expect(cond: bool, what: str):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        raise SystemExit(1)


def check_the_checker():
    refs = check.load_refs("heat-1d")
    ref = refs[str(SEED)]
    expect(check.check("heat-1d", SEED, copy.deepcopy(ref), refs)["ok"],
           "reference result passes its own check")
    bad = copy.deepcopy(ref)
    bad["report"]["residual_max"] *= 1.0 + 1e-9
    expect(not check.check("heat-1d", SEED, bad, refs)["ok"],
           "a 1e-9 relative change fails the reference comparison")
    close = copy.deepcopy(ref)
    close["report"]["residual_max"] *= 1.0 + 1e-14
    expect(check.check("heat-1d", SEED, close, refs)["ok"],
           "a 1e-14 relative change is within tolerance")
    bad = copy.deepcopy(ref)
    bad["rows"][0]["combined"] = float("nan")
    expect(not check.check("heat-1d", SEED, bad, {})["ok"],
           "a NaN fails the finiteness check without a reference")
    bad = copy.deepcopy(ref)
    bad["report"]["passed"] = False
    expect(not check.check("heat-1d", SEED, bad, refs)["ok"],
           "a flipped verdict fails the reference comparison")
    vrefs = check.load_refs("verify-default")
    files = {name: b"{}" for name in vrefs[str(SEED)]["files"]}
    files["summary.json"] = b'{"passed": true}'
    expect(not check.check("verify-default", SEED,
                           {"exit_code": 0, "files": files}, vrefs)["ok"],
           "changed verify output bytes fail the reference comparison")
    files["summary.json"] = b'{"passed": true, "x": Infinity}'
    expect(not check.check("verify-default", SEED + 10 ** 9,
                           {"exit_code": 0, "files": files}, {})["ok"],
           "a non-finite verify output fails without a reference")
    files["summary.json"] = (b'{"passed": false, "experiments": {"riesz-tent":'
                             b' {"error": "ValueError()", "passed": false}}}')
    expect(not check.check("verify-default", SEED + 10 ** 9,
                           {"exit_code": 1, "files": files}, {})["ok"],
           "an experiment that raised inside verify fails without a reference")


def check_the_tracer():
    workloads.use_checkout_src()
    import oscillet.cli  # noqa: F401  (binds names the tracer must patch)
    from oscillet import harness, norms, operators

    before = (harness.tlm_wavelet_norm, operators.tlm_wavelet_norm,
              norms.tlm_wavelet_norm)
    with tracer.installed(tracer.Tracer()):
        expect(harness.tlm_wavelet_norm is operators.tlm_wavelet_norm
               is norms.tlm_wavelet_norm and harness.tlm_wavelet_norm
               is not before[0], "every binding of a target is patched")
    expect((harness.tlm_wavelet_norm, operators.tlm_wavelet_norm,
            norms.tlm_wavelet_norm) == before, "every binding is restored")
    saved = tracer.TARGETS
    tracer.TARGETS = saved + (("x", "oscillet.norms", "no_such_norm"),)
    try:
        with tracer.installed(tracer.Tracer()):
            pass
        raised = False
    except LookupError:
        raised = True
    finally:
        tracer.TARGETS = saved
    expect(raised, "a missing trace target raises LookupError")
    expect(harness.tlm_wavelet_norm is before[0],
           "bindings patched before the failure are restored")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_workloads():
    for name in workloads.NAMES:
        record, result = run(name, 1)
        expect(result["correct"] and result["failed"] == 0,
               f"{name}: traced run correct, no failed operation")
        expect(all(c["reference"] for c in record["checks"]),
               f"{name}: every run compared against the shipped reference")
        fired = {s for s in tracer.SPANS
                 if result["metrics"][f"{s}.calls"]["value"] > 0}
        must = workloads.MUST_FIRE[name]
        expect(must <= fired, f"{name}: spans that must fire did "
                              f"(missing {sorted(must - fired)})")
        if name != "verify-default":
            expect(fired <= must, f"{name}: bypassed spans stayed silent "
                                  f"(fired {sorted(fired - must)})")
        pct = result["metrics"]["trace.unattributed_pct"]["value"]
        expect(pct < UNATTRIBUTED_PCT_LIMIT,
               f"{name}: unattributed {pct:.2f}% of the traced wall")
    record, result = run("heat-1d", 0)
    expect(result["correct"] and set(result["metrics"]) ==
           {"wall_s", "setup_s", "peak_rss_mb"},
           "heat-1d: untraced run reports the end-to-end metrics")


if __name__ == "__main__":
    check_the_checker()
    check_the_tracer()
    check_workloads()
    print("selftest passed")
