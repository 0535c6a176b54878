"""One measured benchmark process (started fresh by run.py for every run).

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/worker.py --workload W --seed S --setup-only

Prints one JSON line.  `ready` is `time.monotonic()` when oscillet is
imported and the workload's config is built; the parent, which noted the
same clock before starting this process, turns it into the set-up time.

The measurement is a closed loop: one caller runs the workload, waits for
its result, checks it, and runs it again while the next iteration is
expected to end within `--seconds` (at least once).  Untraced, up to
SETUP_PROBES set-up probes (fresh `--setup-only` processes, run while this
one waits) are started between iterations, evenly over `--seconds`, so the
set-up samples spread over the whole run instead of sharing one moment of
the host's speed.
With `--trace 1` untraced and traced iterations alternate, starting
untraced, until both have run and the time is up; the per-layer numbers
come from the traced ones, the tracing overhead from the pair.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

import workloads


def fft_probe() -> float:
    """A fixed numpy FFT loop that runs no oscillet code: best of three
    after a warm-up."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal(1 << 14) + 0j
    best = float("inf")
    for rep in range(4):       # the first repetition warms allocator and plans
        t0 = time.perf_counter()
        for _ in range(100):
            np.fft.fft(x)
        if rep:
            best = min(best, time.perf_counter() - t0)
    return best


LEVEL_PROBE_J = 10
SETUP_PROBES = 8


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh `--setup-only` process until it is
    ready to call the workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - spawned


def level_probe(seed: int) -> dict:
    """`oscillation_norm(..., cube_levels=[j0])` once per cube level on the
    first osc-1d input at J=LEVEL_PROBE_J."""
    from oscillet.grid import GridSpec
    from oscillet.harness import TestFunctionSpec, generate_test_function
    from oscillet.norms import CutoffFamily, oscillation_norm
    from oscillet.wavelet import build_basis

    cfg = workloads.experiment_config("osc-1d", seed)
    spec = GridSpec(n=cfg.n, J=LEVEL_PROBE_J, j_min=cfg.j_min)
    basis = build_basis(cfg.family, spec, profile=cfg.profile)
    m0 = cfg.m0 if cfg.m0 is not None else (3 if cfg.sp.gamma1 > 0 else 1)
    cutoff = CutoffFamily(n=cfg.n)
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = generate_test_function(TestFunctionSpec(
            "random-coeff-in-ball", {"sp": cfg.sp}, seed=cfg.seed), basis)
        for j0 in range(spec.j_min, spec.J):
            t0 = time.perf_counter()
            oscillation_norm(f, cfg.sp, cutoff, m0, basis, cube_levels=[j0])
            out[f"norms.oscillation.level{j0}_s"] = time.perf_counter() - t0
    return out


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_record(seed: int) -> dict:
    import hashlib

    import numpy
    import scipy

    h = hashlib.sha256()
    pkg = os.path.join(workloads.SRC, "oscillet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in workloads.THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(workloads.ROOT),
        "src_sha256": h.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads.use_checkout_src()
    wl = workloads.Workload(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import check
    import tracer

    refs = check.load_refs(args.workload)
    host = host_record(args.seed)
    drift_before = fft_probe()
    if args.trace:
        tracer.check_targets()   # a stale target stops the run, not one call
    # the level probe belongs to osc-1d; other traced runs report 0 for it,
    # like a span their workload bypasses
    if args.trace and args.workload == "osc-1d":
        levels = level_probe(args.seed)
    else:
        levels = {f"norms.oscillation.level{j}_s": 0.0
                  for j in range(LEVEL_PROBE_J)}
    tr = tracer.Tracer()

    walls, traced_walls, setups, errors, checks = [], [], [], [], []
    cycles = []
    failed = 0
    t0 = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        if not args.trace:
            due = 1 + int(SETUP_PROBES * (cycle_start - t0) / args.seconds)
            while len(setups) < min(due, SETUP_PROBES):
                setups.append(setup_probe(args.workload, args.seed))
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        timed = traced_walls if traced else walls
        try:
            with tracer.installed(tr) if traced else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    wl.call()
                finally:
                    timed.append(time.perf_counter() - start)
            result = check.check(args.workload, args.seed, wl.collect(), refs)
        except Exception as exc:   # a raising run is a failed operation
            result = {"ok": False, "errors": [repr(exc)]}
        finally:
            wl.cleanup()
        checks.append({k: v for k, v in result.items() if k != "errors"})
        if not result["ok"]:
            failed += 1
            errors += result["errors"]
        # stop before an iteration that would end past --seconds, judged by
        # the median iteration (probes included) so far, so a run lasts
        # about --seconds
        cycles.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(cycles)
        if elapsed + typical > args.seconds and \
                (not args.trace or traced_walls):
            break

    out = {
        "ready": ready,
        "attempted": len(checks),
        "failed": failed,
        "errors": errors[:20],
        "checks": checks,
        "walls": walls,
        "traced_walls": traced_walls,
        "setups": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": host,
        "drift_probe_s": {"before": drift_before, "after": fft_probe()},
        "loadavg_end": os.getloadavg(),
    }
    if args.trace:
        n = len(traced_walls)
        out["spans"] = {name: {"calls": tr.stats.get(name, [0, 0.0])[0] / n,
                               "self_s": tr.stats.get(name, [0, 0.0])[1] / n}
                        for name in tracer.SPANS}
        out["levels"] = levels
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
