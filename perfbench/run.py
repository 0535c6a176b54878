"""oscillet benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload osc-1d --seed 42 --seconds 60 --trace 0

Each run starts a fresh worker process, so set-up and peak memory belong to
it.  The worker measures the workload in a closed loop and, between
iterations, starts set-up probes: processes that only import oscillet and
build the workload's config (see worker.py).  setup_s is the median of the
worker's own set-up and the probes'.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with `--trace 1` the per-layer spans.  The full record (host,
drift probe, every iteration's wall, quartiles, report hashes) is the line
before it and is also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from tracer import SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0        # the whole run


def _quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    t_begin = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "oscillet",
                                       "__init__.py")):
        print(f"perfbench: no oscillet sources under {workloads.SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(workloads.RESULTS, exist_ok=True)

    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=workloads.thread_env(os.environ),
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=DEADLINE_S - (spawned - t_begin))
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    setups = [rec["ready"] - spawned] + rec["setups"]

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_s": _quartiles(setups), "setup_samples": setups, **rec}
    if args.trace:
        n = len(rec["traced_walls"])
        traced = sum(rec["traced_walls"]) / n
        untraced = sum(rec["walls"]) / len(rec["walls"])
        attributed = sum(s["self_s"] for s in rec["spans"].values())
        metrics = {}
        for name in SPANS:
            span = rec["spans"][name]
            calls = span["calls"]
            metrics[f"{name}.calls"] = {
                "value": int(calls) if calls == int(calls) else calls,
                "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": span["self_s"], "unit": "s"}
        for name, value in rec["levels"].items():
            metrics[name] = {"value": value, "unit": "s"}
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.unattributed_s"] = {"value": traced - attributed,
                                           "unit": "s"}
        metrics["trace.unattributed_pct"] = {
            "value": 100.0 * (traced - attributed) / traced, "unit": "%"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    else:
        record["wall_s"] = _quartiles(rec["walls"])
        metrics = {
            "wall_s": {"value": record["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    record["metrics"] = metrics
    path = os.path.join(workloads.RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": rec["failed"] == 0,
                      "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
