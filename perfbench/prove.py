"""Run-to-run spread of the end-to-end metrics, from the repository root:

    python3 perfbench/prove.py --seeds 1-10
    python3 perfbench/prove.py --seeds 1-5 --workloads riesz-2d

Runs every workload of BENCHMARK.json once per seed, rotating the workload order from one seed
to the next so slow drift of the host spreads over all workloads.  For each
end-to-end metric it prints the median over seeds and the spread
(q3 - q1) / median, with `statistics.quantiles(values, n=4)`, next to a
third of the metric's bound from BENCHMARK.json.  The fixed FFT drift probe
of every run is printed alongside, so a slower host reads as drift and not
as a regression.  All runs go to perfbench/results/prove-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=workloads.NAMES,
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    seeds = workloads.parse_seeds(args.seeds)
    names = args.workloads
    runs = []
    for i, seed in enumerate(seeds):
        k = i % len(names)
        for name in names[k:] + names[:k]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True,
                check=True, timeout=200)
            record, result = (json.loads(l) for l in
                              proc.stdout.strip().splitlines()[-2:])
            runs.append({"workload": name, "seed": seed, **result,
                         "drift_probe_s": record["drift_probe_s"]})
            m = result["metrics"]
            print(f"{name:15s} seed {seed:4d} " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in m.items())
                + f" failed={result['failed']}/{result['attempted']} "
                f"fft={record['drift_probe_s']['before']:.4f}", flush=True)
    worst_ok = True
    print(f"\n{'workload':15s} {'metric':12s} {'median':>10s} {'spread':>8s} "
          f"{'bound/3':>8s}")
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        for metric in bench["end_to_end"]:
            vals = [r["metrics"][metric["name"]]["value"] for r in mine]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = metric["bound"] / 3
            flag = "" if spread < limit else "  WIDE"
            worst_ok = worst_ok and not flag
            print(f"{name:15s} {metric['name']:12s} {med:10.4f} "
                  f"{spread:8.4f} {limit:8.4f}{flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"\nfailed operations: {failed} of "
          f"{sum(r['attempted'] for r in runs)}")
    path = os.path.join(workloads.RESULTS, f"prove-{seeds[0]}.json")
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=1)
    return 0 if worst_ok and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
