"""Regenerate the shipped reference outputs.

Run at the commit whose outputs define "correct" (the parent of a change
under test), from the repository root:

    python3 perfbench/make_refs.py --workload osc-1d --seeds 0-31 42

Each workload's references go to perfbench/refs/<workload>.json, keyed by
seed; existing seeds are overwritten, others kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import check
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seeds", nargs="+", required=True)
    args = ap.parse_args(argv)
    os.environ.update(workloads.thread_env({}))
    workloads.use_checkout_src()

    path = os.path.join(check.REF_DIR, f"{args.workload}.json")
    refs = check.load_refs(args.workload)
    for seed in workloads.parse_seeds(args.seeds):
        wl = workloads.Workload(args.workload, seed)
        wl.call()
        collected = wl.collect()
        if args.workload == "verify-default":
            ref = check.verify_fingerprint(collected)
        else:
            ref = json.loads(check.canonical(collected))
        result = check.check(args.workload, seed, collected, {})
        wl.cleanup()
        refs[str(seed)] = ref
        print(f"{args.workload} seed {seed}: passed={result['verdict']} "
              f"{result['errors'] or 'finite'}", flush=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(dict(sorted(refs.items(), key=lambda kv: int(kv[0]))),
                      fh, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
