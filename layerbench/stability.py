#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range / median).

    python3 layerbench/stability.py --workloads table4,live-fanout --seeds 1-10
    python3 layerbench/stability.py --seeds 1-10 --baseline layerbench/baseline.json

Run from the repository root. Each run is the BENCHMARK.json command with
`--trace 0` and its `run_seconds`. With --baseline, the medians and
quartiles of every workload are written to that file as the benchmark's
recorded baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--baseline")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            started = time.monotonic()
            out = subprocess.run(cmd, check=True, capture_output=True, text=True)
            wall = time.monotonic() - started
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} checks failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({wall:.0f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        rows = {}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(v)}
            flag = "" if spread < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"{workload:14} {name:26} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]}{flag}")
        summary[workload] = rows
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
