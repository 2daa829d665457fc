"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py [--workload W]... [--runs 10] [--first-seed 1]
                                     [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one run at a
time, from the repository root.  For every end-to-end metric it prints the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median, next to a third of the metric's bound
(the target for a steady benchmark; setup_s is exempt from the spread
rule).  ``--out`` writes every value and summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(inputs.GENERATORS),
                        help="default: the workloads of BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    unsteady = 0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        records, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            records.append(json.loads(lines[-2])["record"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            wall = time.perf_counter() - started
            walls.append(wall)
            print(f"{workload} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            xs = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            target = metric["bound"] / 3
            ok = metric["name"] == "setup_s" or spread <= target
            unsteady += not ok
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "unit": metric["unit"]}
            print(f"  {metric['name']:14s} median {median:12.6g} {metric['unit']:6s} "
                  f"spread {spread:7.4f}  target < {target:.4f}  {'ok' if ok else 'UNSTEADY'}")
        report["workloads"][workload] = {"summary": summary, "values": values,
                                         "wall_s": walls, "record": records[0]}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
