"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1,2,...] [--seconds S]

Runs run.py once per (workload, seed), one after another, and prints for
each metric the interquartile range of its values as a share of their
median (statistics.quantiles(values, n=4)) next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when every spread stays below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
                steady = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3.0
            steady &= ok
            print(f"  {workload:13s} {metric['name']:12s} median {med:.6g} "
                  f"spread {spread:.4f} bound {metric['bound']} "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
