"""drphase benchmark: one workload per call, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload in turn

Run from the root of a source checkout; drphase is imported from ./src.
Each workload runs in fresh processes (perfbench/worker.py) with the numpy
kernel backend pinned and thread pools capped at nproc:

  --trace 0  SETUP_RUNS set-up processes (setup_s is their median), the
             last of which runs the timed closed loop: a fixed number of
             rounds that takes about S seconds at the reference speed.
  --trace 1  the workload's fixed trace rounds twice, untraced and traced; the
             traced run gives the per-layer metrics and the difference of
             the two gives the tracing overhead.  Spans go to
             .perfbench/trace-<workload>-seed<N>.json.

Lines before the last describe the host and every metric with its unit and
sample count; the last line is the JSON result, with the metrics that
BENCHMARK.json declares for the mode.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("exact-evolve", "audit", "scan", "simulate")
# setup_s is the median of this many fresh processes (the timed one included)
SETUP_RUNS = 5
# every process of one call must end within this many seconds
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "DRPHASE_THREADS")


def declared_metrics(mode: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares for a mode,
    "end_to_end" or "per_layer"; a run reports exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[mode]]


def select(metrics: dict, mode: str) -> dict:
    """The declared metrics of a run, each checked to carry its unit."""
    out = {}
    for name, unit in declared_metrics(mode):
        if name not in metrics:
            raise ChildFailed(f"run gave no {mode} metric {name}")
        if metrics[name]["unit"] != unit:
            raise ChildFailed(f"{name} is in {metrics[name]['unit']}, "
                              f"BENCHMARK.json says {unit}")
        out[name] = metrics[name]
    return out


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["DRPHASE_BACKEND"] = "numpy"
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, workdir: str, deadline: float,
          *mode: str) -> dict:
    """Start one worker, wait for it, return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--workdir", workdir]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0), *mode], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {' '.join(mode)}: no result within "
                          f"{timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {' '.join(mode)} exited "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, workdir: str,
            deadline: float) -> tuple[dict, dict, dict]:
    setups = [spawn(workload, seed, workdir, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = spawn(workload, seed, workdir, deadline, "--seconds", str(seconds))
    setups.append(res["setup_s"])
    summary = res["summary"]
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s",
                           "n": len(setups), "samples": setups,
                           "timed_raw_s": res["setup_raw_s"]},
               **summary,
               "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB",
                               "n": 1},
               "calib_s": {"value": res["calib_s"], "unit": "s",
                           "n": res["calib_n"], "scale": res["scale"]},
               "rounds": {"value": res["rounds"], "unit": "count", "n": 1}}
    n = summary["ops_per_s"]["n"]
    outcome = {"attempted": n, "failed": summary["fail_ratio"]["failed"],
               "failures": res["failures"], "notes": res["notes"]}
    return metrics, outcome, res["environment"]


def trace(workload: str, seed: int, workdir: str, deadline: float
          ) -> tuple[dict, dict, dict]:
    os.makedirs(OUT_DIR, exist_ok=True)
    dump = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    plain = spawn(workload, seed, workdir, deadline, "--fixed")
    traced = spawn(workload, seed, workdir, deadline, "--fixed",
                   "--trace-dump", dump)
    # each run's operation time at the reference speed (calib.py)
    untraced_s = plain["summary"]["ops_per_s"]["timed_s"] * plain["scale"]
    traced_s = traced["summary"]["ops_per_s"]["timed_s"] * traced["scale"]
    metrics = dict(traced["trace"])
    metrics["trace.overhead_s"] = {
        "value": traced_s - untraced_s, "unit": "s", "traced_s": traced_s,
        "untraced_s": untraced_s,
        "raw": (traced["summary"]["ops_per_s"]["timed_s"]
                - plain["summary"]["ops_per_s"]["timed_s"])}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_s - untraced_s) / untraced_s, "unit": "%"}
    outcome = {"attempted": (traced["summary"]["ops_per_s"]["n"]
                             + plain["summary"]["ops_per_s"]["n"]),
               "failed": (traced["summary"]["fail_ratio"]["failed"]
                          + plain["summary"]["fail_ratio"]["failed"]),
               "failures": traced["failures"] + plain["failures"],
               "notes": traced["notes"]}
    return metrics, outcome, traced["environment"]


def describe(name: str, m: dict) -> str:
    extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
    return f"  {name} = {m['value']!r} {m['unit']}  {json.dumps(extra)}"


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if traced:
            metrics, outcome, env = trace(workload, seed, workdir, deadline)
            reported = select(metrics, "per_layer")
        else:
            metrics, outcome, env = measure(workload, seed, seconds, workdir,
                                            deadline)
            reported = select(metrics, "end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = {"nproc": nproc(), "platform": platform.platform(),
            "commit": commit(), "thread_cap": nproc(), **env}
    print(f"host: {json.dumps(host)}")
    print(f"workload {workload} seed {seed} "
          f"({'traced' if traced else 'untraced'}):")
    for name, m in metrics.items():
        print(describe(name, m))
    for line in outcome["failures"]:
        print(f"  FAILED {line}")
    for line in outcome["notes"]:
        print(f"  KNOWN DEFECT {line}")
    return {"correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"], "failed": outcome["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in reported.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "drphase", "__init__.py")):
        print(f"error: no drphase sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds,
                                    bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
