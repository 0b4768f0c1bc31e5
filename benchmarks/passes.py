"""Shared runner of the before/after scripts in this directory.

A script `benchmarks/bench_<topic>.py` defines `measure()`, which times its
cases on the drphase found on sys.path and returns {"timings_s": {case: s},
**versions(), plus any outputs to compare}, and calls
`main(__doc__, __file__, measure)`.  `main` then times two source trees on one
host: a baseline revision exported with `git archive` and the working
tree's `src/`.  Each side runs ROUNDS fresh-process passes, the sides
alternating pass by pass; a pass keeps the best of REPEATS calls per case
(`best_of`).  BENCH_<topic>.json at the repo root gets the host, every
pass's time, the best, the quartiles over passes, whether the two sides'
interquartile ranges are disjoint, and the first pass's other outputs; the
console table shows each case's medians and both speedups, of the medians
and of the best passes (the host's two speeds can split the medians).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 7
REPEATS = 7


def best_of(fn):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def versions():
    """numpy's version, and scipy's where it is importable (None otherwise):
    the package needs numpy only, and scipy is a test oracle."""
    import numpy
    try:
        import scipy
    except ImportError:
        return {"numpy": numpy.__version__, "scipy": None}
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def git(*args):
    return subprocess.run(["git", "-C", REPO, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_src(rev, dest):
    """Extract src/ of a git revision into dest; return the src path."""
    archive = os.path.join(dest, "src.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", REPO, "archive", rev, "src"], check=True,
                       stdout=fh)
    # The "data" filter exists from Python 3.10.12 / 3.11.4 on.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **safe)
    return os.path.join(dest, "src")


def run_side(script, src):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, script, "--measure"],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def host_info():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh
                     if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu,
            "cpu_count": os.cpu_count(), "python": platform.python_version()}


def summarize(passes):
    """Per case: every pass's time, the best, and the quartiles."""
    out = {}
    for k in passes[0]["timings_s"]:
        times = [p["timings_s"][k] for p in passes]
        q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out[k] = {"passes": times, "best": min(times),
                  "q1": q1, "median": med, "q3": q3}
    return out


def outputs_identical(result):
    """finish() hook: per output, whether the two sides' first passes agree."""
    result["outputs_identical"] = {
        k: result["after"]["outputs"][k] == v
        for k, v in result["before"]["outputs"].items()}


def main(doc, script, measure, finish=None):
    """Command line of the bench script `script` with docstring `doc`;
    finish(result) may add entries to the result before it is written."""
    script = os.path.abspath(script)
    topic = os.path.basename(script)[len("bench_"):-len(".py")]
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--baseline",
                        help="git revision timed as 'before' (required)")
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"before": export_src(args.baseline, tmp),
                 "after": os.path.join(REPO, "src")}
        runs = {side: [] for side in sides}
        for r in range(ROUNDS):
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(run_side(script, sides[side]))
    result = {
        "topic": topic,
        "script": os.path.relpath(script, REPO),
        "host": host_info(),
        "settings": {"rounds": ROUNDS, "repeats": REPEATS,
                     "pass": "best of repeats calls in one fresh process",
                     "unit": "s"},
    }
    revisions = {"before": git("rev-parse", args.baseline),
                 "after": git("rev-parse", "HEAD")
                 + ("+worktree" if git("status", "--porcelain", "src") else "")}
    for side, passes in runs.items():
        first = passes[0]
        result[side] = {
            "revision": revisions[side],
            "numpy": first["numpy"], "scipy": first["scipy"],
            "timings_s": summarize(passes),
            **{k: v for k, v in first.items()
               if k not in ("timings_s", "numpy", "scipy")},
        }
    before, after = result["before"]["timings_s"], result["after"]["timings_s"]
    result["compare"] = {
        k: {"speedup_best": before[k]["best"] / t["best"],
            "speedup_median": before[k]["median"] / t["median"],
            "resolved": t["q3"] < before[k]["q1"] or before[k]["q3"] < t["q1"]}
        for k, t in after.items()}
    if finish is not None:
        finish(result)
    with open(os.path.join(REPO, f"BENCH_{topic}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"{'case':<38} {'before':>9} {'after':>9} {'speedup':>8} "
          f"{'best':>7}  (median ms; speedup of the medians, of the best)")
    for k, c in result["compare"].items():
        print(f"{k:<38} {before[k]['median'] * 1e3:>9.4g} "
              f"{after[k]['median'] * 1e3:>9.4g} "
              f"{c['speedup_median']:>7.2f}x {c['speedup_best']:>6.2f}x"
              f"{'' if c['resolved'] else '  (quartiles overlap)'}")
    return 0
