"""Before/after timings of the compound step and of FinitePmf construction.

Times `evolution.step` on fixed inputs in the FFT regime and in the direct
regime, and `FinitePmf` construction on a 300k-entry array, for two source
trees on one host: a baseline revision exported with `git archive` and the
working tree's `src/`.  Each side runs ROUNDS fresh-process passes, the
sides alternating pass by pass; a pass keeps the best of REPEATS calls per
case.  BENCH_step.json at the repo root gets the host, every pass's time,
the best, the quartiles over passes, whether the two sides' interquartile
ranges are disjoint, and the step means (so the outputs can be compared).

    python benchmarks/bench_step.py --baseline REV
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
OUT = os.path.join(REPO, "BENCH_step.json")
ROUNDS = 7
REPEATS = 7


def smooth_pmf(size, leak=0.0):
    """A unimodal law with a geometric tail over 0..size-1.

    tests/test_evolution.py has its own copy: this script imports nothing
    but the drphase tree it times, which may be an old revision.
    """
    import numpy as np
    from drphase.dists import FinitePmf
    v = np.arange(size, dtype=np.float64)
    w = np.exp(-((v - 0.4 * size) / (0.15 * size)) ** 2) \
        + 0.3 * np.exp(-v / (0.1 * size))
    return FinitePmf(w * ((1.0 - leak) / w.sum()), leak)


def step_cases():
    """(name, model, input): the FFT-regime cases are above the direct
    budget for the last power, the direct-regime ones below it."""
    from drphase.dists import FinitePmf, ModelSpec, OffspringLaw
    x0 = FinitePmf.from_dict({0: 0.5, 3: 0.5})
    laws = {
        "det2": OffspringLaw.deterministic(2),
        "det4": OffspringLaw.deterministic(4),
        "finite14": OffspringLaw.finite_support({1: 0.3, 4: 0.7}),
        "geometric": OffspringLaw.geometric(0.5),
    }
    sizes = (("fft", "det2", 32768), ("fft", "det4", 8192),
             ("fft", "finite14", 8192), ("fft", "geometric", 1024),
             ("direct", "det2", 2048), ("direct", "det4", 1024),
             ("direct", "finite14", 1024))
    return [(f"step.{regime}.{law}.n{size}", ModelSpec(2, x0, laws[law]),
             smooth_pmf(size, 1e-12)) for regime, law, size in sizes]


def best_of(fn):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure():
    """Timings (s) and step means of the drphase found on sys.path."""
    import numpy as np
    import scipy
    from drphase import dists, evolution
    timings, means = {}, {}
    for name, model, x in step_cases():
        out = evolution.step(x, model, 0.0)  # warm-up
        means[name] = dists.mean(out)
        timings[name] = best_of(lambda: evolution.step(x, model, 0.0))
    rng = np.random.default_rng(7)
    dense = rng.random(300_000)
    dense /= dense.sum()
    padded = np.concatenate([dense, np.zeros(1000)])
    timings["FinitePmf.n300k"] = best_of(lambda: dists.FinitePmf(dense))
    timings["FinitePmf.n300k_trailing_zeros"] = best_of(
        lambda: dists.FinitePmf(padded))
    return {"timings_s": timings, "step_means": means,
            "numpy": np.__version__, "scipy": scipy.__version__}


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


def run_side(src):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--measure"],
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
                runs[side].append(run_side(sides[side]))
    result = {
        "topic": "step",
        "script": "benchmarks/bench_step.py",
        "host": host_info(),
        "settings": {"rounds": ROUNDS, "repeats": REPEATS,
                     "pass": "best of repeats calls in one fresh process",
                     "unit": "s"},
    }
    revisions = {"before": git("rev-parse", args.baseline),
                 "after": git("rev-parse", "HEAD")
                 + ("+worktree" if git("status", "--porcelain", "src") else "")}
    for side, passes in runs.items():
        result[side] = {
            "revision": revisions[side],
            "numpy": passes[0]["numpy"], "scipy": passes[0]["scipy"],
            "timings_s": summarize(passes),
            "step_means": passes[0]["step_means"],
        }
    before, after = result["before"]["timings_s"], result["after"]["timings_s"]
    result["compare"] = {
        k: {"speedup_best": before[k]["best"] / t["best"],
            "speedup_median": before[k]["median"] / t["median"],
            "resolved": t["q3"] < before[k]["q1"] or before[k]["q3"] < t["q1"]}
        for k, t in after.items()}
    result["step_mean_rel_diff"] = {
        k: abs(result["after"]["step_means"][k] - v) / abs(v)
        for k, v in result["before"]["step_means"].items()}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"{'case':<38} {'before':>9} {'after':>9} (median ms)")
    for k, c in result["compare"].items():
        print(f"{k:<38} {before[k]['median'] * 1e3:>9.2f} "
              f"{after[k]['median'] * 1e3:>9.2f} "
              f"{c['speedup_median']:>6.2f}x"
              f"{'' if c['resolved'] else '  (quartiles overlap)'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
