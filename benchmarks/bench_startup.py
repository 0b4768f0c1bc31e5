"""Before/after start-up cost of the command line.

Times fresh Python processes, for wall time and for the child's peak
resident set (its own ru_maxrss): `import drphase.cli`; `python -m drphase
classify` and `evolve --steps 12` on the README model; and the README
model's `evolve` with default options, which takes the FFT path from
n = 16 and exits 3 at n = 23.  A pass keeps each case's fastest of REPEATS
processes (see passes.py for the pass scheme), and the median peak RSS of
those processes.  BENCH_startup.json also holds each side's peak RSS,
stdout, stderr and exit code per case, and whether the two sides' outputs
are identical.

    python benchmarks/bench_startup.py --baseline REV
"""

import json
import os
import statistics
import sys
import tempfile
import time

from passes import REPEATS, main, outputs_identical, versions

README_MODEL = {"a": 1, "x0": {"type": "finite", "pmf": [[0, 0.5], [2, 0.5]]},
                "N": {"type": "deterministic", "n": 2}}
CLI = ("-m", "drphase")
CASES = {
    "import.drphase_cli": ("-c", "import drphase.cli"),
    "cli.classify.readme": (*CLI, "classify", "--config", "readme.json"),
    "cli.evolve_steps12.readme": (*CLI, "evolve", "--config", "readme.json",
                                  "--steps", "12"),
    "cli.evolve_defaults.readme": (*CLI, "evolve", "--config", "readme.json"),
}


def run(args):
    """Wall time (s), peak RSS (MB), stdout, stderr and exit code of one
    fresh `python *args` in the current directory."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        streams = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                             os.environ, file_actions=streams)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return (wall, usage.ru_maxrss / 1024.0, out.read().decode(),
                err.read().decode(), os.waitstatus_to_exitcode(status))


def measure():
    """Timings (s), peak RSS (MB) and outputs of the drphase found on
    PYTHONPATH."""
    timings, rss, outputs = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        # the configs are named relative to tmp, so no path differs by side
        os.chdir(tmp)
        with open("readme.json", "w", encoding="utf-8") as fh:
            json.dump(README_MODEL, fh)
        for case, args in CASES.items():
            runs = [run(args) for _ in range(REPEATS)]
            timings[case] = min(r[0] for r in runs)
            rss[case] = statistics.median(r[1] for r in runs)
            outputs[case] = runs[0][2:]
    return {"timings_s": timings, "peak_rss_mb": rss, "outputs": outputs,
            **versions()}


def finish(result):
    outputs_identical(result)
    before, after = result["before"]["peak_rss_mb"], result["after"]["peak_rss_mb"]
    result["compare_peak_rss_mb"] = {
        case: {"before": before[case], "after": after[case],
               "ratio": after[case] / before[case]} for case in before}
    for case, c in result["compare_peak_rss_mb"].items():
        print(f"{case:<38} {c['before']:>9.1f} {c['after']:>9.1f} "
              f"(peak RSS MB)")
    print("outputs identical:", all(result["outputs_identical"].values()))


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure, finish))
