"""Before/after timings of CLI check-lemmas.

Times `drphase check-lemmas` in-process on the README model, on the model
a=1, N=3, x0 {0: .5, 200: .5} at contraction_steps 4 and 12 (its evolved
laws go through the FFT from n = 4 and pass 2^21 entries at n = 9), on the
README x0 with N geometric p = .5 at the default steps (revisions whose
lemma4 audits evolved laws spend nearly all their time there), on x0
geometric p = 1e-5 with N = 2 at 2 steps (revisions whose audits read a
geometric x0 through its 1e-14 cut build 3.2M weights there), on a
model drawn like those of perfbench's audit workload, and on N = 2 with
the wide x0 {0: .999, 2e7: .001} and {0: .5, 1e20: .5} (revisions whose
audits read x0's dense weights build 2e7 of them, and exit 3 on the
second), for a baseline revision and the working tree (see passes.py for
the pass scheme).  The README x0 with N geometric p = 1e-3 and 1e-4
(32,221 and 322,346 weights, whose log pairs the orbit evaluates at
every s-point) takes seconds per call, so those two cases run once per
pass, each in a fresh process, which also reports its peak RSS.
BENCH_audit.json also holds each side's exit codes and stdout, whether
the two sides' outputs are identical, and the first pass's peak RSS (MB)
of each fresh-process case.

    python benchmarks/bench_audit.py --baseline REV
"""

import json
import subprocess
import sys

from passes import best_of, main, outputs_identical, versions

REPRO = {"a": 1, "x0": {"type": "finite", "pmf": [[0, 0.5], [200, 0.5]]},
         "N": {"type": "deterministic", "n": 3}}
# one tail and association step keeps cheap the law evolutions of lemma2
# and of revisions whose lemma4 audits evolved laws
REPRO_STEPS = {"growth_steps": 4, "tail_steps": 1, "association_steps": 1}
CONFIGS = {
    "readme": {"a": 1, "x0": {"type": "finite", "pmf": [[0, 0.5], [2, 0.5]]},
               "N": {"type": "deterministic", "n": 2}},
    "repro_c4": dict(REPRO, check_lemmas=dict(REPRO_STEPS,
                                              contraction_steps=4)),
    "repro_c12": dict(REPRO, check_lemmas=dict(REPRO_STEPS,
                                               contraction_steps=12)),
    "geometric_n": {"a": 1,
                    "x0": {"type": "finite", "pmf": [[0, 0.5], [2, 0.5]]},
                    "N": {"type": "geometric", "p": 0.5}},
    "geometric_x0_1e-5": {
        "a": 1, "x0": {"type": "geometric", "p": 1e-5},
        "N": {"type": "deterministic", "n": 2},
        "check_lemmas": {"growth_steps": 2, "tail_steps": 2,
                         "contraction_steps": 2, "association_steps": 2}},
    "audit": {"a": 2, "x0": {"type": "finite",
                             "pmf": [[0, 0.58], [1, 0.13], [3, 0.29]]},
              "N": {"type": "finite", "pmf": [[1, 0.4], [2, 0.6]]}},
    "wide_x0_2e7": {"a": 1, "x0": {"type": "finite",
                                   "pmf": [[0, 0.999], [2 * 10**7, 0.001]]},
                    "N": {"type": "deterministic", "n": 2}},
    "wide_x0_1e20": {"a": 1, "x0": {"type": "finite",
                                    "pmf": [[0, 0.5], [10**20, 0.5]]},
                     "N": {"type": "deterministic", "n": 2}},
}

# one check-lemmas per fresh process: its time, peak RSS and output
FRESH = {f"geometric_n_{p}": {"a": 1,
                              "x0": {"type": "finite",
                                     "pmf": [[0, 0.5], [2, 0.5]]},
                              "N": {"type": "geometric", "p": float(p)}}
         for p in ("1e-3", "1e-4")}
FRESH_RUN = """
import io, json, resource, sys, time
from contextlib import redirect_stdout
from drphase import cli
out = io.StringIO()
t0 = time.perf_counter()
with redirect_stdout(out):
    code = cli.main(["check-lemmas", "--config", sys.argv[1]])
elapsed = time.perf_counter() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([elapsed, rss_mb, code, out.getvalue()]))
"""


def fresh_check_lemmas(path):
    """(seconds, peak RSS in MB, (exit code, stdout)) of check-lemmas in a
    fresh process, on the drphase of this process's PYTHONPATH."""
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, path],
                          check=True, capture_output=True, text=True)
    elapsed, rss_mb, code, out = json.loads(proc.stdout)
    return elapsed, rss_mb, (code, out)


def check_lemmas(path):
    import io
    from contextlib import redirect_stdout
    from drphase import cli
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check-lemmas", "--config", path])
    return code, out.getvalue()


def measure():
    """Timings (s), outputs and fresh-process peak RSS (MB) of the drphase
    found on sys.path."""
    import os
    import tempfile
    timings, outputs, rss = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in {**CONFIGS, **FRESH}.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            case = f"cli.check_lemmas.{name}"
            if name in FRESH:
                timings[case], rss[case], outputs[case] = \
                    fresh_check_lemmas(path)
                continue
            outputs[case] = check_lemmas(path)
            timings[case] = best_of(lambda: check_lemmas(path))
    return {"timings_s": timings, "outputs": outputs, "peak_rss_mb": rss,
            **versions()}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure, outputs_identical))
