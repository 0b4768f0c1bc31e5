"""Byte-identity check of the command line: a git revision against the
working tree.

Runs a fixed matrix of `python -m drphase` invocations under the `src/` of
revision REV (exported with `passes.export_src`) and under the working
tree's `src/`: `classify`, `evolve`, `estimate-q`, `simulate` and
`check-lemmas` in table, csv and json on eight models (the README model, a
geometric-N model, a geometric-x0 model with geometric N, a finite-N model,
a finite N of one count, {3: 1}, which is the deterministic law, a
subcritical model, a model whose x0 has three atoms with gaps and one whose
x0 {0: .4, 1: .35, 2: .25} is dense, with finite N),
`classify` on an x0 {0: .999, 1e6: .001}, `check-lemmas` at its default
steps on an x0 {0: .999, 2e7: .001} and on the 19 atoms of
tests/conftest.py's EDGE_ATOMS (whose dense mean and atom mean differ in
the last bit), `check-lemmas` in table format only on the README x0 with
a geometric N of p = 1e-3 (lemma1's 3 s-points over 32,221 weights, whose
log pairs take two passes), `simulate` on a geometric N of
p = .05 (a count cdf of 750 knots), `evolve` and `estimate-q` on the
README model and
on the finite-N model with no command block (all four exit 3 at generation
23, past the default leak budget, so the partial-output paths are compared
too), and `scan` on six `two_point` families (high 3; high 1; geometric
N, where the sub boundary is n/a; high 1024, where s^high overflows and
the criterion takes the log path through the law's weights; high 1500,
where s^(high-1) is known to overflow before any power is taken, so every
grid member takes that path; high 3 with the three-atom x0, which the
scan validates and ignores) and one `geometric_x0` family, each in the
three formats: 166 invocations per side.  Each invocation's stdout, stderr
and exit code must be equal on both sides.  Prints one line per difference
and a summary, and exits 1 if there is any difference, 0 otherwise.

    python benchmarks/cli_matrix.py --baseline REV
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from passes import REPO, export_src

COMMANDS = ("classify", "evolve", "estimate-q", "simulate", "check-lemmas")
FORMATS = ("table", "csv", "json")
# the command blocks every model config carries, sized to finish in seconds
BLOCKS = {
    "evolve": {"steps": 12},
    "estimate_q": {"steps": 12},
    "simulate": {"steps": 5, "pop_size": 2000, "seed": 7},
    "check_lemmas": {"growth_steps": 4, "tail_steps": 8,
                     "contraction_steps": 6, "association_steps": 4},
}
FINITE = {"type": "finite", "pmf": [[0, 0.5], [2, 0.5]]}
SPARSE = {"type": "finite", "pmf": [[0, 0.3], [2, 0.45], [7, 0.25]]}
MODELS = {
    "readme": {"a": 1, "x0": FINITE, "N": {"type": "deterministic", "n": 2}},
    "geometric-n": {"a": 1, "x0": FINITE, "N": {"type": "geometric", "p": 0.5}},
    "geometric-x0": {"a": 1, "x0": {"type": "geometric", "p": 0.35},
                     "N": {"type": "geometric", "p": 0.5}},
    "finite-n": {"a": 1, "x0": {"type": "finite", "pmf": [[0, 0.6], [2, 0.4]]},
                 "N": {"type": "finite", "pmf": [[1, 0.6], [3, 0.4]]}},
    "single-count-n": {"a": 1, "x0": FINITE,
                       "N": {"type": "finite", "pmf": [[3, 1.0]]}},
    "subcritical": {"a": 1,
                    "x0": {"type": "finite", "pmf": [[0, 0.9], [2, 0.1]]},
                    "N": {"type": "deterministic", "n": 2}},
    "sparse-x0": {"a": 1, "x0": SPARSE, "N": {"type": "deterministic", "n": 2}},
    "dense-x0": {"a": 1,
                 "x0": {"type": "finite",
                        "pmf": [[0, 0.4], [1, 0.35], [2, 0.25]]},
                 "N": {"type": "finite", "pmf": [[1, 0.5], [3, 0.5]]}},
}
# a two-point x0 whose dense weights would hold 1e6 + 1 entries
HIGH_X0 = {"a": 1, "N": {"type": "deterministic", "n": 2},
           "x0": {"type": "finite", "pmf": [[0, 0.999], [10**6, 0.001]]}}
# x0 {0: .999, 2e7: .001}, whose dense weights would hold 2e7 + 1 entries
WIDE_X0 = {"a": 1, "N": {"type": "deterministic", "n": 2},
           "x0": {"type": "finite", "pmf": [[0, 0.999], [2 * 10**7, 0.001]]}}
# tests/conftest.py's EDGE_ATOMS: a mass inside the band whose dense sum
# is not
EDGE_X0 = {"a": 1, "N": {"type": "deterministic", "n": 2},
           "x0": {"type": "finite", "pmf": [
               [2, 0.03827914291891157], [3, 0.04073319535415992],
               [5, 0.060470106036827564], [9, 0.031909823704542775],
               [13, 0.05652215283126987], [19, 0.054725970707167476],
               [25, 0.07172661456038747], [26, 0.008844636031522062],
               [29, 0.05610132812547892], [32, 0.07136986999645575],
               [35, 0.0744867198364601], [36, 0.0011317230892060929],
               [38, 0.06646138735709323], [40, 0.0755078236492762],
               [42, 0.07366206970682361], [43, 0.011448128396827916],
               [45, 0.07484861006368582], [48, 0.0684849538130789],
               [55, 0.06328574381982474]]}}
# a geometric N of p = 1e-3, whose 32,221 weights take the orbit's log
# pairs two s-points per pass (dists._LOG_PAIR_ELEMENTS); about 2 s per side
LONG_GEOMETRIC_N_AUDIT = {"a": 1, "x0": FINITE,
                          "N": {"type": "geometric", "p": 1e-3}}
# a geometric N of mean 20, whose count cdf has 750 knots; a pool of 2e4
# draws its counts through a guide table of 2^10 cells
LONG_GEOMETRIC_N = {"a": 1, "x0": FINITE,
                    "N": {"type": "geometric", "p": 0.05},
                    "simulate": {"steps": 2, "pop_size": 20_000, "seed": 7}}
FAMILIES = {
    "two-point": {"a": 2, "N": {"type": "deterministic", "n": 2},
                  "scan": {"family": {"type": "two_point", "high": 3},
                           "grid_points": 41, "tolerance": 1e-9}},
    "two-point-high1": {"a": 1, "N": {"type": "deterministic", "n": 2},
                        "scan": {"family": {"type": "two_point", "high": 1}}},
    "two-point-geometric-n": {"a": 1, "N": {"type": "geometric", "p": 0.5},
                              "scan": {"family": {"type": "two_point",
                                                  "high": 2}}},
    "two-point-overflow": {"a": 1, "N": {"type": "deterministic", "n": 2},
                           "scan": {"family": {"type": "two_point",
                                               "high": 1024}}},
    "two-point-overflow-early": {"a": 1,
                                 "N": {"type": "deterministic", "n": 2},
                                 "scan": {"family": {"type": "two_point",
                                                     "high": 1500}}},
    "two-point-sparse-x0": {"a": 2, "x0": SPARSE,
                            "N": {"type": "deterministic", "n": 2},
                            "scan": {"family": {"type": "two_point",
                                                "high": 3}}},
    "geometric-x0": {"a": 1, "N": {"type": "finite",
                                   "pmf": [[1, 0.6], [3, 0.4]]},
                     "scan": {"family": {"type": "geometric_x0"}}},
}


def cases(tmp):
    """(label, argv) of every invocation; the configs are written to tmp."""
    runs = [(command, name, {**model, **BLOCKS}) for command in COMMANDS
            for name, model in MODELS.items()]
    runs += [(command, f"{name}-defaults", MODELS[name])
             for name in ("readme", "finite-n")
             for command in ("evolve", "estimate-q")]
    runs += [("classify", "high-x0", HIGH_X0)]
    runs += [("check-lemmas", "wide-x0", WIDE_X0),
             ("check-lemmas", "edge-atoms", EDGE_X0)]
    runs += [("simulate", "long-geometric-n", LONG_GEOMETRIC_N)]
    runs += [("scan", name, doc) for name, doc in FAMILIES.items()]
    runs = [(*run, FORMATS) for run in runs]
    runs += [("check-lemmas", "long-geometric-n", LONG_GEOMETRIC_N_AUDIT,
              ("table",))]
    out = []
    for command, name, doc, formats in runs:
        path = os.path.join(tmp, f"{command}-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out += [(f"{command} {name} {fmt}",
                 [command, "--config", path, "--output", fmt])
                for fmt in formats]
    return out


def run(src, argv):
    """(exit code, stdout, stderr) of drphase on argv, from the tree src."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "drphase", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="git revision whose src/ is the reference")
    args = parser.parse_args()
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = (export_src(args.baseline, tmp), os.path.join(REPO, "src"))
        matrix = cases(tmp)
        for label, argv in matrix:
            before, after = (run(src, argv) for src in sides)
            for field, old, new in zip(("exit code", "stdout", "stderr"),
                                       before, after):
                if old != new:
                    differences += 1
                    print(f"DIFF {label}: {field}")
    print(f"{len(matrix)} invocations, {differences} differences "
          f"against {args.baseline}")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
