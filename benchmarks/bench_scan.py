"""Before/after timings of family scans, classify and the CLI import.

Times `GeometricX0Family(1, N=2).model(r)` plus `criteria.classify` on it
for r in 1e-2 ... 1e-5 (a closed-form `GeometricPmf`, whose cut would
hold 3.2k to 3.2M entries), per call from batches of CLASSIFY_BATCH calls
as `timeit` does, so that a sample spans milliseconds rather than one
call of a few microseconds; `cli.parse_model` plus `classify` on a config
whose x0 is {0: .999, 2e7: .001}, the finite x0 the CLI reads, best of
single calls; `boundary_report(family, 41, 1e-9)` on a two-point
and on a geometric-x0 family, each with both boundaries, and on the
two-point family a = 1, high = 1e6, N = 2, whose every criterion value
takes the log path; the same report
on the 90 two-point families of perfbench's `scan` sweep (a in 1..3, high
in 1..6, five N laws) in one pass, at 41, at 9 (the CLI default) and at
101 grid points, and `import drphase.cli` in a fresh interpreter (timed
inside it), for a baseline revision and the working tree (see passes.py
for the pass scheme).  BENCH_scan.json also holds each side's outputs (the
verdicts, criterion values and boundary intervals; for each sweep, the
sha256 of its 90 reports' reprs and of their grids' reprs, so the verdict
objects' own repr is compared too) and whether the two sides' outputs are
identical.

    python benchmarks/bench_scan.py --baseline REV
"""

import timeit

from passes import REPEATS, best_of, main, outputs_identical, versions

GEOMETRIC_R = (1e-2, 1e-3, 1e-4, 1e-5)
GRID = 41
TOL = 1e-9
# classify calls per timed sample of a model_classify case
CLASSIFY_BATCH = 1000
# the sweep's grid sizes and case-name suffixes: perfbench's 41, the CLI
# default 9 and a fine 101
SWEEP_GRIDS = ((GRID, ""), (9, "_grid9"), (101, "_grid101"))
CONFIG_H2E7 = {"a": 1, "N": {"type": "deterministic", "n": 2},
               "x0": {"type": "finite",
                      "pmf": [[0, 0.999], [20_000_000, 0.001]]}}
IMPORT_CLI = ("import time; t = time.perf_counter(); import drphase.cli; "
              "print(time.perf_counter() - t)")


def import_cli_s():
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-c", IMPORT_CLI], check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def report_repr(rep):
    return repr((rep.super_boundary, rep.sub_boundary, rep.undetermined_band,
                 [(p, v.verdict, v.d_super, v.d_sub) for p, v in rep.grid]))


def measure():
    """Timings (s) and outputs of the drphase found on sys.path."""
    import hashlib
    from drphase import cli, criteria
    from drphase.dists import OffspringLaw
    from drphase.scan import GeometricX0Family, TwoPointFamily, boundary_report
    timings, outputs = {}, {}
    geometric = GeometricX0Family(1, OffspringLaw.deterministic(2))
    for r in GEOMETRIC_R:
        case = f"model_classify.geometric_x0_r{r:g}"
        v = criteria.classify(geometric.model(r))
        outputs[case] = repr((v.verdict, v.d_super, v.d_sub))
        timings[case] = min(timeit.repeat(
            lambda: criteria.classify(geometric.model(r)),
            repeat=REPEATS, number=CLASSIFY_BATCH)) / CLASSIFY_BATCH
    case = "model_classify.config_two_point_h2e7"
    v = criteria.classify(cli.parse_model(CONFIG_H2E7))
    outputs[case] = repr((v.verdict, v.d_super, v.d_sub))
    timings[case] = best_of(
        lambda: criteria.classify(cli.parse_model(CONFIG_H2E7)))
    families = {
        "two_point_a2_high3": TwoPointFamily(
            2, 3, OffspringLaw.finite_support({1: 0.5, 3: 0.5})),
        "geometric_x0_a1_N2": geometric,
        "two_point_a1_high1e6": TwoPointFamily(
            1, 10**6, OffspringLaw.deterministic(2))}
    for name, family in families.items():
        case = f"boundary_report.{name}"
        outputs[case] = report_repr(boundary_report(family, GRID, TOL))
        timings[case] = best_of(lambda: boundary_report(family, GRID, TOL))
    laws = (OffspringLaw.deterministic(2), OffspringLaw.deterministic(3),
            OffspringLaw.finite_support({1: 0.5, 3: 0.5}),
            OffspringLaw.finite_support({1: 0.5, 2: 0.5}),
            OffspringLaw.geometric(0.5))
    sweep = [TwoPointFamily(a, high, law) for a in (1, 2, 3)
             for high in range(1, 7) for law in laws]

    for grid, suffix in SWEEP_GRIDS:
        def run_sweep():
            return [boundary_report(fam, grid, TOL) for fam in sweep]
        case = f"boundary_report.two_point_sweep_90{suffix}"
        digest = hashlib.sha256("\n".join(
            report_repr(rep) + repr(rep.grid) for rep in run_sweep()).encode())
        outputs[case] = digest.hexdigest()
        timings[case] = best_of(run_sweep)
    timings["import_drphase_cli"] = min(import_cli_s()
                                        for _ in range(REPEATS))
    return {"timings_s": timings, "outputs": outputs, **versions()}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure, outputs_identical))
