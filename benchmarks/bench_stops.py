"""Before/after timings of CLI evolve and estimate-q that stop on the leak
budget.

Times `drphase evolve` and `drphase estimate-q` in-process with default
options (30 steps, tail_eps 1e-14, leak budget 1e-9) on the README model
and on the bounded-N model x0 {0: .6, 2: .4}, N {1: .6, 3: .4}.  All four
stop at generation 23.  Revisions that take that step and then discard it
spend about half their time on it; revisions whose leak floor predicts the
breach stop before it.  The geometric-N model p = .5 stops at generation
16 after seconds, too long for 7 x 7 passes, so it is left out.  For a
baseline revision and the working tree (see passes.py for the pass
scheme).  BENCH_stops.json also holds each side's exit codes, stdout and
stderr.

    python benchmarks/bench_stops.py --baseline REV
"""

from passes import best_of, main, versions

FINITE = {"type": "finite", "pmf": [[0, 0.5], [2, 0.5]]}
CONFIGS = {
    "readme": {"a": 1, "x0": FINITE, "N": {"type": "deterministic", "n": 2}},
    "bounded": {"a": 1, "x0": {"type": "finite", "pmf": [[0, 0.6], [2, 0.4]]},
                "N": {"type": "finite", "pmf": [[1, 0.6], [3, 0.4]]}},
}
COMMANDS = ("evolve", "estimate-q")


def run_cli(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    import io
    from contextlib import redirect_stderr, redirect_stdout
    from drphase import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def measure():
    """Timings (s) and outputs of the drphase found on sys.path."""
    import json
    import os
    import tempfile
    timings, outputs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in CONFIGS.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for command in COMMANDS:
                argv = [command, "--config", path]
                case = f"cli.{command.replace('-', '_')}.{name}"
                outputs[case] = run_cli(argv)
                timings[case] = best_of(lambda: run_cli(argv))
    return {"timings_s": timings, "outputs": outputs, **versions()}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure))
