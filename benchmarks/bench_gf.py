"""Before/after timings of the pgf pairs and of CLI check-lemmas.

Times `FinitePmf.pgf_pair` and `FinitePmf.log_pgf_pair`, the one-pass
pairs that classify and the audits evaluate, on laws of 10, 150, 2,000 and
100,000 positive weights and on `geometric_x0_pmf(1e-5)` (about 3.2M
entries), and `drphase check-lemmas` in-process on the README model and on
the bounded-N model of perfbench's exact-evolve workload, for a baseline
revision and the working tree (see passes.py for the pass scheme).
BENCH_gf.json also holds each side's outputs, the pgf values and the
check-lemmas stdout, and whether the two sides' outputs are identical.

    python benchmarks/bench_gf.py --baseline REV

REV must be 1da936b or later: earlier revisions have no
`dists.geometric_x0_pmf`.
"""

from passes import best_of, main, outputs_identical

S = 1.2
SIZES = (10, 150, 2_000, 100_000)
# (name, a, x0, N): the README model and a bounded-N one
MODELS = (
    ("readme", 1, [[0, 0.5], [2, 0.5]], {"type": "deterministic", "n": 2}),
    ("bounded", 1, [[0, 0.6], [2, 0.4]],
     {"type": "finite", "pmf": [[1, 0.6], [3, 0.4]]}),
)


def pgf_cases():
    import numpy as np
    from drphase.dists import FinitePmf, geometric_x0_pmf
    rng = np.random.default_rng(11)
    for size in SIZES:
        w = rng.random(size) + 0.01
        yield f"n{size}", FinitePmf(w / w.sum())
    yield "geometric_x0_r1e-5", geometric_x0_pmf(1e-5)


def check_lemmas(path):
    import io
    from contextlib import redirect_stdout
    from drphase import cli
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check-lemmas", "--config", path])
    return code, out.getvalue()


def measure():
    """Timings (s) and outputs of the drphase found on sys.path."""
    import json
    import os
    import tempfile
    import numpy as np
    import scipy
    from drphase.dists import FinitePmf
    timings, outputs = {}, {}
    for name, p in pgf_cases():
        for fn in (FinitePmf.pgf_pair, FinitePmf.log_pgf_pair):
            case = f"{fn.__name__}.{name}"
            outputs[case] = repr(fn(p, S))
            timings[case] = best_of(lambda: fn(p, S))
    with tempfile.TemporaryDirectory() as tmp:
        for name, a, x0, law in MODELS:
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"a": a, "x0": {"type": "finite", "pmf": x0},
                           "N": law}, fh)
            case = f"cli.check_lemmas.{name}"
            outputs[case] = check_lemmas(path)
            timings[case] = best_of(lambda: check_lemmas(path))
    return {"timings_s": timings, "outputs": outputs,
            "numpy": np.__version__, "scipy": scipy.__version__}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure, outputs_identical))
