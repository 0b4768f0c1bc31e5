"""Before/after timings of the pgf pairs and of CLI check-lemmas.

Times `FinitePmf.pgf_pair` and `FinitePmf.log_pgf_pair`, the one-pass
pairs that classify and the audits evaluate, on laws of 10, 150, 2,000 and
100,000 positive weights and on `geometric_x0_pmf(1e-5)` (about 3.2M
entries); 1,000 calls of each pair of the two-point `AtomPmf`
{0: .5, 3: .5}, whose powers are cached; both pairs of one 20,000-weight
law at the seven s-points that check-lemmas reads on the README model;
`criteria.d0` on a 1,000-atom law with values up to 10^12, past float64
range, so through its log path; and `drphase check-lemmas` in-process on
the README model and on the bounded-N model of perfbench's exact-evolve
workload, for a baseline revision and the working tree (see passes.py for
the pass scheme).
BENCH_gf.json also holds each side's outputs, the pgf values and the
check-lemmas stdout, and whether the two sides' outputs are identical.

    python benchmarks/bench_gf.py --baseline REV

REV must be 1da936b or later: earlier revisions have no
`dists.geometric_x0_pmf`.
"""

from passes import best_of, main, outputs_identical, versions

S = 1.2
SIZES = (10, 150, 2_000, 100_000)
# calls per timed sample of a two-point pair, of about 2 us each
TWO_POINT_CALLS = 1000
# check-lemmas' s-points on the README model (s* = 2): lemma1's 0.9, 0.95
# and 0.99 s*, lemma3's s_sub and 2 s_sub, lemma4's 1.5 and 2
AUDIT_POINTS = (0.9 * 2.0, 0.95 * 2.0, 0.99 * 2.0, 2.0, 4.0, 1.5, 2.0)
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
    from drphase import criteria
    from drphase.dists import AtomPmf, FinitePmf
    timings, outputs = {}, {}
    for name, p in pgf_cases():
        for fn in (FinitePmf.pgf_pair, FinitePmf.log_pgf_pair):
            case = f"{fn.__name__}.{name}"
            outputs[case] = repr(fn(p, S))
            timings[case] = best_of(lambda: fn(p, S))
    two_point = AtomPmf.from_dict({0: 0.5, 3: 0.5})
    for fn in (AtomPmf.pgf_pair, AtomPmf.log_pgf_pair):
        case = f"{fn.__name__}.two_point_x{TWO_POINT_CALLS}"
        outputs[case] = repr(fn(two_point, S))
        timings[case] = best_of(
            lambda: [fn(two_point, S) for _ in range(TWO_POINT_CALLS)])
    rng = np.random.default_rng(26)
    w = rng.random(20_000) + 0.01
    dense = FinitePmf(w / w.sum())

    def audit_pairs():
        return [(dense.pgf_pair(s), dense.log_pgf_pair(s))
                for s in AUDIT_POINTS]
    outputs["audit_points.n20000"] = repr(audit_pairs())
    timings["audit_points.n20000"] = best_of(audit_pairs)
    values = np.unique(rng.integers(1, 10**12, 999)).tolist()
    w = rng.random(len(values) + 1) + 0.01
    wide = AtomPmf.from_dict(dict(zip([0, *values], (w / w.sum()).tolist())))
    outputs["d0_log_path.wide1000"] = repr(criteria.d0(wide, 1, 2.0, 2.0))
    timings["d0_log_path.wide1000"] = best_of(
        lambda: criteria.d0(wide, 1, 2.0, 2.0))
    with tempfile.TemporaryDirectory() as tmp:
        for name, a, x0, law in MODELS:
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"a": a, "x0": {"type": "finite", "pmf": x0},
                           "N": law}, fh)
            case = f"cli.check_lemmas.{name}"
            outputs[case] = check_lemmas(path)
            timings[case] = best_of(lambda: check_lemmas(path))
    return {"timings_s": timings, "outputs": outputs, **versions()}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure, outputs_identical))
