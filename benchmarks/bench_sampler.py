"""Before/after timings of the Monte Carlo samplers.

Times, for a baseline revision and the working tree (see passes.py for the
pass scheme): one `mc_step` of a pool of 1e5 under deterministic, finite
and geometric N; `ancestor_counts` of 1,000 trees at depth 10 under finite
and geometric N; 32 `tree_sample`s at depth 8 under each N; and
`init_population` of 1e5 samples from the geometric x0 of `r` = 1e-4
(322,346 weights, 20,784 remainder slots).  The laws are those of
perfbench's simulate workload.  BENCH_sampler.json also holds the sha256
of every case's output on each side, and whether the two sides' outputs
are identical.

    python benchmarks/bench_sampler.py --baseline REV

REV must be 1da936b or later: earlier revisions have no
`dists.geometric_x0_pmf`.
"""

from passes import best_of, main, outputs_identical

X0 = {0: 0.3, 1: 0.2, 2: 0.2, 5: 0.3}
SEED = 20261018


def measure():
    """Timings (s) and output digests of the drphase found on sys.path."""
    import hashlib
    import numpy as np
    import scipy
    from drphase.dists import (FinitePmf, ModelSpec, OffspringLaw,
                               geometric_x0_pmf)
    from drphase.montecarlo import (ancestor_counts, init_population,
                                    mc_step, tree_sample)

    def digest(arr):
        data = np.asarray(arr, dtype="<i8").tobytes()
        return hashlib.sha256(data).hexdigest()

    laws = {"deterministic": OffspringLaw.deterministic(2),
            "finite": OffspringLaw.finite_support({1: 0.5, 3: 0.5}),
            "geometric": OffspringLaw.geometric(0.5)}
    x0 = FinitePmf.from_dict(X0)
    cases = {}
    for name, law in laws.items():
        model = ModelSpec(1, x0, law)
        pop = init_population(model, 100_000, SEED)
        cases[f"mc_step.{name}"] = (
            lambda pop=pop, model=model: mc_step(pop, model).samples)
        cases[f"tree_sample.{name}"] = (
            lambda model=model: [tree_sample(model, 8, SEED + j)
                                 for j in range(32)])
    for name in ("finite", "geometric"):
        cases[f"ancestor_counts.{name}"] = (
            lambda law=laws[name]: ancestor_counts(law, 10, 1000, SEED))
    wide = ModelSpec(1, geometric_x0_pmf(1e-4), laws["finite"])
    cases["init_population.wide_x0"] = (
        lambda: init_population(wide, 100_000, SEED).samples)

    timings, outputs = {}, {}
    for case, fn in cases.items():
        outputs[case] = digest(fn())
        timings[case] = best_of(fn)
    return {"timings_s": timings, "outputs": outputs,
            "numpy": np.__version__, "scipy": scipy.__version__}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure, outputs_identical))
