"""Before/after timings of the Monte Carlo samplers.

Times, for a baseline revision and the working tree (see passes.py for the
pass scheme): one `mc_step` of a pool of 1e5 under deterministic, finite
and geometric N; `mc_estimate_q` of a pool of 1e5 over 10 generations
under each N; `ancestor_counts` of 1,000 trees at depth 10 under finite
and geometric N; 32 `tree_sample`s at depth 8 under each N; and
`init_population` of 1e5 samples from the geometric x0 of `r` = 1e-4
(322,346 weights, 20,784 remainder slots), and of 1e5 samples from a new
AtomPmf x0 {0: .999, 2e7: .001} on each call (revisions that draw x0 from
its dense weights build 2e7 of them).  The laws are those of
perfbench's simulate workload.  Two more cases take a geometric N of
p = .05, whose count cdf has 750 knots: one `mc_step` of a pool of 1e5,
and `ancestor_counts` of 1,000 trees at depth 2 (mean 20 per node, so
depth 6 would be about 6e10 nodes).  BENCH_sampler.json also holds the sha256
of every case's output on each side (of `mc_estimate_q`, its two bounds),
and whether the two sides' outputs are identical, and each side's
`mc_estimate_q` stderr apart.

    python benchmarks/bench_sampler.py --baseline REV

REV must be 1da936b or later: earlier revisions have no
`dists.geometric_x0_pmf`.
"""

from passes import best_of, main, outputs_identical, versions

X0 = {0: 0.3, 1: 0.2, 2: 0.2, 5: 0.3}
WIDE_ATOMS = {0: 0.999, 2 * 10**7: 0.001}
SEED = 20261018


def measure():
    """Timings (s) and output digests of the drphase found on sys.path."""
    import hashlib
    import numpy as np
    from drphase.dists import (AtomPmf, FinitePmf, ModelSpec, OffspringLaw,
                               geometric_x0_pmf)
    from drphase.montecarlo import (ancestor_counts, init_population,
                                    mc_estimate_q, mc_step, tree_sample)

    def digest(arr, dtype="<i8"):
        data = np.asarray(arr, dtype=dtype).tobytes()
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
        cases[f"mc_estimate_q.{name}"] = (
            lambda model=model: mc_estimate_q(model, 100_000, 10, SEED))
        cases[f"tree_sample.{name}"] = (
            lambda model=model: [tree_sample(model, 8, SEED + j)
                                 for j in range(32)])
    for name in ("finite", "geometric"):
        cases[f"ancestor_counts.{name}"] = (
            lambda law=laws[name]: ancestor_counts(law, 10, 1000, SEED))
    long_law = OffspringLaw.geometric(0.05)
    long_model = ModelSpec(1, x0, long_law)
    long_pop = init_population(long_model, 100_000, SEED)
    cases["mc_step.geometric_p05"] = (
        lambda: mc_step(long_pop, long_model).samples)
    cases["ancestor_counts.geometric_p05"] = (
        lambda: ancestor_counts(long_law, 2, 1000, SEED))
    wide = ModelSpec(1, geometric_x0_pmf(1e-4), laws["finite"])
    cases["init_population.wide_x0"] = (
        lambda: init_population(wide, 100_000, SEED).samples)
    cases["init_population.wide_atoms"] = (
        lambda: init_population(
            ModelSpec(1, AtomPmf.from_dict(WIDE_ATOMS), laws["finite"]),
            100_000, SEED).samples)

    timings, outputs, stderr = {}, {}, {}
    for case, fn in cases.items():
        out = fn()
        if case.startswith("mc_estimate_q."):
            stderr[case] = out.stderr
            outputs[case] = digest(out[:2], "<f8")
        else:
            outputs[case] = digest(out)
        timings[case] = best_of(fn)
    return {"timings_s": timings, "outputs": outputs, "stderr": stderr,
            **versions()}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure, outputs_identical))
