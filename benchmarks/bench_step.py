"""Before/after timings of the compound step and of FinitePmf construction.

Times `evolution.step` on fixed inputs in the FFT regime and in the direct
regime, and `FinitePmf` construction on a 300k-entry array, for two source
trees on one host: a baseline revision exported with `git archive` and the
working tree's `src/`.  Each side runs passes.ROUNDS fresh-process
passes, the sides alternating pass by pass; a pass keeps the best of
passes.REPEATS calls per case.  BENCH_step.json at the repo root gets the
host, every pass's time, the best, the quartiles over passes, whether the
two sides' interquartile ranges are disjoint, and the step means (so the
outputs can be compared).

    python benchmarks/bench_step.py --baseline REV
"""

from passes import best_of, main, versions


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


def measure():
    """Timings (s) and step means of the drphase found on sys.path."""
    import numpy as np
    from drphase import dists, evolution
    timings, means = {}, {}
    for name, model, x in step_cases():
        out = evolution.step(x, model, 0.0)  # warm-up
        # E X from the weights: older revisions have dists.mean in place of
        # FinitePmf.mean
        means[name] = float(np.dot(out.probs, np.arange(out.probs.size,
                                                        dtype=np.float64)))
        timings[name] = best_of(lambda: evolution.step(x, model, 0.0))
    rng = np.random.default_rng(7)
    dense = rng.random(300_000)
    dense /= dense.sum()
    padded = np.concatenate([dense, np.zeros(1000)])
    timings["FinitePmf.n300k"] = best_of(lambda: dists.FinitePmf(dense))
    timings["FinitePmf.n300k_trailing_zeros"] = best_of(
        lambda: dists.FinitePmf(padded))
    return {"timings_s": timings, "step_means": means, **versions()}


def step_mean_rel_diff(result):
    result["step_mean_rel_diff"] = {
        k: abs(result["after"]["step_means"][k] - v) / abs(v)
        for k, v in result["before"]["step_means"].items()}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure, step_mean_rel_diff))
