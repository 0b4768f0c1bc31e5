"""Before/after timings of the compound step and of FinitePmf construction.

Times `evolution.step` on fixed inputs in the FFT regime and in the direct
regime, and `FinitePmf` construction on a 300k-entry array, for two source
trees on one host: a baseline revision exported with `git archive` and the
working tree's `src/`.  Each side runs passes.ROUNDS fresh-process
passes, the sides alternating pass by pass; a pass keeps the best of
passes.REPEATS calls per case.  BENCH_step.json at the repo root gets the
host, every pass's time, the best, the quartiles over passes, whether the
two sides' interquartile ranges are disjoint, the step means (so the
outputs can be compared) and, from each side's first pass, the minor page
faults per call of each case (`ru_minflt` deltas over passes.REPEATS
calls after the timed ones).

The FFT-regime cases include one whose transform base is a direct power
that the weight floor trimmed, so the transform is shorter than the step.
A pass is a fresh process that never runs perfbench's calibration kernel,
whose 8 MB frees raise glibc's mmap and trim thresholds for the rest of a
perfbench worker: the allocator state, and with it the page faults a
fresh temporary costs, differs from a perfbench run's.  Only alternating
perfbench pairs show what a change to the step's temporaries gains in
perfbench.

    python benchmarks/bench_step.py --baseline REV
"""

import resource

from passes import REPEATS, best_of, main, versions


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


def floor_trimmed_pmf(head_size, tail_size):
    """smooth_pmf(head_size) and a flat tail of 1e-299 weights, whose
    products with it fall under the weight floor: a power's top entries
    are trimmed (tests/test_evolution.py has its own copy)."""
    import numpy as np
    from drphase.dists import FinitePmf
    head = smooth_pmf(head_size).probs * (1.0 - tail_size * 1e-299)
    return FinitePmf(np.concatenate([head, np.full(tail_size, 1e-299)]))


def minor_faults(fn):
    """Minor page faults per call of fn, over REPEATS calls."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            - before) / REPEATS


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
    cases = [(f"step.{regime}.{law}.n{size}", ModelSpec(2, x0, laws[law]),
              smooth_pmf(size, 1e-12)) for regime, law, size in sizes]
    # x^2 is direct and trimmed to 5,139 of 7,999 entries; x^3 comes from
    # a transform of it
    cases.append(("step.fft.finite13.floor_trimmed_base.n4000",
                  ModelSpec(2, x0, OffspringLaw.finite_support(
                      {1: 0.5, 3: 0.5})),
                  floor_trimmed_pmf(2000, 2000)))
    return cases


def measure():
    """Timings (s) and step means of the drphase found on sys.path."""
    import numpy as np
    from drphase import dists, evolution
    timings, means, faults = {}, {}, {}

    def case(name, fn):
        timings[name] = best_of(fn)
        faults[name] = minor_faults(fn)
    for name, model, x in step_cases():
        out = evolution.step(x, model, 0.0)  # warm-up
        # E X from the weights: older revisions have dists.mean in place of
        # FinitePmf.mean
        means[name] = float(np.dot(out.probs, np.arange(out.probs.size,
                                                        dtype=np.float64)))
        case(name, lambda: evolution.step(x, model, 0.0))
    rng = np.random.default_rng(7)
    dense = rng.random(300_000)
    dense /= dense.sum()
    padded = np.concatenate([dense, np.zeros(1000)])
    case("FinitePmf.n300k", lambda: dists.FinitePmf(dense))
    case("FinitePmf.n300k_trailing_zeros", lambda: dists.FinitePmf(padded))
    return {"timings_s": timings, "minor_faults_per_call": faults,
            "step_means": means, **versions()}


def step_mean_rel_diff(result):
    result["step_mean_rel_diff"] = {
        k: abs(result["after"]["step_means"][k] - v) / abs(v)
        for k, v in result["before"]["step_means"].items()}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, __file__, measure, step_mean_rel_diff))
