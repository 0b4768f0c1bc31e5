"""Loop versions of the samplers, kept as references for the batched kernels.

These are the kernels as they were before the samplers drew whole arrays:
one tree at a time in `gw_sizes_loop`, a full boolean mask per summand in
`mc_step_masked`, one uniform at a time in `tree_sample_recursive` and
`init_population_loop`, and every count through the scalar `draw_count`.
They take the `OffspringLaw` as the kernels do, but share only the scalar
`hash_path`/`uniform53` (and the geometric mass floor) with the package, so
a batched kernel that agrees with them draws the same stream.
"""

import numpy as np

from drphase import kernels
from drphase.kernels import hash_path, uniform53


def sm64(z):
    """Vector splitmix64, written out without in-place steps."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniforms(h):
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def draw_count(u, law):
    """One offspring count from one uniform (a deterministic N ignores u)."""
    if law.kind == "deterministic":
        return law.bound
    if law.kind == "finite":
        cdf = np.cumsum(law.weights[1:])
        k = int(np.searchsorted(cdf, u, side="right"))
        return min(k, len(cdf) - 1) + 1
    p = law.success_prob
    k, c, m = 1, p, p
    while u >= c:
        m *= 1.0 - p
        if m <= kernels._GEOM_MASS_FLOOR:
            break
        c += m
        k += 1
    return k


def draw_counts(u, law):
    return np.array([draw_count(float(x), law) for x in u], dtype=np.int64)


def mc_step_masked(samples, a, master, gen, law):
    npop = samples.shape[0]
    with np.errstate(over="ignore"):
        prefix = hash_path(master, gen)
        base = sm64(np.uint64(prefix) ^ np.arange(npop, dtype=np.uint64))
        u0 = uniforms(sm64(base ^ np.uint64(0)))
        counts = draw_counts(u0, law)
        acc = np.zeros(npop, dtype=np.int64)
        for j in range(1, int(counts.max()) + 1):
            active = counts >= j
            u = uniforms(sm64(base[active] ^ np.uint64(j)))
            pick = (u * npop).astype(np.int64)
            np.minimum(pick, npop - 1, out=pick)
            acc[active] += samples[pick]
    return np.maximum(acc - a, 0)


def gw_sizes_loop(seeds, depth, law):
    out = np.empty(len(seeds), dtype=np.int64)
    with np.errstate(over="ignore"):
        for t in range(len(seeds)):
            z = 1
            for level in range(depth):
                prefix = hash_path(int(seeds[t]), level)
                h = sm64(np.uint64(prefix) ^ np.arange(z, dtype=np.uint64))
                z = int(draw_counts(uniforms(h), law).sum())
            out[t] = z
    return out


def pick_value(values, cdf, u):
    pick = int(np.searchsorted(cdf, u, side="right"))
    return int(values[min(pick, len(values) - 1)])


def init_population_loop(model, pop_size, master_seed):
    """Samples of `init_population`, remainder slots drawn one by one."""
    values = model.x0.support
    weights = model.x0.probs[values]
    counts = np.floor(pop_size * weights).astype(np.int64)
    samples = np.repeat(values.astype(np.int64), counts)
    short = pop_size - int(counts.sum())
    if short > 0:
        fracs = pop_size * weights - counts
        total = float(fracs.sum())
        cdf = np.cumsum(fracs / total) if total > 0 else np.cumsum(weights)
        extra = [pick_value(values, cdf,
                            uniform53(hash_path(master_seed, 0, slot)))
                 for slot in range(short)]
        samples = np.concatenate([samples, np.array(extra, dtype=np.int64)])
    return samples


def tree_sample_recursive(model, n, seed):
    """`tree_sample` drawing uniform i as uniform53(hash_path(seed, i)) at
    the moment the recursion needs it."""
    values = model.x0.support
    x0_cdf = np.cumsum(model.x0.probs[values])
    law = model.offspring
    counter = 0

    def next_u():
        nonlocal counter
        u = uniform53(hash_path(seed, counter))
        counter += 1
        return u

    def rec(level):
        if level == 0:
            return pick_value(values, x0_cdf, next_u())
        n_kids = law.bound if law.kind == "deterministic" else \
            draw_count(next_u(), law)
        total = sum(rec(level - 1) for _ in range(n_kids))
        return max(total - model.a, 0)

    return rec(n)
