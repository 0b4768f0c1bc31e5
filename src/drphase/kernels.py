"""Hot numeric kernels: direct convolution and the two samplers, in numpy.

`get_backend()` returns the one kernel table; `dists.convolve` and
`montecarlo` look its entries up at call time, so a test or a profiler can
substitute one.  Every random draw is a pure function of (seed, generation,
sample index, draw index) pushed through splitmix64 -- no sequential
generator state -- so sampler output is reproducible to the byte and
cannot depend on chunking or scheduling.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53

# Offspring-law codes understood by the count samplers.
KIND_DETERMINISTIC = 0
KIND_FINITE = 1
KIND_GEOMETRIC = 2

# Geometric sampling stops refining the cdf once the per-count mass falls
# below this; the saturated count is then returned as drawn.
_GEOM_MASS_FLOOR = 1e-18


def splitmix64(z: int) -> int:
    """One splitmix64 output for a python-int state (wraps at 2**64)."""
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def hash_path(seed: int, *path: int) -> int:
    """Fold path components into one 64-bit hash (counter-based stream)."""
    h = splitmix64(seed & _MASK)
    for part in path:
        h = splitmix64((h ^ (part & _MASK)) & _MASK)
    return h


def uniform53(h: int) -> float:
    """Map a 64-bit hash to a uniform float in [0, 1) at 53-bit resolution."""
    return (h >> 11) * _INV53


def _sm64_np(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _draw_counts_np(u: np.ndarray, kind: int, det_n: int, cdf: np.ndarray,
                    geom_p: float) -> np.ndarray:
    """Vectorized inverse-cdf draw of offspring counts from uniforms."""
    if kind == KIND_DETERMINISTIC:
        return np.full(u.shape, det_n, dtype=np.int64)
    if kind == KIND_FINITE:
        idx = np.searchsorted(cdf, u, side="right")
        np.minimum(idx, len(cdf) - 1, out=idx)
        return idx.astype(np.int64) + 1
    # Geometric on {1, 2, ...}: scan the cdf with incremental powers so the
    # float sequence matches the scalar loop of draw_count bit for bit.
    n = np.ones(u.shape, dtype=np.int64)
    c = geom_p
    m = geom_p
    k = 1
    unresolved = u >= c
    while unresolved.any():
        m *= 1.0 - geom_p
        if m <= _GEOM_MASS_FLOOR:
            break
        c += m
        k += 1
        n[unresolved] = k
        unresolved = u >= c
    return n


def draw_count(u: float, kind: int, det_n: int, cdf: np.ndarray,
               geom_p: float) -> int:
    """Scalar twin of `_draw_counts_np`: one offspring count from one uniform.

    The deterministic kind ignores `u`; a caller that draws uniforms one at
    a time (`montecarlo.tree_sample`) draws none for it.
    """
    if kind == KIND_DETERMINISTIC:
        return det_n
    if kind == KIND_FINITE:
        k = int(np.searchsorted(cdf, u, side="right"))
        return min(k, len(cdf) - 1) + 1
    k, c, m = 1, geom_p, geom_p
    while u >= c:
        m *= 1.0 - geom_p
        if m <= _GEOM_MASS_FLOOR:
            break
        c += m
        k += 1
    return k


def _mc_step(samples: np.ndarray, a: int, master: int, gen: int,
             kind: int, det_n: int, cdf: np.ndarray,
             geom_p: float) -> np.ndarray:
    npop = samples.shape[0]
    with np.errstate(over="ignore"):
        prefix = hash_path(master, gen)
        base = _sm64_np(np.uint64(prefix) ^ np.arange(npop, dtype=np.uint64))
        u0 = ((_sm64_np(base ^ np.uint64(0)) >> np.uint64(11)).astype(np.float64)
              * _INV53)
        counts = _draw_counts_np(u0, kind, det_n, cdf, geom_p)
        acc = np.zeros(npop, dtype=np.int64)
        for j in range(1, int(counts.max()) + 1):
            active = counts >= j
            h = _sm64_np(base[active] ^ np.uint64(j))
            u = (h >> np.uint64(11)).astype(np.float64) * _INV53
            pick = (u * npop).astype(np.int64)
            np.minimum(pick, npop - 1, out=pick)
            acc[active] += samples[pick]
    return np.maximum(acc - a, 0)


def _gw_sizes(seeds: np.ndarray, depth: int, kind: int, det_n: int,
              cdf: np.ndarray, geom_p: float) -> np.ndarray:
    out = np.empty(len(seeds), dtype=np.int64)
    with np.errstate(over="ignore"):
        for t in range(len(seeds)):
            z = 1
            for level in range(depth):
                prefix = hash_path(int(seeds[t]), level)
                h = _sm64_np(np.uint64(prefix) ^ np.arange(z, dtype=np.uint64))
                u = (h >> np.uint64(11)).astype(np.float64) * _INV53
                z = int(_draw_counts_np(u, kind, det_n, cdf, geom_p).sum())
            out[t] = z
    return out


# The kernel table.  Callers look entries up at call time, never bind them.
_KERNELS = SimpleNamespace(name="numpy", conv_direct=np.convolve,
                           mc_step=_mc_step, gw_sizes=_gw_sizes)


def get_backend() -> SimpleNamespace:
    """The kernel table: `conv_direct`, `mc_step` and `gw_sizes`."""
    return _KERNELS
