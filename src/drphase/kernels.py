"""Hot numeric kernels: direct convolution and the two samplers, in numpy.

`get_backend()` returns the one kernel table; `dists.convolve` and
`montecarlo` look its entries up at call time, so a test or a profiler can
substitute one.  Every random draw is a pure function of (seed, generation,
sample index, draw index) pushed through splitmix64 -- no sequential
generator state -- so sampler output is reproducible to the byte and
cannot depend on chunking or scheduling.  That is what lets the samplers
draw in whole arrays: `_mc_step` draws every sample's count at once and
then summand j of every sample still drawing one, and `_gw_sizes` draws
all nodes of one level of all its trees in one pass.  The table's samplers,
`mc_step(samples, a, master, gen, law)` and `gw_sizes(seeds, depth, law)`,
read the `dists.OffspringLaw` itself; every inverse-cdf draw is `inverse_cdf`.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # dists imports this module
    from .dists import OffspringLaw

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53

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
    """Vector splitmix64, worked in place on one fresh copy of `z`."""
    z = z + np.uint64(_GAMMA)
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _uniforms_np(h: np.ndarray) -> np.ndarray:
    """`uniform53` of each hash in `h`; shifts `h` in place."""
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u *= _INV53
    return u


def stream_hashes(h: int, start: int, stop: int) -> np.ndarray:
    """Hashes start..stop-1 of the counter stream under prefix hash `h`:
    hash i is splitmix64(h ^ i), so with h = hash_path(seed, *path) it is
    hash_path(seed, *path, i)."""
    with np.errstate(over="ignore"):
        return _sm64_np(np.uint64(h) ^ np.arange(start, stop, dtype=np.uint64))


def stream_uniforms(h: int, start: int, stop: int) -> np.ndarray:
    """Draws start..stop-1 of the counter stream under prefix hash `h`:
    draw i is uniform53 of `stream_hashes`' hash i."""
    return _uniforms_np(stream_hashes(h, start, stop))


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The one inverse-cdf draw: for each uniform, the index of the first
    cdf knot above it, clamped to the last index."""
    idx = np.searchsorted(cdf, u, side="right").astype(np.int64, copy=False)
    np.minimum(idx, len(cdf) - 1, out=idx)
    return idx


def _draw_counts_np(u: np.ndarray, law: OffspringLaw) -> np.ndarray:
    """Vectorized inverse-cdf draw of offspring counts (all >= 1) from a 1-d
    array of uniforms; each count depends on its own uniform alone.  The
    samplers draw no count for a deterministic law; drawn here, it takes
    the finite path, whose cdf is 0 up to the count and 1 from it."""
    if law.kind != "geometric":  # count k is knot k - 1 of the cdf
        n = inverse_cdf(np.cumsum(law.weights[1:]), u)
        n += 1
        return n
    # Geometric on {1, 2, ...}, uncut: scan the cdf with incremental powers,
    # the float sequence of the scalar quantile loop, over the draws not yet
    # resolved only.
    n = np.ones(u.shape, dtype=np.int64)
    c = m = p = law.success_prob
    k = 1
    idx = np.flatnonzero(u >= c)
    while idx.size:
        m *= 1.0 - p
        if m <= _GEOM_MASS_FLOOR:
            break
        c += m
        k += 1
        n[idx] = k
        idx = idx[u[idx] >= c]
    return n


def _mc_step(samples: np.ndarray, a: int, master: int, gen: int,
             law: OffspringLaw) -> np.ndarray:
    """One pool generation.  Sample i draws its count from hash draw 0 and
    its j-th summand's index from hash draw j of the key hash_path(master,
    gen, i); the samples still drawing summand j shrink as j grows."""
    npop = samples.shape[0]
    with np.errstate(over="ignore"):
        base = stream_hashes(hash_path(master, gen), 0, npop)
        if law.kind == "deterministic":  # draws no count
            counts, top = None, law.bound
        else:
            counts = _draw_counts_np(_uniforms_np(_sm64_np(base)), law)
            top = int(counts.max())
        acc = np.zeros(npop, dtype=np.int64)
        idx = None  # the samples drawing summand j; None while all are
        for j in range(1, top + 1):
            if counts is not None and j > 1:
                idx = (np.flatnonzero(counts >= j) if idx is None
                       else idx[counts[idx] >= j])
            keys = base if idx is None else base[idx]
            u = _uniforms_np(_sm64_np(keys ^ np.uint64(j)))
            u *= npop
            pick = u.astype(np.int64)
            np.minimum(pick, npop - 1, out=pick)
            if idx is None:
                acc += samples[pick]
            else:
                acc[idx] += samples[pick]
    acc -= a
    np.maximum(acc, 0, out=acc)
    return acc


# Most nodes one pass of `_gw_sizes` draws: a block of trees whose next
# level would exceed it is split in half (one tree is never split).  A node
# costs about 120 bytes of temporaries, so a pass stays near 8 MB; on a
# 2-core Xeon host 2^15 to 2^16 nodes ran a quarter faster than 2^18.
_NODE_BUDGET = 1 << 16


def _gw_sizes(seeds: np.ndarray, depth: int, law: OffspringLaw) -> np.ndarray:
    """Generation-`depth` sizes of one tree per seed.  Node r of level l of
    the tree with seed s draws its count from hash_path(s, l, r); all trees
    of a level are drawn in one pass."""
    with np.errstate(over="ignore"):
        roots = _sm64_np(np.asarray(seeds, dtype=np.uint64))
        return _gw_block(roots, np.ones(len(roots), np.int64), 0, depth, law)


def _gw_block(roots: np.ndarray, z: np.ndarray, level: int, depth: int,
              law: OffspringLaw) -> np.ndarray:
    """Advance the trees with root hashes `roots` (splitmix64 of their
    seeds) and sizes `z` at `level` to their sizes at `depth`."""
    for lev in range(level, depth):
        if law.kind == "deterministic":  # draws no count
            z = z * law.bound
            continue
        total = int(z.sum())
        if total > _NODE_BUDGET and len(z) > 1:
            half = len(z) // 2
            return np.concatenate([
                _gw_block(roots[:half], z[:half], lev, depth, law),
                _gw_block(roots[half:], z[half:], lev, depth, law)])
        ends = np.cumsum(z)
        starts = ends - z
        keys = np.repeat(_sm64_np(roots ^ np.uint64(lev)), z)
        rank = np.arange(total, dtype=np.int64)
        rank -= np.repeat(starts, z)
        keys ^= rank.view(np.uint64)
        counts = _draw_counts_np(_uniforms_np(_sm64_np(keys)), law)
        # segmented sum by prefix differences: exact for an empty segment
        csum = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(counts, out=csum[1:])
        z = csum[ends] - csum[starts]
    return z


# The kernel table.  Callers look entries up at call time, never bind them.
_KERNELS = SimpleNamespace(name="numpy", conv_direct=np.convolve,
                           mc_step=_mc_step, gw_sizes=_gw_sizes)


def get_backend() -> SimpleNamespace:
    """The kernel table: `conv_direct`, `mc_step` and `gw_sizes`."""
    return _KERNELS
