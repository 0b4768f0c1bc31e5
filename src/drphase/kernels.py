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
read the `dists.OffspringLaw` itself; every inverse-cdf draw, of a finite
or a geometric count or of an x0 value, is `inverse_cdf`, one guide-table
lookup per uniform and a search for the few it cannot place.
"""

from __future__ import annotations

import math
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

# A geometric count cdf stops at the last count whose mass is above this;
# a uniform above its last knot draws that saturated count.
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


# A guide table holds about one cell per _GUIDE_LOAD uniforms, and at most
# 2^_GUIDE_MAX_BITS cells.
_GUIDE_LOAD = 16
_GUIDE_MAX_BITS = 10


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The one inverse-cdf draw: for each uniform u >= 0, the index of the
    first cdf knot above it, clamped to the last index, which is
    searchsorted(cdf, u, side="right") through a guide table (Chen and
    Asau 1974).  The table cuts [0, 1) into 2^b equal cells, and entry c
    is the index of the first knot above c / 2^b.  A uniform's cell is
    floor(u 2^b), exact since 2^b is a power of two (u >= 1 is clipped to
    the last cell), so its entry is a lower bound on its index, and the
    index itself unless that knot lies in the cell at or below the
    uniform: only those uniforms are searched."""
    last = len(cdf) - 1
    bits = min(max(len(u) // _GUIDE_LOAD, 1).bit_length() - 1,
               _GUIDE_MAX_BITS)
    cells = 1 << bits
    edges = np.append(np.arange(cells) / cells, np.inf)
    guide = np.searchsorted(cdf, edges, side="right").astype(np.int64)
    holds = guide[1:] > guide[:-1]  # the cell holds a knot above its edge
    guide = np.minimum(guide[:-1], last)
    cell = np.empty(len(u), dtype=np.int64)
    np.multiply(u, cells, out=cell, casting="unsafe")
    hit = np.flatnonzero(holds.take(cell, mode="clip"))
    # in place (take reads each slot's cell before it writes the slot): a
    # second array of len(u) here raised a simulate run's peak RSS by 4 MB
    idx = guide.take(cell, mode="clip", out=cell)
    hit = hit[cdf.take(idx[hit]) <= u[hit]]
    found = np.searchsorted(cdf, u[hit], side="right")
    idx[hit] = np.minimum(found, last)
    return idx


def _geometric_cdf(p: float) -> np.ndarray:
    """Count cdf of a geometric N on {1, 2, ...} as the scalar quantile
    loop forms it: c_1 = p, then c_{k+1} = c_k + m_{k+1} with the
    incremental products m_{k+1} = m_k (1 - p), up to the last count whose
    mass m_k is above _GEOM_MASS_FLOOR.  `inverse_cdf`'s clamp to the last
    knot then returns that count for every uniform above the cdf."""
    q = 1.0 - p
    # m_k = p q^(k-1) reaches the floor after about this many counts; the
    # products drift by a few ulp, so a short guess is doubled
    n = max(2, int(math.log(_GEOM_MASS_FLOOR / p) / math.log(q)) + 3)
    while True:
        mass = np.full(n, q)
        mass[0] = p
        np.multiply.accumulate(mass, out=mass)
        low = np.flatnonzero(mass[1:] <= _GEOM_MASS_FLOOR)
        if low.size:
            break
        n *= 2
    knots = mass[:low[0] + 1]
    np.add.accumulate(knots, out=knots)
    return knots


def _draw_counts_np(u: np.ndarray, law: OffspringLaw) -> np.ndarray:
    """Vectorized inverse-cdf draw of offspring counts (all >= 1) from a 1-d
    array of uniforms; each count depends on its own uniform alone.  Count k
    is knot k - 1 of the cdf: a finite law's cumulative weights, or a
    geometric law's `_geometric_cdf`.  The samplers draw no count for a
    deterministic law; drawn here, its cdf is 0 up to the count and 1 from
    it."""
    cdf = (_geometric_cdf(law.success_prob) if law.kind == "geometric"
           else np.cumsum(law.weights[1:]))
    n = inverse_cdf(cdf, u)
    n += 1
    return n


def _mc_step(samples: np.ndarray, a: int, master: int, gen: int,
             law: OffspringLaw) -> np.ndarray:
    """One pool generation.  Sample i draws its count from hash draw 0 and
    its j-th summand's index from hash draw j of the key hash_path(master,
    gen, i); the samples still drawing summand j shrink as j grows.  Sums
    that could pass int64 (top count times top sample) are an OverflowError."""
    npop = samples.shape[0]
    with np.errstate(over="ignore"):
        base = stream_hashes(hash_path(master, gen), 0, npop)
        if law.kind == "deterministic":  # draws no count
            counts, top = None, law.bound
        else:
            counts = _draw_counts_np(_uniforms_np(_sm64_np(base)), law)
            top = int(counts.max())
        peak = int(samples.max())
        if top * peak > np.iinfo(np.int64).max:
            raise OverflowError(f"pool sums of generation {gen} can pass "
                                f"int64: {top} summands of up to {peak}")
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
