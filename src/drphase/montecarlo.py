"""Stochastic cross-checks of the exact engine.

Two independent estimators live here:

* a population (mean-field) simulator: a fixed pool of P samples is pushed
  through the recursion by resampling summands uniformly from the previous
  pool.  Cost per generation is O(P * E N); the price is an O(1/P)
  correlation bias, documented and accepted, since the exact engine is the
  source of truth and the simulator is a sanity layer.  `pool_means` is
  its one run, each generation's mean with a standard error that carries
  every earlier generation's resampling error; the CLI's `simulate`
  prints its rows and `mc_estimate_q` reads its last;
* an exact tree sampler for small depths, with no bias at all, whose cost
  grows like (E N)^depth per sample.

Every random draw is a pure function of (master seed, generation, sample
index, draw index), so runs reproduce bit for bit regardless of host or
scheduling, and every sampler draws in whole arrays: the pool generation
and the tree sizes in the `kernels` table, and the tree sampler's stream
up front, in blocks, before its recursion reads it.  The kernels take the
`OffspringLaw` itself, and the x0 draws here and every count share
`kernels.inverse_cdf`; every x0 is drawn from its atoms, where a value of
2^63 or more, past int64, is an OverflowError.  A geometric N is drawn
from the untruncated law, whose count cdf runs to the last count of mass
above 1e-18, so no truncation cutoff is consulted here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .dists import ModelSpec, OffspringLaw
from .evolution import q_bounds

# Exact tree sampling costs ~(E N)^depth draws per sample; refuse beyond this.
TREE_DEPTH_LIMIT = 12
# log of the largest float: math.exp of it is finite
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class Population:
    """Immutable pool of samples at one generation.

    The master seed plus (generation, sample index, draw index) fully
    determine every draw used to produce the pool, which is what makes
    populations reproducible across hosts.
    """

    samples: np.ndarray
    generation: int
    master_seed: int

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.int64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def size(self) -> int:
        return int(self.samples.shape[0])

    def mean(self) -> float:
        return float(self.samples.mean())

    def std(self) -> float:
        return float(self.samples.std(ddof=1))


class QEstimate(NamedTuple):
    q_upper_hat: float
    q_lower_hat: float
    stderr: float


def init_population(model: ModelSpec, pop_size: int, master_seed: int
                    ) -> Population:
    """Quantile-stratified start: floor(P*w) copies of each support value,
    remainder slots drawn from the fractional residuals."""
    if pop_size < 1:
        raise ValueError(f"population size must be >= 1, got {pop_size}")
    weights, values = _x0_atoms(model)
    counts = np.floor(pop_size * weights).astype(np.int64)
    samples = np.repeat(values, counts)
    short = pop_size - int(counts.sum())
    if short > 0:
        fracs = pop_size * weights - counts
        total = float(fracs.sum())
        cdf = np.cumsum(fracs / total) if total > 0 else np.cumsum(weights)
        u = kernels.stream_uniforms(kernels.hash_path(master_seed, 0), 0,
                                    short)
        samples = np.concatenate([samples, values[kernels.inverse_cdf(cdf, u)]])
    return Population(samples, 0, master_seed)


def _x0_atoms(model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """(weights, int64 values) of x0's atoms; OverflowError past int64."""
    w, k = model.x0.atoms
    if k[-1] >= 2.0 ** 63:
        raise OverflowError(f"x0 value {int(k[-1])} does not fit in int64")
    return w, k.astype(np.int64)


def mc_step(pop: Population, model: ModelSpec) -> Population:
    """One resampling generation of the whole pool."""
    if pop.size == 0:
        raise ValueError("population is empty")
    gen = pop.generation + 1
    out = kernels.get_backend().mc_step(pop.samples, model.a, pop.master_seed,
                                        gen, model.offspring)
    return Population(out, gen, pop.master_seed)


def _pool_run(model: ModelSpec, pop_size: int, steps: int, seed: int
              ) -> list[tuple[float, float]]:
    """(pool mean, w) at each generation n = 0..steps of one pool run:
    init_population, then `steps` calls of mc_step.

    The pool mean at generation n carries every generation's resampling
    error, and each later generation multiplies an error by at most
    mu = E N, so its variance is mu^(2n) w_n with w_n = sum over k <= n of
    s_k^2 / (P mu^(2k)), s_k the pool's sample std at generation k: w_n is
    the variance in q units, which stays in float range however deep the
    run.  The stratified start adds none (w_0 = 0), and a pool of one
    sample, whose std is undefined, keeps w 0.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    log_mu = math.log(model.offspring.mean)
    pop = init_population(model, pop_size, seed)
    rows = [(pop.mean(), 0.0)]
    w = 0.0
    for n in range(1, steps + 1):
        pop = mc_step(pop, model)
        if pop_size > 1:
            w += (pop.std() * math.exp(-n * log_mu)) ** 2 / pop_size
        rows.append((pop.mean(), w))
    return rows


def pool_means(model: ModelSpec, pop_size: int, steps: int, seed: int
               ) -> list[tuple[float, float]]:
    """(pool mean, standard error) at each generation n = 0..steps of one
    pool run; the se is mu^n sqrt(w_n) (see `_pool_run`), formed in log
    space where mu^n leaves float range: inf only where the se does."""
    mu = model.offspring.mean
    return [(mean, _grown_se(mu, n, w)) for n, (mean, w) in
            enumerate(_pool_run(model, pop_size, steps, seed))]


def _grown_se(mu: float, n: int, w: float) -> float:
    """mu^n sqrt(w), in log space where mu^n leaves float range."""
    if w == 0.0:
        return 0.0
    try:
        return mu ** n * math.sqrt(w)
    except OverflowError:
        log_se = n * math.log(mu) + 0.5 * math.log(w)
        return math.exp(log_se) if log_se <= _LOG_MAX else math.inf


def mc_estimate_q(model: ModelSpec, pop_size: int, steps: int, seed: int
                  ) -> QEstimate:
    """Plug the generation-`steps` pool mean into the exact bound formulas;
    the standard error is the pool run's in q units, sqrt(w_steps)."""
    if pop_size < 1000:
        raise ValueError(f"population size must be >= 1000 for estimates, "
                         f"got {pop_size}")
    mean, w = _pool_run(model, pop_size, steps, seed)[-1]
    upper, lower = q_bounds(mean, steps, model)
    return QEstimate(upper, lower, math.sqrt(w))


def ancestor_counts(offspring: OffspringLaw, depth: int, n_trees: int,
                    seed: int) -> np.ndarray:
    """Generation sizes of n_trees independent trees (one derived seed each)."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    seeds = kernels.stream_hashes(kernels.hash_path(seed), 0, n_trees)
    return kernels.get_backend().gw_sizes(seeds, depth, offspring)


def tree_sample(model: ModelSpec, n: int, seed: int) -> int:
    """One exact draw of the generation-n value by full tree recursion.

    Unbiased but exponential in n, hence the depth limit; intended as a
    verification mode against both the pool simulator and the exact engine.
    """
    if not 0 <= n <= TREE_DEPTH_LIMIT:
        raise ValueError(f"tree sampling supports 0 <= n <= {TREE_DEPTH_LIMIT}, "
                         f"got {n}")
    weights, values = _x0_atoms(model)
    x0_cdf = np.cumsum(weights)
    law = model.offspring
    deterministic = law.kind == "deterministic"
    a = model.a
    # Draw i of the stream is uniform53(hash_path(seed, i)), and the
    # recursion takes draws in depth-first order: one per leaf for its x0
    # value and one per inner node for its count (none for a deterministic
    # N).  Both readings of every draw are made up front, in blocks of at
    # least 1024 that double when the recursion runs past them, so that
    # few blocks build their inverse-cdf tables.
    h0 = kernels.hash_path(seed)
    leaf: list[int] = []
    kids: list[int] = []

    def extend(need: int) -> None:
        start = len(leaf)
        stop = max(2 * start, 1024, need)
        u = kernels.stream_uniforms(h0, start, stop)
        leaf.extend(values[kernels.inverse_cdf(x0_cdf, u)].tolist())
        if not deterministic:
            kids.extend(kernels._draw_counts_np(u, law).tolist())

    pos = 0

    def rec(level: int) -> int:
        nonlocal pos
        if deterministic:
            n_kids = law.bound
        else:
            if pos >= len(kids):
                extend(pos + 1)
            n_kids = kids[pos]
            pos += 1
        if level == 1:  # the children are leaves, read in one slice
            if pos + n_kids > len(leaf):
                extend(pos + n_kids)
            total = sum(leaf[pos:pos + n_kids])
            pos += n_kids
        else:
            total = 0
            for _ in range(n_kids):
                total += rec(level - 1)
        return max(total - a, 0)

    if n == 0:
        extend(1)
        return leaf[0]
    return rec(n)
