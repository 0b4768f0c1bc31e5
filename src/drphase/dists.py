"""Finite distributions on nonnegative integers, with leak accounting.

Weights live in a dense float64 array indexed by value.  Mass removed by
upper-tail truncation, by sub-1e-300 cleanup, or by cutting an unbounded
offspring law is never renormalized away: it accumulates in `leaked_mass`.
Retained means and generating-function values are therefore certified
lower bounds for the untruncated quantities.  Everything here is exact
algebra: `convolve` is always the direct sum.  The package's one transform
is `evolution._spectral_powers`, which `evolution.step` takes once a power
would cost more than `_DIRECT_CONV_OPS` multiply-adds.

`pgf_pair` and `log_pgf_pair` evaluate a law's generating function and its
derivative at one point in one pass over the support, in float64 and in
log space.  The float pair returns inf without evaluating when
s^(support_max-1) is certain to overflow.  `pgf_eval`, `pgf_deriv`,
`log_pgf_eval` and `log_pgf_deriv` are one side of those pairs, and
`OffspringLaw.pgf_pair`/`log_pgf_pair` run them on the offspring weights.

An initial law is a `FinitePmf` or a `GeometricPmf`, which keeps
P(X = k) = r (1-r)^k in closed form and has no weight array.  Both have
the `pgf_pair(s)`/`log_pgf_pair(s)` methods the criteria read; the
consumers that read weights (evolution, the x0 draws) take them from
`as_finite`, which cuts a geometric law once, with `geometric_x0_pmf`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import kernels

# |sum(weights) + leaked_mass - 1| must stay inside this band.
MASS_TOL = 1e-12
# Weights below this are swept into leaked_mass during convolution.
WEIGHT_FLOOR = 1e-300
# Upper-tail mass cut from a geometric law's weights: an offspring law
# books it as truncation_leak; an initial law (as_finite) leaves it out
# unrecorded, being small enough that the retained weights still pass the
# mass-conservation band with zero leak.
GEOMETRIC_TAIL = 1e-14
# evolution.step's budget: it convolves powers directly up to this many
# multiply-adds and takes the rest of the mixture from one spectrum.
_DIRECT_CONV_OPS = 1 << 24
# s^k overflows float64 for k log s above log(DBL_MAX) = 709.78...
_LOG_OVERFLOW = 710.0
# numpy refuses a float64 array of this many entries or more with a
# ValueError: its byte count does not fit in intp.
_MAX_LENGTH = np.iinfo(np.intp).max // 8 + 1


def zeros(length: int) -> np.ndarray:
    """np.zeros(length), with a length numpy refuses outright raised as the
    MemoryError of any other failed allocation."""
    if length >= _MAX_LENGTH:
        raise MemoryError(f"cannot allocate {length} float64 weights: "
                          f"numpy's limit is {_MAX_LENGTH - 1}")
    return np.zeros(length)


@dataclass(frozen=True)
class FinitePmf:
    """Dense pmf over {0, 1, ..., support_max} plus mass tracked as leaked.

    probs[v] is the retained probability of value v; trailing zeros are
    trimmed at construction so support_max == len(probs) - 1.  The invariant
    sum(probs) + leaked_mass == 1 is enforced to MASS_TOL.
    """

    probs: np.ndarray
    leaked_mass: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("weights must form a one-dimensional array")
        if probs.size and not np.all(np.isfinite(probs)):
            raise ValueError("weights must be finite")
        if np.any(probs < 0.0):
            raise ValueError("weights must be nonnegative")
        probs = probs[: _trimmed_size(probs)]
        leak = float(self.leaked_mass)
        if not 0.0 <= leak <= 1.0 + MASS_TOL:
            raise ValueError(f"leaked_mass {leak} outside [0, 1]")
        total = float(probs.sum()) + leak
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total!r} outside the 1 +/- {MASS_TOL} band")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "leaked_mass", leak)

    @classmethod
    def from_dict(cls, weights: Mapping[int, float], leaked_mass: float = 0.0) -> "FinitePmf":
        """Build from a value -> probability mapping; exact zeros are dropped."""
        if not weights:
            return cls(np.zeros(0), leaked_mass)
        for v in weights:
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"support value {v!r} is not a nonnegative integer")
        top = max(weights)
        probs = zeros(int(top) + 1)
        for v, w in weights.items():
            probs[int(v)] = w
        return cls(probs, leaked_mass)

    @classmethod
    def delta(cls, value: int) -> "FinitePmf":
        return cls.from_dict({int(value): 1.0})

    @property
    def support_max(self) -> int:
        return self.probs.size - 1

    @property
    def total_mass(self) -> float:
        return float(self.probs.sum())

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs)

    def as_dict(self) -> dict[int, float]:
        return {int(v): float(self.probs[v]) for v in self.support}

    def mass_at(self, value: int) -> float:
        if 0 <= value < self.probs.size:
            return float(self.probs[value])
        return 0.0

    def pgf_pair(self, s: float) -> tuple[float, float]:
        """dists.pgf_pair of this law."""
        return pgf_pair(self, s)

    def log_pgf_pair(self, s: float) -> tuple[float, float]:
        """dists.log_pgf_pair of this law."""
        return log_pgf_pair(self, s)


@dataclass(frozen=True)
class GeometricPmf:
    """P(X = k) = r (1-r)^k on {0, 1, ...}, kept in closed form.

    E s^X = r / (1 - (1-r) s) and its derivative r (1-r) / (1 - (1-r) s)^2
    are finite for (1-r) s < 1; at and beyond that radius both pairs
    return +inf.  No weight array exists until a consumer that reads
    weights asks `as_finite` for one: `cut`, built by geometric_x0_pmf on
    first use and kept, so all of one model's consumers share one array.
    """

    r: float

    def __post_init__(self):
        r = float(self.r)
        if not 0.0 < r < 1.0:
            raise ValueError(
                f"success probability must lie in (0, 1), got {self.r}")
        object.__setattr__(self, "r", r)

    def pgf_pair(self, s: float) -> tuple[float, float]:
        """(E s^X, d/ds E s^X); (inf, inf) where the series diverges."""
        _check_argument(s)
        q = 1.0 - self.r
        if q * s >= 1.0:
            return math.inf, math.inf
        den = 1.0 - q * s
        return self.r / den, self.r * q / den ** 2

    def log_pgf_pair(self, s: float) -> tuple[float, float]:
        """(log E s^X, log d/ds E s^X): the logs of pgf_pair, which stays
        below 1e33 short of the radius (1 - (1-r) s >= 2^-53)."""
        f, fp = self.pgf_pair(s)
        return math.log(f), math.log(fp)

    @functools.cached_property
    def cut(self) -> FinitePmf:
        """geometric_x0_pmf(r), built on first use and kept."""
        return geometric_x0_pmf(self.r)


def geometric_x0_pmf(r: float) -> FinitePmf:
    """P(X0 = k) = r (1-r)^k with the upper tail beyond GEOMETRIC_TAIL cut off,
    left unnormalized (the missing mass stays under the conservation band)."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"success probability must lie in (0, 1), got {r}")
    w, tail = _geometric_weights(r, GEOMETRIC_TAIL)
    # np.power's relative error grows ~3e-17 * k, and the cutoff scales as
    # 1/r, so below r ~ 1e-4 the float total drifts out of the conservation
    # band.  Re-pin the largest weight to the analytic total 1 - q^n.
    gap = float((1.0 - tail) - np.sum(w, dtype=np.longdouble))
    if gap != 0.0 and abs(gap) <= 1e-3 * r:
        w[0] += gap
    return FinitePmf(w)


def _geometric_weights(p: float, tail: float) -> tuple[np.ndarray, float]:
    """(w, q^n): w[k] = p q^k for k < n, q = 1 - p, n >= 2 the fewest
    weights whose upper tail q^n is below `tail`.  A p below float
    resolution (1 - p rounds to 1) has no such n: OverflowError."""
    q = 1.0 - p
    if q == 1.0:
        raise OverflowError(f"geometric success probability {p!r} is below "
                            f"float resolution: 1 - p rounds to 1")
    n = max(2, math.ceil(math.log(tail) / math.log(q)))
    while q ** n >= tail:
        n += 1
    return p * np.power(q, np.arange(n, dtype=np.float64)), float(q ** n)


def as_finite(x0: FinitePmf | GeometricPmf) -> FinitePmf:
    """An initial law as weights, for the consumers that read them
    (evolution.evolve, evolution.gf_orbit, the x0 draws): a FinitePmf as it
    is, a GeometricPmf as its `cut`."""
    return x0.cut if isinstance(x0, GeometricPmf) else x0


def _trimmed_size(probs: np.ndarray) -> int:
    """Length of probs without its trailing zeros.

    Checks the last entry first and scans back in growing blocks only when
    it is zero, so a pmf without trailing zeros costs O(1) here.
    """
    end, block = probs.size, 64
    while end and probs[end - 1] == 0.0:
        tail = probs[max(0, end - block):end]
        nz = np.flatnonzero(tail)
        if nz.size:
            return end - tail.size + int(nz[-1]) + 1
        end -= tail.size
        block *= 2
    return end


def mean(p: FinitePmf) -> float:
    """Retained first moment (a lower bound when leaked_mass > 0)."""
    return float(np.dot(p.probs, np.arange(p.probs.size, dtype=np.float64)))


def _check_argument(s: float) -> None:
    if s <= 0.0:
        raise ValueError(f"pgf argument must be positive, got {s}")


def _support(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """(w, k, j, dense): the positive weights of probs, their values as
    float64, the index of the first value >= 1, and whether probs has no
    zero weight.

    A dense array gives probs itself and an arange: the numbers flatnonzero
    and fancy indexing would copy out, without the copies.
    """
    if np.count_nonzero(probs) == probs.size:
        return probs, np.arange(probs.size, dtype=np.float64), 1, True
    idx = np.flatnonzero(probs)
    j = int(idx.size > 0 and idx[0] == 0)
    return probs[idx], idx.astype(np.float64), j, False


def _logsumexp(t: np.ndarray) -> float:
    """log(sum(exp(t))) for a non-empty array of finite terms.

    The max-shifted sum with the maximal terms split off (Blanchard, Higham
    & Higham, IMA J. Numer. Anal. 41(4), 2021), in exactly the operations
    scipy.special.logsumexp performs, so results agree bit for bit, without
    its fixed per-call cost.  The numpy scalar log1p/log are kept on
    purpose: math.log1p and math.log can differ in the last bit.
    """
    top = t.max()
    at_top = t == top
    m = np.count_nonzero(at_top)
    e = t - top
    np.exp(e, out=e)
    e[at_top] = 0.0
    s = e.sum() / m
    return float(np.log1p(s) + np.log(m) + top)


def pgf_pair(p: FinitePmf, s: float) -> tuple[float, float]:
    """(E s^X, d/ds E s^X) over the retained weights; overflows to inf for
    huge supports.

    When (support_max - 1) log s > 710, s^(support_max - 1) is certain to
    overflow, so both sums are inf; they are returned as such without
    evaluating anything.  A dense law's derivative reads its powers
    s^(k-1) off the value's s^k.
    """
    _check_argument(s)
    w, k, j, dense = _support(p.probs)
    if k.size and s > 1.0 and (k[-1] - 1.0) * math.log(s) > _LOG_OVERFLOW:
        return math.inf, math.inf
    powers = np.power(float(s), k)
    value = float(np.dot(w, powers))
    k1 = k[j:]
    shifted = powers[:-1] if dense else np.power(float(s), k1 - 1.0)
    return value, float(np.dot(w[j:] * k1, shifted))


def log_pgf_pair(p: FinitePmf, s: float) -> tuple[float, float]:
    """(log E s^X, log d/ds E s^X), stable far beyond float64 range."""
    _check_argument(s)
    return _log_pgf_pair(p.probs, math.log(s))


def _log_pgf_pair(probs: np.ndarray, log_s: float) -> tuple[float, float]:
    """log_pgf_pair of a weight array, from log s, so that s itself may lie
    beyond float64 range (the F_n(s) of evolution.gf_orbit).  One pass over
    the support and the log weights; a dense array's (k-1) log s terms are
    read off the value's k log s terms."""
    w, k, j, dense = _support(probs)
    if k.size == 0:
        return -math.inf, -math.inf
    log_w = np.log(w)
    k_log_s = k * log_s
    log_value = _logsumexp(log_w + k_log_s)
    k1 = k[j:]
    if k1.size == 0:
        return log_value, -math.inf
    shifted = k_log_s[:-1] if dense else (k1 - 1.0) * log_s
    return log_value, _logsumexp(log_w[j:] + np.log(k1) + shifted)


def pgf_eval(p: FinitePmf, s: float) -> float:
    """E s^X over the retained weights; overflows to inf for huge supports."""
    return pgf_pair(p, s)[0]


def pgf_deriv(p: FinitePmf, s: float) -> float:
    """d/ds E s^X over the retained weights."""
    return pgf_pair(p, s)[1]


def log_pgf_eval(p: FinitePmf, s: float) -> float:
    """log E s^X, stable far beyond float64 range."""
    return log_pgf_pair(p, s)[0]


def log_pgf_deriv(p: FinitePmf, s: float) -> float:
    """log of d/ds E s^X, stable far beyond float64 range."""
    return log_pgf_pair(p, s)[1]


def convolve(p: FinitePmf, q: FinitePmf) -> FinitePmf:
    """Law of the sum of independents, by the direct O(n m) sum at any
    size; leaks combine as 1-(1-lp)(1-lq)."""
    leak = p.leaked_mass + q.leaked_mass - p.leaked_mass * q.leaked_mass
    if p.probs.size == 0 or q.probs.size == 0:
        return FinitePmf(np.zeros(0), 1.0)
    w = kernels.get_backend().conv_direct(p.probs, q.probs)
    return FinitePmf(w, leak + sweep_floor(w))


def sweep_floor(w: np.ndarray) -> float:
    """Zero the positive weights of w below WEIGHT_FLOOR, in place, and
    return their total, which the caller books as leaked mass."""
    tiny = (w > 0.0) & (w < WEIGHT_FLOOR)
    if not tiny.any():
        return 0.0
    swept = float(w[tiny].sum())
    w[tiny] = 0.0
    return swept


def truncate(p: FinitePmf, tail_eps: float) -> FinitePmf:
    """Cut the largest upper tail whose total mass is <= tail_eps.

    Removed mass moves into leaked_mass; nothing is renormalized, so the
    survivor is a certified sub-law of the input.
    """
    if not 0.0 <= tail_eps < 1.0:
        raise ValueError(f"tail_eps must lie in [0, 1), got {tail_eps}")
    if p.probs.size == 0:
        return p
    rev_cum = np.cumsum(p.probs[::-1])
    k = int(np.searchsorted(rev_cum, tail_eps, side="right"))
    if k == 0:
        return p
    keep = p.probs.size - k
    removed = float(p.probs[keep:].sum())
    return FinitePmf(p.probs[:keep], p.leaked_mass + removed)


@dataclass(frozen=True)
class OffspringLaw:
    """Law of the number of replicas summed per step.

    kind is 'deterministic', 'finite', or 'geometric'.  weights is a dense
    pmf over counts (weights[0] == 0) ending at its last positive weight.
    A geometric law's weights stop at the smallest cutoff whose upper tail
    is below GEOMETRIC_TAIL, with the cut mass recorded in truncation_leak;
    success_prob keeps the uncut law for the samplers.  mean is exact for
    all three kinds (1/p for geometric, independent of any cutoff).  bound
    is the essential supremum, absent for geometric laws: they stay
    unbounded no matter the cutoff, so criteria that need a bound never see
    one.
    """

    kind: str
    mean: float
    weights: np.ndarray
    bound: int | None = None
    truncation_leak: float = 0.0
    success_prob: float | None = None

    def __post_init__(self):
        if self.kind not in ("deterministic", "finite", "geometric"):
            raise ValueError(f"unknown offspring kind {self.kind!r}")
        if (self.bound is not None) != (self.kind != "geometric"):
            raise ValueError("bound must be present exactly for non-geometric kinds")
        if self.mean <= 1.0:
            raise ValueError(f"offspring mean must exceed 1, got {self.mean}")
        w = np.asarray(self.weights, dtype=np.float64)
        if (w.ndim != 1 or w.size < 2 or w[0] != 0.0 or w[-1] <= 0.0
                or np.any(w < 0.0)):
            raise ValueError("offspring weights must be a dense pmf over counts "
                             ">= 1 ending at a positive weight")
        if abs(float(w.sum()) + self.truncation_leak - 1.0) > MASS_TOL:
            raise ValueError("offspring weights plus truncation_leak must sum to 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def deterministic(cls, n: int) -> "OffspringLaw":
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError("a constant replica count must be an integer >= 2 "
                             "(the count must exceed 1 with positive probability)")
        w = zeros(int(n) + 1)
        w[int(n)] = 1.0
        return cls("deterministic", float(n), w, int(n))

    @classmethod
    def finite_support(cls, pmf: Mapping[int, float]) -> "OffspringLaw":
        """Counts >= 1 with weights checked and trimmed by FinitePmf; the
        bound is the largest count of positive probability."""
        for k in pmf:
            if not isinstance(k, (int, np.integer)) or k < 1:
                raise ValueError(f"offspring count {k!r} is not an integer >= 1")
        law = FinitePmf.from_dict(pmf)
        if float(law.probs[2:].sum()) <= 0.0:
            raise ValueError("the replica count must exceed 1 with positive probability")
        return cls("finite", mean(law), law.probs, law.support_max)

    @classmethod
    def geometric(cls, p: float) -> "OffspringLaw":
        """Success-probability p law on {1, 2, ...}; P(N = k) = p (1-p)^(k-1),
        with weights cut at GEOMETRIC_TAIL."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"geometric success probability must lie in (0, 1), got {p}")
        return cls._cut_geometric(float(p), GEOMETRIC_TAIL)

    def with_cutoff(self, tail: float) -> "OffspringLaw":
        """A geometric law recut at another tail; other kinds as they are."""
        if self.kind != "geometric":
            return self
        return self._cut_geometric(self.success_prob, tail)

    @classmethod
    def _cut_geometric(cls, p: float, tail: float) -> "OffspringLaw":
        """The success-p geometric law with weights up to the smallest cutoff
        whose upper tail is below `tail`; the tail becomes truncation_leak."""
        weights, leak = _geometric_weights(p, tail)
        w = np.concatenate(([0.0], weights))
        # np.power errs by ~3e-17 * k relative, so below p ~ 5e-5 the total
        # can leave the MASS_TOL band; only then re-pin the largest weight.
        if abs(float(w.sum()) + leak - 1.0) > MASS_TOL:
            w[1] += float((1.0 - leak) - np.sum(w, dtype=np.longdouble))
        return cls("geometric", 1.0 / p, w, None, leak, p)

    def pgf_pair(self, v: float) -> tuple[float, float]:
        """(E v^N, d/dv E v^N) of the ideal law: closed form for geometric,
        sums over the weights otherwise."""
        if self.kind != "geometric":
            return pgf_pair(FinitePmf(self.weights), v)
        p, q = self.success_prob, 1.0 - self.success_prob
        if q * v >= 1.0:
            raise ValueError(f"geometric pgf diverges at argument {v}")
        return p * v / (1.0 - q * v), p / (1.0 - q * v) ** 2

    def log_pgf_pair(self, log_v: float) -> tuple[float, float]:
        """(log E v^N, log d/dv E v^N) over the weights, from log v."""
        return _log_pgf_pair(self.weights, log_v)


@dataclass(frozen=True)
class ModelSpec:
    """One recursion instance: X' = (sum of N replicas of X, minus a)+.

    x0 is a FinitePmf or a GeometricPmf; the latter needs no check here,
    being leak-free and never constant."""

    a: int
    x0: FinitePmf | GeometricPmf
    offspring: OffspringLaw

    def __post_init__(self):
        if not isinstance(self.a, (int, np.integer)) or self.a < 1:
            raise ValueError(f"the tax a must be an integer >= 1, got {self.a!r}")
        object.__setattr__(self, "a", int(self.a))
        if isinstance(self.x0, GeometricPmf):
            return
        if self.x0.leaked_mass != 0.0:
            raise ValueError("the initial law must carry no leaked mass")
        if self.x0.support.size < 2:
            raise ValueError("the initial law is not a constant in this model class; "
                             "give it at least 2 support points")
