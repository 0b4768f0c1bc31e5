"""Finite distributions on nonnegative integers, with leak accounting.

Weights live in a dense float64 array indexed by value.  Mass removed by
upper-tail truncation, by sub-1e-300 cleanup, or by cutting an unbounded
offspring law is never renormalized away: it accumulates in `leaked_mass`.
Retained means and generating-function values are therefore certified
lower bounds for the untruncated quantities.  Everything here is exact
algebra: `convolve` is always the direct sum.  The package's one transform
is `evolution._spectral_powers`, which `evolution.step` takes once a power
would cost more than `_DIRECT_CONV_OPS` multiply-adds.

A law's `pgf_pair`/`log_pgf_pair` methods are the one way to evaluate
E s^X and its derivative at a point, in float64 and in log space, and its
`diverges(s)` the one test of whether E s^X is infinite there (only a
geometric law's can be).  Every finite law is evaluated by two array
cores, `_pgf_pair` and `_log_pgf_pair`, each one pass over the law's
`atoms` (w, k), its positive weights and their sorted float64 values,
from which the cores alone derive, per call, the derivative's weights
w[j:] k[j:] (k[j] the first k >= 1); `_support` takes the atoms of
dense weights (a `FinitePmf`'s and an
`OffspringLaw`'s, once, on first use), an `AtomPmf` keeps its own, a
scan family's (G, K) weight matrix shares one k, and the powers of at
most two values are cached by (s, k).  `_log_pgf_pair` takes a sequence
of log s: a law's method passes one, evolution.gf_orbit a whole orbit
generation's.  `pgf_eval`, `pgf_deriv`,
`log_pgf_eval` and `log_pgf_deriv` are one side of a `FinitePmf`'s pairs.

An initial law is a finite law, a `FinitePmf` or an `AtomPmf` (kept as
its atoms: the CLI's finite x0, a two-point family member), read by
`_FiniteLaw` from its `atoms`; or a `GeometricPmf`, P(X = k) = r (1-r)^k
in closed form, whose `atoms` are its cut's.  Only `evolution.evolve`
reads the dense weights, `cut` (a FinitePmf is its own, the others build
theirs once, on first use, with `dense_weights`); every other reader
takes the atoms.  An `OffspringLaw` is its weights: kind, mean and bound
derive from them, and atoms on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import kernels

# |sum(weights) + leaked_mass - 1| must stay inside this band.
MASS_TOL = 1e-12
# Weights below this are swept into leaked_mass during convolution.
WEIGHT_FLOOR = 1e-300
# Upper-tail mass cut from a geometric law's weights: an offspring law
# books it as truncation_leak; an initial law (GeometricPmf.cut) leaves it out
# unrecorded, being small enough that the retained weights still pass the
# mass-conservation band with zero leak.
GEOMETRIC_TAIL = 1e-14
# evolution.step's budget: it convolves powers directly up to this many
# multiply-adds and takes the rest of the mixture from one spectrum.
_DIRECT_CONV_OPS = 1 << 24
# s^k overflows float64 for k log s above log(DBL_MAX) = 709.78...
_LOG_OVERFLOW = 710.0
# below this k_max log s no power or derivative term of a law can overflow
# (log k < 44 for every k < 2^63), so `_pgf_pair` needs no errstate
_LOG_QUIET = 660.0
# terms per chunk of _log_pgf_pair's points: each temporary stays near
# 512 KB, and a point of more terms is a chunk of its own
_LOG_PAIR_ELEMENTS = 1 << 16
# entries in truncate's first block of the cumsum from the top; a law of
# at most this many takes one cumsum, as a whole reversed cumsum would
_TAIL_BLOCK = 4096
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


class _FiniteLaw:
    """The readers a FinitePmf and an AtomPmf share, from the law's
    `atoms`; leak-free unless a FinitePmf books a leak."""

    leaked_mass = 0.0

    def diverges(self, s: float) -> bool:
        """Whether E s^X diverges: never, a finite sum."""
        return False

    def pgf_pair(self, s: float) -> tuple[float, float]:
        """(E s^X, d/ds E s^X) over the retained weights; overflow: quiet inf."""
        return _law_pgf_pair(self.atoms, s)

    def log_pgf_pair(self, s: float) -> tuple[float, float]:
        """(log E s^X, log d/ds E s^X), stable far beyond float64 range."""
        _check_argument(s)
        value, deriv = _log_pgf_pair(self.atoms, [math.log(s)])
        return value.item(), deriv.item()


@dataclass(frozen=True)
class FinitePmf(_FiniteLaw):
    """Dense pmf over {0, 1, ..., support_max} plus mass tracked as leaked.

    probs[v] is the retained probability of value v; trailing zeros are
    trimmed at construction so support_max == len(probs) - 1.  The invariant
    sum(probs) + leaked_mass == 1 is enforced to MASS_TOL.  The constructor
    copies the caller's weights; `convolve` and evolution.step hand the
    arrays they have just allocated to `_adopt`, which trims and checks
    them the same way without a copy.  The law is its own `cut`; its
    `atoms` are built on first use and kept.
    """

    probs: np.ndarray
    leaked_mass: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("weights must form a one-dimensional array")
        self._take(probs[: _trimmed_size(probs)].copy(), self.leaked_mass)

    @classmethod
    def _adopt(cls, probs: np.ndarray, leaked_mass: float = 0.0
               ) -> "FinitePmf":
        """The law on probs, a one-dimensional float64 array allocated for
        it that no one else holds: trimmed and checked as the constructor
        does, and kept without a copy."""
        law = object.__new__(cls)
        law._take(probs, leaked_mass)
        return law

    def _take(self, probs: np.ndarray, leaked_mass: float) -> None:
        """Trim and check probs, then keep them, read-only, as the law's."""
        probs = probs[: _trimmed_size(probs)]
        leak = float(leaked_mass)
        _check_weights(probs, leak)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "leaked_mass", leak)

    @classmethod
    def _checked(cls, probs: np.ndarray) -> "FinitePmf":
        """The leak-free law on probs as they are: an AtomPmf's cut, whose
        atoms passed `_check_weights` (its dense sum can differ)."""
        law = object.__new__(cls)
        probs.setflags(write=False)
        object.__setattr__(law, "probs", probs)
        object.__setattr__(law, "leaked_mass", 0.0)
        return law

    @classmethod
    def from_dict(cls, weights: Mapping[int, float], leaked_mass: float = 0.0) -> "FinitePmf":
        """Build from a value -> probability mapping; exact zeros are dropped."""
        if not weights:
            return cls(np.zeros(0), leaked_mass)
        _check_values(weights)
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

    @property
    def mean(self) -> float:
        """Retained first moment (a lower bound when leaked_mass > 0), over
        the dense weights."""
        return float(np.dot(self.probs, np.arange(float(self.probs.size))))

    @property
    def cut(self) -> "FinitePmf":
        return self

    @functools.cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return _support(self.probs)


@dataclass(frozen=True)
class GeometricPmf:
    """P(X = k) = r (1-r)^k on {0, 1, ...}, kept in closed form.

    E s^X = r / (1 - (1-r) s) and its derivative r (1-r) / (1 - (1-r) s)^2
    are finite for (1-r) s < 1; at and beyond that radius both pairs
    return +inf.  No weight array exists until a consumer that reads
    weights asks for one: `cut`, built by geometric_x0_pmf on first use and
    kept (with its `atoms`), so all of one model's consumers share one array.
    """

    r: float

    def __post_init__(self):
        object.__setattr__(self, "r", _success_prob(self.r))

    @property
    def mean(self) -> float:
        """E X = (1-r) / r."""
        return (1.0 - self.r) / self.r

    def diverges(self, s: float) -> bool:
        """Whether E s^X diverges: from the radius on, (1-r) s >= 1."""
        return (1.0 - self.r) * s >= 1.0

    def pgf_pair(self, s: float) -> tuple[float, float]:
        """(E s^X, d/ds E s^X); (inf, inf) where the series diverges."""
        _check_argument(s)
        if self.diverges(s):
            return math.inf, math.inf
        q = 1.0 - self.r
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

    @property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms of the cut."""
        return self.cut.atoms


def _powers(s: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s^k, s^(k - 1) for k >= 1), cached for at most two values, which
    many laws share (a scan.TwoPointFamily's members)."""
    if k.size <= 2:
        return _cached_powers(s, k.tobytes())
    return _computed_powers(s, k)


def _computed_powers(s: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_powers` from np.power's array path, whose last bit can differ from
    a scalar pow's.  The second part of values 0..len(k)-1 is read off the
    first: sorted distinct values end at len(k) - 1 only then."""
    powers = np.power(s, k)
    if k.size == 0 or k.item(-1) == k.size - 1:
        return powers, powers[:-1]
    return powers, np.power(s, k[int(k.item(0) == 0.0):] - 1.0)


@functools.lru_cache(maxsize=256)
def _cached_powers(s: float, values: bytes) -> tuple[np.ndarray, np.ndarray]:
    powers, shifted = _computed_powers(s, np.frombuffer(values))
    powers.setflags(write=False)
    shifted.setflags(write=False)
    return powers, shifted


@dataclass(eq=False)
class AtomPmf(_FiniteLaw):
    """A finite law kept as its atoms: P(X = k[i]) = w[i], with no array
    over 0..support_max.

    `atoms` is the (w, k) that `_support` takes from the same law's
    FinitePmf weights.  `from_dict` makes its arrays read-only; a
    scan.TwoPointFamily's members share their values (0, high).  Not
    frozen, and a member's own weights are not flagged: that made a scan's
    bisections 10% slower.  Its pairs equal its FinitePmf's bit for bit;
    its `mean`, a dot over the atoms, can differ in the last bit (numpy
    groups a dense dot of 16 or more entries otherwise).  Only
    `evolution.evolve` reads that FinitePmf, `cut`, built on first use.
    """

    atoms: tuple[np.ndarray, np.ndarray]

    @classmethod
    def from_dict(cls, weights: Mapping[int, float]) -> "AtomPmf":
        """The law of a value -> probability mapping; exact zeros are
        dropped.  Checked as FinitePmf.from_dict checks it, except that the
        mass is the sum of the atoms."""
        _check_values(weights)
        values = sorted(weights)
        w = np.array([weights[v] for v in values], dtype=np.float64)
        _check_weights(w)
        keep = w > 0.0
        w = w[keep]
        k = np.array(values, dtype=np.float64)[keep]
        w.setflags(write=False)
        k.setflags(write=False)
        return cls((w, k))

    @property
    def support(self) -> np.ndarray:
        """The values of positive weight, as float64."""
        _, k = self.atoms
        return k

    @property
    def mean(self) -> float:
        """E X, a dot over the atoms."""
        return float(np.dot(*self.atoms))

    @functools.cached_property
    def cut(self) -> FinitePmf:
        """The law's FinitePmf, built on first use and kept, on the weights
        that passed from_dict's checks."""
        return FinitePmf._checked(
            dense_weights(self.atoms, int(self.support[-1]) + 1))


def dense_weights(atoms: tuple[np.ndarray, np.ndarray],
                  length: int) -> np.ndarray:
    """The atoms (w, k) of values below length, placed in a new array of
    that many dense weights."""
    w, k = atoms
    take = int(np.searchsorted(k, length))
    probs = zeros(length)
    probs[k[:take].astype(np.intp)] = w[:take]
    return probs


def geometric_x0_pmf(r: float) -> FinitePmf:
    """P(X0 = k) = r (1-r)^k with the upper tail beyond GEOMETRIC_TAIL cut off,
    left unnormalized (the missing mass stays under the conservation band)."""
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
    p = _success_prob(p)
    q = 1.0 - p
    if q == 1.0:
        raise OverflowError(f"geometric success probability {p!r} is below "
                            f"float resolution: 1 - p rounds to 1")
    n = max(2, math.ceil(math.log(tail) / math.log(q)))
    while q ** n >= tail:
        n += 1
    return p * np.power(q, np.arange(n, dtype=np.float64)), float(q ** n)


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


def _check_values(weights: Mapping[int, float]) -> None:
    for v in weights:
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"support value {v!r} is not a nonnegative integer")


def _check_weights(w: np.ndarray, leak: float = 0.0) -> None:
    """Finite, nonnegative weights w whose w.sum() + leak, leak in [0, 1],
    lies inside the 1 +/- MASS_TOL band; a sum that overflows is not
    finite."""
    total = float(np.add.reduce(w))
    if not math.isfinite(total):
        raise ValueError("weights must be finite")
    if w.size and np.minimum.reduce(w) < 0.0:
        raise ValueError("weights must be nonnegative")
    if not 0.0 <= leak <= 1.0 + MASS_TOL:
        raise ValueError(f"leaked_mass {leak} outside [0, 1]")
    total += leak
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"total mass {total!r} outside the 1 +/- {MASS_TOL} band")


def _success_prob(p: float) -> float:
    """p as the float success probability of a geometric law, in (0, 1)."""
    r = float(p)
    if not 0.0 < r < 1.0:
        raise ValueError(f"success probability must lie in (0, 1), got {p}")
    return r


def _check_argument(s: float) -> None:
    if s <= 0.0:
        raise ValueError(f"pgf argument must be positive, got {s}")


def _support(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The atoms (w, k) of dense weights probs: the positive weights and
    their values as float64.

    A dense array gives probs itself and an arange: the numbers flatnonzero
    and fancy indexing would copy out, without the copies.
    """
    if np.count_nonzero(probs) == probs.size:
        return probs, np.arange(probs.size, dtype=np.float64)
    idx = np.flatnonzero(probs)
    return probs[idx], idx.astype(np.float64)


def _logsumexp(t: np.ndarray) -> np.ndarray:
    """log(sum(exp(t))) along the last axis of an array of finite terms
    whose last axis is not empty: one value per row, a numpy scalar for a
    one-dimensional t.

    The max-shifted sum with the maximal terms split off (Blanchard, Higham
    & Higham, IMA J. Numer. Anal. 41(4), 2021), in exactly the operations
    scipy.special.logsumexp performs, so results agree bit for bit, without
    its fixed per-call cost.  Each row is reduced as if alone: numpy sums a
    contiguous row pairwise whatever the rows around it.  The numpy log1p
    and log are kept on purpose: math.log1p and math.log can differ in the
    last bit.
    """
    top = t.max(axis=-1, keepdims=True)
    at_top = t == top
    m = at_top.sum(axis=-1, dtype=np.float64)
    e = t - top
    np.exp(e, out=e)
    e[at_top] = 0.0
    return np.log1p(e.sum(axis=-1) / m) + np.log(m) + top[..., 0]


def _pgf_pair(atoms: tuple, s: float):
    """(E s^X, d/ds E s^X) of the laws whose weights form the last axis of
    w in the atoms (w, k): one law's weights, or a (G, K) matrix of laws on
    the same values k, each row evaluated as if alone (np.vecdot runs
    np.dot's cblas ddot on each row).  The derivative's weights are
    w[..., j:] k[j:], j the index of the first k >= 1.

    When (support_max - 1) log s > 710, s^(support_max - 1) is certain to
    overflow, so both sums are inf without evaluating anything.  Short of
    that an overflow is a quiet inf, under an errstate (microseconds)
    entered only from support_max log s = _LOG_QUIET on.
    """
    w, k = atoms
    s = float(s)
    dot = np.vecdot if w.ndim > 1 else np.dot
    j = int(k.size > 0 and k.item(0) == 0.0)
    if k.size and s > 1.0:
        log_s = math.log(s)
        log_top = (k.item(-1) - 1.0) * log_s
        if log_top > _LOG_OVERFLOW:
            inf = np.full(w.shape[:-1], math.inf)
            return inf, inf
        if log_top + log_s > _LOG_QUIET:
            with np.errstate(over="ignore"):
                s_k, shifted = _powers(s, k)
                return dot(w, s_k), dot(w[..., j:] * k[j:], shifted)
    s_k, shifted = _powers(s, k)
    return dot(w, s_k), dot(w[..., j:] * k[j:], shifted)


def _law_pgf_pair(atoms: tuple, s: float) -> tuple[float, float]:
    """One law's `_pgf_pair`, as floats."""
    _check_argument(s)
    value, deriv = _pgf_pair(atoms, s)
    return float(value), float(deriv)


def _log_pgf_pair(atoms: tuple, log_s) -> tuple[np.ndarray, np.ndarray]:
    """Log pairs of one law's atoms at each point of the sequence log_s, as
    two arrays, from log s, so that s itself may lie beyond float64 range
    (the F_n(s) of evolution.gf_orbit).  One pass over the atoms and their
    log weights per chunk of points, each point's terms a row reduced by
    _logsumexp as if alone, so a point's pair is the same bits in any
    batch.  A chunk holds at most _LOG_PAIR_ELEMENTS terms, or one point's
    when a point has more, so a batch takes no more memory than one point's
    pass of that size.  One atom (a deterministic N) is its one term,
    log w + k log s and log(w k) + (k - 1) log s, which is what _logsumexp
    returns for it at every finite log s; a batch with a non-finite point
    takes the general pass."""
    w, k = atoms
    log_s = np.asarray(log_s, dtype=np.float64)
    value, deriv = np.full((2, log_s.size), -math.inf)
    if k.size == 0:
        return value, deriv
    log_w = np.log(w)
    j = int(k.item(0) == 0.0)
    k1 = k[j:]
    log_slopes = log_w[j:] + np.log(k1)
    if k.size == 1 and np.isfinite(log_s).all():
        if k1.size:
            deriv = log_slopes + (k1 - 1.0) * log_s
        return log_w + k * log_s, deriv
    rows = max(1, _LOG_PAIR_ELEMENTS // k.size)
    for start in range(0, log_s.size, rows):
        chunk = slice(start, start + rows)
        x = log_s[chunk, None]
        if k1.size:
            deriv[chunk] = _logsumexp(log_slopes + (k1 - 1.0) * x)
        value[chunk] = _logsumexp(log_w + k * x)
    return value, deriv


def pgf_eval(p: FinitePmf, s: float) -> float:
    """E s^X over the retained weights; overflows to inf for huge supports."""
    return p.pgf_pair(s)[0]


def pgf_deriv(p: FinitePmf, s: float) -> float:
    """d/ds E s^X over the retained weights."""
    return p.pgf_pair(s)[1]


def log_pgf_eval(p: FinitePmf, s: float) -> float:
    """log E s^X, stable far beyond float64 range."""
    return p.log_pgf_pair(s)[0]


def log_pgf_deriv(p: FinitePmf, s: float) -> float:
    """log of d/ds E s^X, stable far beyond float64 range."""
    return p.log_pgf_pair(s)[1]


def convolve(p: FinitePmf, q: FinitePmf) -> FinitePmf:
    """Law of the sum of independents, by the direct O(n m) sum at any
    size; leaks combine as 1-(1-lp)(1-lq)."""
    leak = p.leaked_mass + q.leaked_mass - p.leaked_mass * q.leaked_mass
    if p.probs.size == 0 or q.probs.size == 0:
        return FinitePmf(np.zeros(0), 1.0)
    w = kernels.get_backend().conv_direct(p.probs, q.probs)
    return FinitePmf._adopt(w, leak + sweep_floor(w))


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
    k = _tail_length(p.probs, tail_eps)
    if k == 0:
        return p
    keep = p.probs.size - k
    removed = float(np.add.reduce(p.probs[keep:]))
    return FinitePmf(p.probs[:keep], p.leaked_mass + removed)


def _tail_length(probs: np.ndarray, tail_eps: float) -> int:
    """The number of top entries whose sum from the top down stays <=
    tail_eps: searchsorted(cumsum(probs[::-1]), tail_eps, "right").

    The cumsum runs from the top in blocks of doubling length, each led by
    the sum so far, so every partial sum is the full cumsum's (a cumsum is
    sequential), and it stops at the first block that passes tail_eps.
    """
    top = probs[::-1]
    done, block = 0, _TAIL_BLOCK
    part = np.cumsum(top[:block])
    while True:
        k = int(np.searchsorted(part, tail_eps, side="right"))
        if k < part.size or done + part.size == top.size:
            return done + k
        done += part.size
        block *= 2
        lead = np.concatenate((part[-1:], top[done:done + block]))
        part = np.cumsum(lead)[1:]


@dataclass(frozen=True)
class OffspringLaw:
    """Law of the number of replicas summed per step: its weights, a dense
    pmf over counts (weights[0] == 0) ending at its last positive weight,
    of which a geometric law keeps those up to the smallest cutoff whose
    upper tail is below GEOMETRIC_TAIL, the cut mass in truncation_leak
    and the uncut law in success_prob, the p of the weights.  Derived:
    kind ('geometric' when success_prob is set, else 'deterministic' for
    one positive count, else 'finite'), mean, exact for all three kinds
    (1/p at any cutoff), bound, the essential supremum, None for geometric
    laws, unbounded at any cutoff; and atoms, the weights' (w, k), built
    on first use (a finite N's pgf_pair and the log pair read them).
    """

    weights: np.ndarray
    truncation_leak: float = 0.0
    success_prob: float | None = None
    kind: str = field(init=False)
    mean: float = field(init=False)
    bound: int | None = field(init=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2 or w[0] != 0.0 or w[-1] <= 0.0:
            raise ValueError("offspring weights must be a dense pmf over counts "
                             ">= 1 ending at a positive weight")
        _check_weights(w, self.truncation_leak)
        # P(N > 1) > 0: the last weight is positive; float64 needs both tests
        if w.size < 3:
            raise ValueError("the replica count must exceed 1 with positive probability")
        p = self.success_prob
        geometric = p is not None
        if geometric:
            p = _success_prob(p)
            # the tail and the second weight of _cut_geometric(p, tail)
            if (self.truncation_leak != (1.0 - p) ** (w.size - 1)
                    or w[2] != p * (1.0 - p)):
                raise ValueError(f"success probability {p} does not match "
                                 f"the geometric weights")
        mean = (1.0 / p if geometric
                else float(np.dot(w, np.arange(float(w.size)))))
        if mean <= 1.0:
            raise ValueError(f"offspring mean must exceed 1, got {mean}")
        w.setflags(write=False)
        kind = ("geometric" if geometric else "deterministic"
                if np.count_nonzero(w) == 1 else "finite")
        for name, value in (("weights", w), ("success_prob", p), ("kind", kind),
                            ("mean", mean),
                            ("bound", None if geometric else w.size - 1)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The weights' atoms, built on first use and kept."""
        return _support(self.weights)

    @classmethod
    def deterministic(cls, n: int) -> "OffspringLaw":
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError("a constant replica count must be an integer >= 2 "
                             "(the count must exceed 1 with positive probability)")
        w = zeros(int(n) + 1)
        w[int(n)] = 1.0
        return cls(w)

    @classmethod
    def finite_support(cls, pmf: Mapping[int, float]) -> "OffspringLaw":
        """Counts >= 1 with weights checked and trimmed by FinitePmf; the
        bound is the largest count of positive probability."""
        for k in pmf:
            if not isinstance(k, (int, np.integer)) or k < 1:
                raise ValueError(f"offspring count {k!r} is not an integer >= 1")
        return cls(FinitePmf.from_dict(pmf).probs)

    @classmethod
    def geometric(cls, p: float) -> "OffspringLaw":
        """Success-probability p law on {1, 2, ...}; P(N = k) = p (1-p)^(k-1),
        with weights cut at GEOMETRIC_TAIL."""
        return cls._cut_geometric(p, GEOMETRIC_TAIL)

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
        return cls(w, leak, p)

    def pgf_pair(self, v: float) -> tuple[float, float]:
        """(E v^N, d/dv E v^N) of the ideal law: closed form for geometric,
        sums over the weights otherwise."""
        if self.kind != "geometric":
            return _law_pgf_pair(self.atoms, v)
        p, q = self.success_prob, 1.0 - self.success_prob
        if q * v >= 1.0:
            raise ValueError(f"geometric pgf diverges at argument {v}")
        return p * v / (1.0 - q * v), p / (1.0 - q * v) ** 2

    def log_pgf_pair(self, *, log_v: float) -> tuple[float, float]:
        """(log E v^N, log d/dv E v^N) over the weights, from log v, which
        is keyword-only: the x0 laws' log_pgf_pair take s itself.
        evolution.gf_orbit calls `_log_pgf_pair` on a generation's batch
        of log v: the same pass."""
        value, deriv = _log_pgf_pair(self.atoms, [log_v])
        return value.item(), deriv.item()


@dataclass(frozen=True)
class ModelSpec:
    """One recursion instance: X' = (sum of N replicas of X, minus a)+.

    x0 is a finite law (a FinitePmf or an AtomPmf) or a GeometricPmf; the
    last needs no check here, being leak-free and never constant."""

    a: int
    x0: FinitePmf | AtomPmf | GeometricPmf
    offspring: OffspringLaw

    def __post_init__(self):
        if not isinstance(self.a, (int, np.integer)) or self.a < 1:
            raise ValueError(f"the tax a must be an integer >= 1, got {self.a!r}")
        object.__setattr__(self, "a", int(self.a))
        if isinstance(self.x0, GeometricPmf):
            return
        if not isinstance(self.x0, _FiniteLaw):
            raise ValueError(f"x0 must be a FinitePmf, an AtomPmf or a "
                             f"GeometricPmf, got {type(self.x0).__name__}")
        if self.x0.leaked_mass != 0.0:
            raise ValueError("the initial law must carry no leaked mass")
        if self.x0.support.size < 2:
            raise ValueError("the initial law is not a constant in this model class; "
                             "give it at least 2 support points")
